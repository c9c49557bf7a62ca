package core

import (
	"math"
	"sort"
	"testing"
)

// splitFloats are the intentions FuzzRankTop draws from: signed zeros,
// subnormals, values around 1+ε and −1, out-of-range magnitudes, ±Inf and
// NaN. splitOmegas are its ω, clamped or not, and splitEpsilons its ε.
var (
	splitFloats = []float64{
		0, math.Copysign(0, -1), 5e-324, 1e-300, 0.25, 0.5, 1 - 1e-16, 1, 1 + 1e-16, 1.3, 2, 2 + 1e-15, 7, 1e300,
		math.MaxFloat64, math.Inf(1), math.NaN(), -0.5, -1 + 1e-16, -1, -1 - 1e-9, -2.5, -7, -1e300, math.Inf(-1),
	}
	splitOmegas   = []float64{0, 1, 0.5, 0.25, 1 - 0x1p-53, 5e-324, -1, 2, math.NaN()}
	splitEpsilons = []float64{DefaultEpsilon, 0.3, 5e-324, 0}
)

// exactResolver makes a deferred pi slot exact.
type exactResolver struct{ pi, exact []float64 }

func (r exactResolver) Resolve(i int) { r.pi[i] = r.exact[i] }

// FuzzRankTop decodes hostile pi, ci and ω vectors, n and ε from bytes and
// ranks them as SQLB does, with Definition 9's sign split (RankSplit): the
// ranking must be the full sort's first n, index for index and Score bit
// for bit. Byte 0 picks ε and how the split is handed over (exact, every
// slot listed, or a looser ceiling); byte 1 is n; each further triple is
// one candidate's pi, ci and ω, and a pi byte with its top bit set on a pi
// below −1 defers it behind the bound −1, which the resolver makes exact.
func FuzzRankTop(f *testing.F) {
	f.Add([]byte{0, 1, 22, 13, 0, 5, 5, 0})           // pi −7, ci 1e300, ω 0: +1e300 on the negative branch
	f.Add([]byte{0, 1, 19, 10, 2, 2, 2, 2})           // −0 at index 0 against 5e-324
	f.Add([]byte{0, 1, 5, 5, 2, 15, 2, 2})            // Inf·(5e-324)^½
	f.Add([]byte{1, 2, 4, 4, 2, 0x95, 3, 2, 6, 6, 3}) // a deferred −2.5 among willing slots
	f.Add([]byte{6, 0, 16, 16, 8, 3, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		mode, nb := data[0], data[1]
		data = data[2:]
		total := min(len(data)/3, 64)
		pi, ci, om, exact := make([]float64, total), make([]float64, total), make([]float64, total), make([]float64, total)
		for i := range total {
			b := data[3*i]
			pi[i], ci[i], om[i] = splitFloats[int(b&0x7f)%len(splitFloats)], splitFloats[int(data[3*i+1])%len(splitFloats)],
				splitOmegas[int(data[3*i+2])%len(splitOmegas)]
			if exact[i] = pi[i]; b&0x80 != 0 && pi[i] < -1 {
				pi[i] = -1
			}
		}
		epsilon := splitEpsilons[int(mode>>2)%len(splitEpsilons)]
		n := int(nb) % (total + 2)

		var s Scratch
		split := SplitOf(&s, pi, ci)
		switch mode % 4 {
		case 1: // every slot listed
			split.Candidates = split.Candidates[:0]
			for i := range total {
				split.Candidates = append(split.Candidates, i)
			}
		case 2: // a looser ceiling
			split.Ceiling = math.Inf(1)
		}
		got := RankSplit(&s, n, pi, ci, split, func(i int) float64 { return om[i] }, epsilon, exactResolver{pi, exact})

		scores := make([]float64, total)
		order := make([]int, total)
		for i := range order {
			order[i], scores[i] = i, Score(exact[i], ci[i], om[i], epsilon)
		}
		sort.Slice(order, func(a, b int) bool { return ranksBefore(scores[order[a]], scores[order[b]], order[a], order[b]) })
		want := order[:max(min(n, total), 0)]
		if len(got) != len(want) {
			t.Fatalf("n=%d of %d: ranked %d, want %d", n, total, len(got), len(want))
		}
		for j, i := range want {
			if got[j].Index != i || math.Float64bits(got[j].Score) != math.Float64bits(scores[i]) {
				t.Fatalf("n=%d of %d: rank %d is %d scoring %v, full sort %d scoring %v (pi %v ci %v ω %v)",
					n, total, j, got[j].Index, got[j].Score, i, scores[i], exact, ci, om)
			}
		}
	})
}
