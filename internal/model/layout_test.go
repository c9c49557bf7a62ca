package model

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
	"unsafe"

	"sqlb/internal/randx"
)

// layoutConfig is a capability-matched population: specialists advertising
// m of 16 classes, and a share of generalists.
func layoutConfig(m int, generalists float64) Config {
	cfg := DefaultConfig().WithClasses(16)
	cfg.Consumers, cfg.Providers = 12, 200
	cfg.CapabilitySelectivity = float64(m) / 16
	cfg.GeneralistShare = generalists
	return cfg
}

// offset counts the elements of T from base to p.
func offset[T any](base, p *T) int {
	return int((uintptr(unsafe.Pointer(p)) - uintptr(unsafe.Pointer(base))) / unsafe.Sizeof(*p))
}

// checkSlabs holds every per-provider slab of pop to one order: position k
// of the Provider slab, of the utilization windows, columns 2k and 2k+1 of
// the tracker cohort (trackers k and |P|+k where both are views of a
// stream), the Definition 8 memo rows and every dense consumer's
// preference row all belong to one provider. It returns the providers in
// slab order.
func checkSlabs(t *testing.T, pop *Population) []*Provider {
	t.Helper()
	base := pop.Providers[0]
	for _, p := range pop.Providers {
		if uintptr(unsafe.Pointer(p)) < uintptr(unsafe.Pointer(base)) {
			base = p
		}
	}
	byPos := make([]*Provider, len(pop.Providers))
	pos := make([]int, len(pop.Providers))
	for id, p := range pop.Providers {
		if p.ID != id {
			t.Fatalf("pop.Providers[%d] has ID %d", id, p.ID)
		}
		pos[id] = offset(base, p)
		byPos[pos[id]] = p
	}
	var lastMemo uintptr
	for k, p := range byPos {
		if p == nil {
			t.Fatalf("no provider at position %d", k)
		}
		if d := offset(base.Util, p.Util); d != k {
			t.Errorf("provider %d at %d: utilization window at %d", p.ID, k, d)
		}
		wantPub, wantPriv := 2*k, 2*k+1
		if pop.Stream() != nil { // views of a stream: the public ones first, then the private ones
			wantPub, wantPriv = k, len(byPos)+k
		}
		if pub, priv := offset(base.Public, p.Public), offset(base.Public, p.Private); pub != wantPub || priv != wantPriv {
			t.Errorf("provider %d at %d: trackers at columns %d and %d", p.ID, k, pub, priv)
		}
		if len(p.memo.pref) > 0 {
			at := uintptr(unsafe.Pointer(&p.memo.pref[0]))
			if at <= lastMemo {
				t.Errorf("provider %d at %d: memo row out of order", p.ID, k)
			}
			lastMemo = at
		}
	}
	for _, c := range pop.Consumers {
		if c.hashedPrefs {
			continue
		}
		for id, p := range pop.Providers {
			if math.Float64bits(c.prefs[pos[id]]) != math.Float64bits(c.Preference(p, 0)) {
				t.Fatalf("consumer %d: provider %d's preference is not at position %d", c.ID, id, pos[id])
			}
		}
	}
	return byPos
}

// preferenceDigest hashes what consumers read by provider ID: every
// consumer of pop against pop's providers and against providers built by
// hand with the same IDs (and with IDs the population does not have), and
// every consumer of other — a consumer mixed in from another population —
// against pop's providers.
func preferenceDigest(pop, other *Population) string {
	h := sha256.New()
	put := func(v float64) { h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v))) }
	for _, c := range pop.Consumers {
		for id := -1; id <= len(pop.Providers); id++ {
			if id >= 0 && id < len(pop.Providers) {
				put(c.Preference(pop.Providers[id], 0))
			}
			put(c.Preference(&Provider{ID: id}, 0))
		}
	}
	for _, c := range other.Consumers {
		for _, p := range pop.Providers {
			put(c.Preference(p, 0))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestPopulationLayout(t *testing.T) {
	t.Run("homogeneous is ID order", func(t *testing.T) {
		pop := NewPopulation(layoutConfig(16, 0), randx.New(1), 0)
		if pop.layout != nil || pop.Stream() == nil {
			t.Fatal("a homogeneous population built a layout, or no window stream")
		}
		for _, c := range pop.Consumers {
			if c.layout != nil {
				t.Fatalf("consumer %d holds a layout", c.ID)
			}
		}
		for k, p := range checkSlabs(t, pop) {
			if p.ID != k {
				t.Fatalf("position %d holds provider %d", k, p.ID)
			}
		}
	})

	for _, tc := range []struct {
		name        string
		m           int
		generalists float64
	}{
		{"narrow", 1, 0},
		{"narrow with generalists", 1, 0.1},
		{"two-class specialists with generalists", 2, 0.2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := layoutConfig(tc.m, tc.generalists)
			pop := NewPopulation(cfg, randx.New(1), 0)
			classes := len(cfg.QueryClasses)
			key := func(p *Provider) int {
				if p.Generalist() {
					return 0
				}
				return 1 + p.CapabilityClasses(classes)[0]
			}
			// Runs by lowest advertised class, generalists first, each
			// ascending in ID: every Pq of a one-class population is one run.
			laid := checkSlabs(t, pop)
			for k := 1; k < len(laid); k++ {
				a, b := laid[k-1], laid[k]
				if key(a) > key(b) || (key(a) == key(b) && a.ID >= b.ID) {
					t.Fatalf("positions %d, %d hold providers %d (run %d) and %d (run %d)", k-1, k, a.ID, key(a), b.ID, key(b))
				}
			}
			if tc.generalists > 0 && !laid[0].Generalist() {
				t.Error("the slabs do not open with the generalists")
			}
		})
	}

	t.Run("SetPreference round-trips by ID", func(t *testing.T) {
		for _, hashed := range []bool{false, true} {
			cfg := layoutConfig(1, 0.1)
			cfg.HashedConsumerPrefs = hashed
			pop := NewPopulation(cfg, randx.New(2), 0)
			c := pop.Consumers[3]
			want := func(id int) float64 { return -1 + 2*float64(id)/float64(len(pop.Providers)) }
			for id := range pop.Providers {
				c.SetPreference(id, want(id))
			}
			for id, p := range pop.Providers {
				if got := c.Preference(p, 0); got != want(id) {
					t.Fatalf("hashed=%v provider %d: Preference %v after SetPreference %v", hashed, id, got, want(id))
				}
			}
		}
	})

	// The digests were recorded with every provider slab in ID order: a
	// consumer reads its preference for provider ID i — from its own
	// population's row whichever population the provider came from, or for
	// a provider built by hand — and the layout changes none of it.
	t.Run("reads by ID are unchanged", func(t *testing.T) {
		for _, tc := range []struct {
			cfg  Config
			want string
		}{
			{layoutConfig(1, 0.1), "7cfd9069554284f189daca536357f9c6c4638d3097fb837fe743db5357e30774"},
			{layoutConfig(16, 0), "adf8d1fdeb5cb9297ffc420731932baa8af7f703e136fbd277ed6ef5a9527ed2"},
		} {
			pop := NewPopulation(tc.cfg, randx.New(5), 0)
			other := NewPopulation(layoutConfig(2, 0.3), randx.New(6), 0)
			if got := preferenceDigest(pop, other); got != tc.want {
				t.Errorf("selectivity %v: preference digest %s, recorded %s", tc.cfg.CapabilitySelectivity, got, tc.want)
			}
		}
	})
}

// TestParticipantSizes pins the participant structs at four and two cache
// lines on 64-bit platforms: the slabs a mediation walks are arrays of them.
func TestParticipantSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if s := unsafe.Sizeof(Provider{}); s != 256 {
		t.Errorf("Provider is %d bytes, want 256", s)
	}
	if s := unsafe.Sizeof(Consumer{}); s != 128 {
		t.Errorf("Consumer is %d bytes, want 128", s)
	}
}
