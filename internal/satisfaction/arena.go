package satisfaction

// Arena bulk-allocates the ring storage behind many windows. A population
// of 1M consumers owns 2M windows; allocating each ring separately costs
// one heap object (and one pointer dereference per access) apiece, which
// dominates both the build time and the resident overhead at that scale. An
// arena instead carves every ring of a cohort out of a few large contiguous
// blocks: participants created together stay adjacent in memory, which is
// exactly the access order of the mediation loop. (Provider trackers lay
// their rings out with InitCohort instead.)
//
// Rings are fixed-capacity and never grow, so carved buffers are sliced
// with a full slice expression — an accidental append cannot bleed into a
// neighbour's ring. A nil *Arena is valid everywhere and falls back to
// plain per-ring allocations, keeping NewWindow and any external callers
// untouched.
type Arena struct {
	words []uint64
}

// NewArena returns an arena pre-sized for slots window slots. Exceeding
// the reservation is not an error; further blocks are allocated in chunks
// as needed.
func NewArena(slots int) *Arena {
	a := &Arena{}
	if slots > 0 {
		a.words = make([]uint64, slots)
	}
	return a
}

// arenaChunk is the minimum block size (in slots) allocated when an arena
// runs dry — large enough that stragglers past the reservation amortize.
const arenaChunk = 1 << 14

// wordBuf carves k slots; nil arena → plain allocation.
func (a *Arena) wordBuf(k int) []uint64 {
	if a == nil {
		return make([]uint64, k)
	}
	if len(a.words) < k {
		n := arenaChunk
		if n < k {
			n = k
		}
		a.words = make([]uint64, n)
	}
	buf := a.words[:k:k]
	a.words = a.words[k:]
	return buf
}
