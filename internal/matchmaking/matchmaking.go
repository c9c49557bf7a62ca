// Package matchmaking implements the matchmaking step of the mediation
// layer (Figure 1 / line 1 of Algorithm 1): finding Pq, the set of
// providers able to treat a query. The paper assumes a sound and complete
// matchmaking procedure (Section 2, refs [11,14]) and, in its experiments,
// that every provider can perform every query; this package supplies the
// indexed procedure that makes heterogeneous capability scenarios cheap.
//
// The core type is Index, an inverted capability index: one posting list
// per query class, holding the registered providers that advertise the
// class in ascending ID order. The index is maintained incrementally as
// providers register (Add), depart (Remove), or depart unannounced (lazy
// pruning at lookup), in the spirit of maintaining query results under
// updates rather than recomputing them per query (cf. "Conjunctive Queries
// with Free Access Patterns under Updates", PAPERS.md). A mediator lookup
// is then O(|Pq|) — it touches only the candidate subset — instead of the
// O(|P|) full-population scan of the naive procedure.
package matchmaking

import (
	"sort"

	"sqlb/internal/model"
)

// Index is the inverted capability index: postings[class] lists the
// registered providers advertising that class, sorted by ascending
// provider ID — the same order the naive population scan produces, so
// switching the mediator from scan to index leaves every allocation
// byte-identical.
//
// Liveness contract: Remove keeps the lists exact under announced
// departures. A provider that departs (model.Provider.Depart) without a
// Remove call is pruned lazily at the next Lookup of each class it
// advertised; the one caller that does so is the reference mediator's
// test harness, which departs providers silently on purpose (the engine
// always calls Remove). A provider that rejoins (model.Provider.Rejoin)
// must be re-registered with Add. Lookups return the index's
// internal slice, valid until the next mutation of that class; callers
// must not modify or retain it across mediations. Index is
// not safe for concurrent use; the discrete-event engine drives it from a
// single goroutine, and a concurrent mediation server must wrap it in its
// commit lock.
type Index struct {
	classes  int
	postings [][]*model.Provider
}

// NewIndex returns an empty index over the given number of query classes.
func NewIndex(classes int) *Index {
	if classes < 1 {
		classes = 1
	}
	return &Index{classes: classes, postings: make([][]*model.Provider, classes)}
}

// BuildIndex indexes every alive provider of the population over the
// population's query classes — the registration snapshot the mediator
// starts from.
func BuildIndex(pop *model.Population) *Index {
	ix := NewIndex(len(pop.Classes))
	for _, p := range pop.Providers {
		if p.Alive() {
			ix.Add(p)
		}
	}
	return ix
}

// Classes returns the number of query classes the index covers.
func (ix *Index) Classes() int { return ix.classes }

// Add registers a provider: it is inserted, in ID position, into the
// posting list of every class it advertises. Adding an already-registered
// provider is a no-op per class.
func (ix *Index) Add(p *model.Provider) {
	for c := 0; c < ix.classes; c++ {
		if !p.CanServe(c) {
			continue
		}
		list := ix.postings[c]
		i := sort.Search(len(list), func(i int) bool { return list[i].ID >= p.ID })
		if i < len(list) && list[i] == p {
			continue
		}
		list = append(list, nil)
		copy(list[i+1:], list[i:])
		list[i] = p
		ix.postings[c] = list
	}
}

// Remove deregisters a provider from every class it advertises — the
// incremental maintenance step for announced departures (Section 6.3.2).
// Removing an unregistered provider is a no-op.
func (ix *Index) Remove(p *model.Provider) {
	for c := 0; c < ix.classes; c++ {
		if !p.CanServe(c) {
			continue
		}
		list := ix.postings[c]
		i := sort.Search(len(list), func(i int) bool { return list[i].ID >= p.ID })
		if i >= len(list) || list[i] != p {
			continue
		}
		ix.postings[c] = append(list[:i], list[i+1:]...)
	}
}

// Lookup returns Pq for a query class: the registered, alive providers
// advertising the class in ascending ID order. Providers that departed
// without a Remove call are pruned from the posting list on the way (one
// that rejoins is added again, so the pruning is sound). Classes outside
// [0, Classes()) have no providers. The returned slice is the index's
// internal list — read-only, valid until the next mutation of the class.
func (ix *Index) Lookup(class int) []*model.Provider {
	if class < 0 || class >= ix.classes {
		return nil
	}
	list := ix.postings[class]
	for _, p := range list {
		if !p.Alive() {
			return ix.prune(class)
		}
	}
	return list
}

// prune compacts a posting list around departed providers in place.
func (ix *Index) prune(class int) []*model.Provider {
	list := ix.postings[class]
	kept := list[:0]
	for _, p := range list {
		if p.Alive() {
			kept = append(kept, p)
		}
	}
	// Zero the tail so dropped providers do not leak through the backing
	// array.
	for i := len(kept); i < len(list); i++ {
		list[i] = nil
	}
	ix.postings[class] = kept
	return kept
}

// PostingLen returns the current length of a class's posting list,
// including any not-yet-pruned departed providers. Tests and capacity
// planning use it; mediation goes through Lookup.
func (ix *Index) PostingLen(class int) int {
	if class < 0 || class >= ix.classes {
		return 0
	}
	return len(ix.postings[class])
}

// Match implements mediator.Matchmaker (the interface is satisfied
// structurally; this package does not import mediator to keep the
// dependency arrow pointing matchmaking ← mediator-user). The population
// argument is ignored — the index already holds the candidate sets.
func (ix *Index) Match(q *model.Query, _ *model.Population) []*model.Provider {
	return ix.Lookup(q.Class)
}
