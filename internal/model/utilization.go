package model

import "math"

// UtilizationWindow computes Ut(p), the provider utilization of Section 2,
// as the work assigned to the provider during the trailing window divided
// by the capacity the provider offers over that window:
//
//	Ut(p) = Σ units assigned in (now-W, now] / (cap(p) · W)
//
// The paper delegates the exact formula to ref [16]; this assigned-load
// definition preserves the two properties the evaluation relies on (see
// DESIGN.md): a balanced allocation at x% system workload yields Ut ≈ x/100
// for every provider, and a concentrating method can push Ut arbitrarily
// above 1. Before one full window has elapsed the effective horizon is the
// elapsed time, so early measurements are not diluted by the empty past.
type UtilizationWindow struct {
	window   float64
	capacity float64
	start    float64
	events   []utilEvent // FIFO deque, head..len valid
	head     int
	sum      float64
	// oldest is events[head].at, +Inf when nothing is pending: all that
	// Utilization must know to tell that nothing can expire, kept in the
	// header so that read does not reach into the deque.
	oldest float64
}

type utilEvent struct {
	at    float64
	units float64
}

// NewUtilizationWindow returns a window of w seconds for a provider of the
// given capacity (units/second), observing from time start.
func NewUtilizationWindow(w, capacity, start float64) *UtilizationWindow {
	u := &UtilizationWindow{}
	u.Init(w, capacity, start)
	return u
}

// Init (re)initializes the window in place; population builders use it to
// lay windows out in one bulk array instead of allocating per provider.
func (u *UtilizationWindow) Init(w, capacity, start float64) {
	if w <= 0 {
		w = 1
	}
	if capacity <= 0 {
		capacity = 1e-9
	}
	*u = UtilizationWindow{window: w, capacity: capacity, start: start, oldest: math.Inf(1)}
}

// Add records units of work assigned at time now.
func (u *UtilizationWindow) Add(now, units float64) {
	u.evict(now)
	if u.head == len(u.events) {
		u.oldest = now
	}
	u.events = append(u.events, utilEvent{at: now, units: units})
	u.sum += units
}

// Utilization returns Ut at time now.
func (u *UtilizationWindow) Utilization(now float64) float64 {
	// With nothing to expire and no drift to clear evict would do nothing:
	// it compacts only after moving head, and every call leaves the
	// compaction condition false, which Add's append keeps false. This
	// read is on every candidate's path.
	if u.sum < 0 || u.oldest <= now-u.window {
		u.evict(now)
	}
	eff := now - u.start
	if eff > u.window {
		eff = u.window
	}
	if eff <= 0 {
		eff = 1e-9
	}
	if u.sum <= 0 {
		return 0
	}
	return u.sum / (u.capacity * eff)
}

// AssignedRate returns the raw assigned work rate (units/second) over the
// effective window; utilization times capacity.
func (u *UtilizationWindow) AssignedRate(now float64) float64 {
	return u.Utilization(now) * u.capacity
}

func (u *UtilizationWindow) evict(now float64) {
	cutoff := now - u.window
	for u.head < len(u.events) && u.events[u.head].at <= cutoff {
		u.sum -= u.events[u.head].units
		u.head++
	}
	u.oldest = math.Inf(1)
	if u.head < len(u.events) {
		u.oldest = u.events[u.head].at
	}
	// Compact once the dead prefix dominates, to keep memory bounded.
	if u.head > 0 && u.head*2 >= len(u.events) {
		n := copy(u.events, u.events[u.head:])
		u.events = u.events[:n]
		u.head = 0
	}
	if u.sum < 0 { // float drift guard
		u.sum = 0
	}
}

// Window returns the configured window length in seconds.
func (u *UtilizationWindow) Window() float64 { return u.window }

// Pending returns the number of live events held (for tests).
func (u *UtilizationWindow) Pending() int { return len(u.events) - u.head }
