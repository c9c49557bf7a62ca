package model

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUtilizationBasics(t *testing.T) {
	u := NewUtilizationWindow(10, 100, 0) // W=10s, cap=100 u/s
	if got := u.Utilization(0); got != 0 {
		t.Errorf("fresh utilization = %v, want 0", got)
	}
	// 500 units over the first 5 seconds: Ut = 500/(100·5) = 1.
	u.Add(1, 250)
	u.Add(4, 250)
	if got := u.Utilization(5); math.Abs(got-1) > 1e-9 {
		t.Errorf("early-horizon utilization = %v, want 1", got)
	}
	// At t=20 both events have left the window.
	if got := u.Utilization(20); got != 0 {
		t.Errorf("post-eviction utilization = %v, want 0", got)
	}
}

func TestUtilizationSteadyState(t *testing.T) {
	// A provider of capacity 100 receiving 80 units/s should read Ut ≈ 0.8
	// — the paper's "optimal utilization is 0.8 at 80% workload".
	u := NewUtilizationWindow(30, 100, 0)
	for ti := 0; ti < 300; ti++ {
		u.Add(float64(ti), 80)
	}
	got := u.Utilization(300)
	if math.Abs(got-0.8) > 0.03 {
		t.Errorf("steady-state utilization = %v, want ≈0.8", got)
	}
}

func TestUtilizationOverload(t *testing.T) {
	// Concentrated load can push Ut far above 1 (the Mariposa-like
	// behaviour of Figure 4(g)).
	u := NewUtilizationWindow(30, 100, 0)
	for ti := 0; ti < 60; ti++ {
		u.Add(float64(ti), 350)
	}
	if got := u.Utilization(60); got < 3 {
		t.Errorf("overloaded utilization = %v, want > 3", got)
	}
}

func TestUtilizationEvictionAndCompaction(t *testing.T) {
	u := NewUtilizationWindow(1, 10, 0)
	for ti := 0; ti < 1000; ti++ {
		u.Add(float64(ti), 1)
		u.Utilization(float64(ti))
	}
	if got := u.Pending(); got > 4 {
		t.Errorf("window retains %d events, want <= 4 after compaction", got)
	}
}

func TestUtilizationAssignedRate(t *testing.T) {
	u := NewUtilizationWindow(10, 50, 0)
	u.Add(0.5, 100)
	rate := u.AssignedRate(1)
	if math.Abs(rate-100) > 1e-6 {
		t.Errorf("assigned rate = %v, want 100 units/s over 1s horizon", rate)
	}
}

func TestUtilizationGuards(t *testing.T) {
	u := NewUtilizationWindow(-5, -3, 0) // nonsense inputs clamped
	u.Add(0, 1)
	if got := u.Utilization(0.5); math.IsNaN(got) || math.IsInf(got, 0) {
		t.Errorf("guarded utilization = %v, want finite", got)
	}
	if u.Window() != 1 {
		t.Errorf("window = %v, want clamped 1", u.Window())
	}
}

func TestUtilizationNonNegativeProperty(t *testing.T) {
	f := func(raw []float64) bool {
		u := NewUtilizationWindow(5, 10, 0)
		now := 0.0
		for _, v := range raw {
			vv := math.Mod(v, 1000) // tame extreme magnitudes before deriving inputs
			if math.IsNaN(vv) {
				vv = 0
			}
			dt := math.Abs(math.Mod(vv, 3))
			now += dt
			u.Add(now, math.Abs(math.Mod(vv*7, 100)))
			if got := u.Utilization(now); got < 0 || math.IsNaN(got) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUtilizationMonotoneEvictionProperty(t *testing.T) {
	// Waiting with no new assignments can only decrease utilization once
	// past the initial horizon growth.
	f := func(units uint16, wait uint8) bool {
		u := NewUtilizationWindow(10, 100, 0)
		u.Add(0, float64(units%1000)+1)
		at10 := u.Utilization(10)
		later := u.Utilization(10 + float64(wait%50))
		return later <= at10+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestUtilizationFastPathEqualsAlwaysEvict: Utilization skips evict when
// nothing can expire and there is no drift to clear. A twin window that
// runs evict before every read — what Utilization did unconditionally —
// must return the same bits and hold the same state after every step of a
// random script of assignments (hostile units included), reads, and clock
// moves in both directions; and the fast path's oldest must be the time of
// the deque's head event, +Inf when it is empty.
func TestUtilizationFastPathEqualsAlwaysEvict(t *testing.T) {
	units := []float64{1, 130, 1e-300, 0, -1, -500, 1e300, math.Inf(1), math.NaN()}
	r := rand.New(rand.NewSource(19))
	for script := 0; script < 300; script++ {
		hostile := script%3 == 0
		fast, ref := NewUtilizationWindow(10, 50, 0), NewUtilizationWindow(10, 50, 0)
		now := 0.0
		for step := 0; step < 200; step++ {
			switch r.Intn(8) {
			case 0, 1, 2:
				u := 100 + 100*r.Float64()
				if hostile {
					u = units[r.Intn(len(units))]
				}
				fast.Add(now, u)
				ref.Add(now, u)
			case 3:
				now += r.Float64()
			case 4:
				now += fast.Window() * (0.5 + r.Float64())
			case 5:
				now -= 3 * r.Float64() // a clock that runs backwards
			case 6:
				if hostile {
					now = []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1e17, 0}[r.Intn(5)]
				}
			}
			ref.evict(now)
			got, want := fast.Utilization(now), ref.Utilization(now)
			// NaN + NaN keeps either operand's payload, as the compiler
			// orders them at each inlined call, so NaNs compare as one.
			same := func(a, b float64) bool {
				return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
			}
			if !same(got, want) || !same(fast.sum, ref.sum) || fast.head != ref.head || len(fast.events) != len(ref.events) {
				t.Fatalf("script %d step %d now %v: fast path Ut %v sum %v head %d len %d; always-evict Ut %v sum %v head %d len %d",
					script, step, now, got, fast.sum, fast.head, len(fast.events), want, ref.sum, ref.head, len(ref.events))
			}
			oldest := math.Inf(1)
			if fast.head < len(fast.events) {
				oldest = fast.events[fast.head].at
			}
			if !same(fast.oldest, oldest) {
				t.Fatalf("script %d step %d: oldest %v, head event at %v", script, step, fast.oldest, oldest)
			}
		}
	}
}
