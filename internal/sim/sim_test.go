package sim

import (
	"container/heap"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"sqlb/internal/allocator"
	"sqlb/internal/model"
	"sqlb/internal/workload"
)

// smallConfig is a fast population for engine tests: a 10% scale of the
// paper setup (20 consumers, 40 providers, provider window 50).
func smallConfig() model.Config {
	return model.DefaultConfig().Scale(0.1)
}

func smallOptions(strategy allocator.Allocator, frac float64, dur float64) Options {
	return Options{
		Config:         smallConfig(),
		Strategy:       strategy,
		Workload:       workload.Constant(frac),
		Duration:       dur,
		Seed:           42,
		SampleInterval: dur / 10,
	}
}

func TestEventHeapOrdering(t *testing.T) {
	var h eventHeap
	h.push(event{time: 3, seq: 1})
	h.push(event{time: 1, seq: 2})
	h.push(event{time: 1, seq: 3})
	h.push(event{time: 2, seq: 4})
	var order []event
	for len(h) > 0 {
		order = append(order, h.pop())
	}
	if order[0].time != 1 || order[0].seq != 2 {
		t.Errorf("first event = %+v, want t=1 seq=2 (FIFO tie-break)", order[0])
	}
	if order[1].time != 1 || order[1].seq != 3 {
		t.Errorf("second event = %+v, want t=1 seq=3", order[1])
	}
	if order[3].time != 3 {
		t.Errorf("last event = %+v, want t=3", order[3])
	}
}

func TestEventHeapOrderingProperty(t *testing.T) {
	f := func(times []uint16) bool {
		var h eventHeap
		for i, tt := range times {
			h.push(event{time: float64(tt % 100), seq: uint64(i)})
		}
		prev := -1.0
		prevSeq := uint64(0)
		for len(h) > 0 {
			e := h.pop()
			if e.time < prev {
				return false
			}
			if e.time == prev && e.seq < prevSeq {
				return false
			}
			prev, prevSeq = e.time, e.seq
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// boxedEventHeap is the event heap as it was: the same order driven by
// container/heap. It is the reference the typed heap's pop sequence is
// compared against.
type boxedEventHeap []event

func (h boxedEventHeap) Len() int           { return len(h) }
func (h boxedEventHeap) Less(i, j int) bool { return h[i].before(h[j]) }
func (h boxedEventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *boxedEventHeap) Push(x any)        { *h = append(*h, x.(event)) }
func (h *boxedEventHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// TestEventHeapMatchesContainerHeap drives random schedules — pushes and
// pops interleaved the way the event loop interleaves them, with many time
// ties — through the typed heap and through container/heap, and demands the
// same event at every pop and the same drain at the end.
func TestEventHeapMatchesContainerHeap(t *testing.T) {
	f := func(script []uint16) bool {
		var typed eventHeap
		var boxed boxedEventHeap
		seq := uint64(0)
		for _, op := range script {
			if op%3 == 0 && len(typed) > 0 {
				if typed.pop() != heap.Pop(&boxed).(event) {
					return false
				}
				continue
			}
			seq++
			ev := event{time: float64(op % 16), seq: seq, kind: eventKind(op % 6), qid: uint64(op)}
			typed.push(ev)
			heap.Push(&boxed, ev)
		}
		for len(typed) > 0 {
			if typed.pop() != heap.Pop(&boxed).(event) {
				return false
			}
		}
		return boxed.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestOptionsValidate(t *testing.T) {
	good := smallOptions(allocator.NewSQLB(), 0.5, 100)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	bad := good
	bad.Strategy = nil
	bad.Workload = nil
	bad.Duration = 0
	bad.SampleInterval = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid options accepted")
	}
	if _, err := New(bad); err == nil {
		t.Fatal("New must reject invalid options")
	}

	// A non-finite horizon never ends the event loop, and a non-finite
	// cadence puts non-finite times on the heap: each is refused by name.
	for _, tc := range []struct {
		field string
		set   func(*Options, float64)
	}{
		{"duration", func(o *Options, v float64) { o.Duration = v }},
		{"sample interval", func(o *Options, v float64) { o.SampleInterval = v }},
		{"smoothing interval", func(o *Options, v float64) { o.SmoothingInterval = v }},
	} {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			o := good
			tc.set(&o, v)
			err := o.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Errorf("%s = %v: Validate() = %v, want an error naming the field", tc.field, v, err)
			}
		}
	}
}

func TestEngineRunBasics(t *testing.T) {
	eng, err := New(smallOptions(allocator.NewSQLB(), 0.5, 200))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res := eng.Run()
	if res.IssuedQueries == 0 {
		t.Fatal("no queries issued")
	}
	if res.CompletedQueries == 0 {
		t.Fatal("no queries completed")
	}
	if res.CompletedQueries > res.IssuedQueries {
		t.Errorf("completed %d > issued %d", res.CompletedQueries, res.IssuedQueries)
	}
	if res.MeanResponseTime <= 0 {
		t.Errorf("mean response time = %v, want > 0", res.MeanResponseTime)
	}
	if res.MaxResponseTime < res.MeanResponseTime {
		t.Errorf("max %v < mean %v", res.MaxResponseTime, res.MeanResponseTime)
	}
	if res.ResponseHistogram == nil || res.ResponseHistogram.Count() != res.CompletedQueries {
		t.Errorf("response histogram count = %d, want %d",
			res.ResponseHistogram.Count(), res.CompletedQueries)
	}
	p50, p99 := res.ResponseHistogram.Quantile(0.5), res.ResponseHistogram.Quantile(0.99)
	if !(p50 > 0 && p50 <= p99) {
		t.Errorf("quantiles p50=%v p99=%v malformed", p50, p99)
	}
	if len(res.Samples) < 8 {
		t.Errorf("samples = %d, want ≈10", len(res.Samples))
	}
	if res.Method != "SQLB" {
		t.Errorf("method = %q", res.Method)
	}
	if res.DroppedQueries != 0 {
		t.Errorf("dropped = %d queries in a healthy captive run", res.DroppedQueries)
	}
	// Captive run: no departures.
	if len(res.ProviderDepartures) != 0 || len(res.ConsumerDepartures) != 0 {
		t.Error("captive participants must not depart")
	}
	if res.Final.AliveProviders != 40 || res.Final.AliveConsumers != 20 {
		t.Errorf("alive = %d/%d, want 40/20", res.Final.AliveProviders, res.Final.AliveConsumers)
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() *Result {
		eng, err := New(smallOptions(allocator.NewSQLB(), 0.6, 150))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return eng.Run()
	}
	a, b := run(), run()
	if a.IssuedQueries != b.IssuedQueries || a.CompletedQueries != b.CompletedQueries {
		t.Fatalf("issue/complete diverged: %d/%d vs %d/%d",
			a.IssuedQueries, a.CompletedQueries, b.IssuedQueries, b.CompletedQueries)
	}
	if a.MeanResponseTime != b.MeanResponseTime {
		t.Fatalf("mean response diverged: %v vs %v", a.MeanResponseTime, b.MeanResponseTime)
	}
	for i := range a.Samples {
		if a.Samples[i].Utilization.Mean != b.Samples[i].Utilization.Mean {
			t.Fatalf("sample %d diverged", i)
		}
	}
}

func TestEngineSeedSensitivity(t *testing.T) {
	optsA := smallOptions(allocator.NewSQLB(), 0.6, 150)
	optsB := optsA
	optsB.Seed = 43
	engA, _ := New(optsA)
	engB, _ := New(optsB)
	a, b := engA.Run(), engB.Run()
	if a.IssuedQueries == b.IssuedQueries && a.MeanResponseTime == b.MeanResponseTime {
		t.Error("different seeds produced identical runs (suspicious)")
	}
}

func TestEngineWorkloadScalesArrivals(t *testing.T) {
	low, _ := New(smallOptions(allocator.NewCapacityBased(), 0.2, 300))
	high, _ := New(smallOptions(allocator.NewCapacityBased(), 0.8, 300))
	rl, rh := low.Run(), high.Run()
	ratio := float64(rh.IssuedQueries) / float64(rl.IssuedQueries)
	if ratio < 3 || ratio > 5 {
		t.Errorf("80%%/20%% arrival ratio = %v, want ≈4", ratio)
	}
}

func TestEngineUtilizationTracksWorkload(t *testing.T) {
	// Under capacity-based balancing the mean utilization should sit near
	// the workload fraction (the "optimal utilization" anchor).
	eng, _ := New(smallOptions(allocator.NewCapacityBased(), 0.6, 400))
	res := eng.Run()
	got := res.Final.Utilization.Mean
	if math.Abs(got-0.6) > 0.15 {
		t.Errorf("mean utilization = %v, want ≈0.6", got)
	}
}

func TestEngineRampIncreasesUtilization(t *testing.T) {
	opts := smallOptions(allocator.NewCapacityBased(), 0, 500)
	opts.Workload = workload.Ramp{From: 0.2, To: 0.9, Duration: 500}
	eng, _ := New(opts)
	res := eng.Run()
	first := res.Samples[1].Utilization.Mean
	last := res.Samples[len(res.Samples)-1].Utilization.Mean
	if last <= first {
		t.Errorf("utilization did not rise along the ramp: %v → %v", first, last)
	}
	if res.Samples[1].WorkloadFraction >= res.Samples[len(res.Samples)-1].WorkloadFraction {
		t.Error("workload fraction not recorded as rising")
	}
}

func TestEngineZeroWorkload(t *testing.T) {
	eng, _ := New(smallOptions(allocator.NewSQLB(), 0, 50))
	res := eng.Run()
	if res.IssuedQueries != 0 {
		t.Errorf("issued %d queries at zero workload", res.IssuedQueries)
	}
}

func TestEngineDropsWhenAllProvidersGone(t *testing.T) {
	opts := smallOptions(allocator.NewSQLB(), 0.5, 100)
	eng, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, p := range eng.Population().Providers {
		p.Alive = false
	}
	res := eng.Run()
	if res.DroppedQueries == 0 {
		t.Error("expected dropped queries with no providers")
	}
	if res.CompletedQueries != 0 {
		t.Error("no queries can complete with no providers")
	}
}

func TestEngineDropsUnservedClass(t *testing.T) {
	// Heterogeneous capabilities with a class nobody serves: the mediator
	// sees an empty posting list and the engine must count the query as
	// dropped — no panic, no silent skip, and no spurious Result.Err.
	opts := smallOptions(allocator.NewSQLB(), 0.5, 120)
	opts.Config = opts.Config.WithClasses(4)
	eng, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, p := range eng.Population().Providers {
		eng.MatchIndex().Remove(p)
		p.SetCapabilities([]int{0, 1, 2}, 4) // class 3 unserved
		eng.MatchIndex().Add(p)
	}
	if got := len(eng.MatchIndex().Lookup(3)); got != 0 {
		t.Fatalf("class 3 posting = %d providers, want an empty posting list", got)
	}
	res := eng.Run()
	if res.Err != nil {
		t.Fatalf("Result.Err = %v on the expected-drop path", res.Err)
	}
	if res.DroppedQueries == 0 {
		t.Error("queries of the unserved class must be counted as dropped")
	}
	if res.CompletedQueries == 0 {
		t.Error("served classes must still complete")
	}
	if res.IssuedQueries != res.DroppedQueries+uint64(len(eng.inflight))+res.CompletedQueries {
		t.Errorf("accounting broken: issued %d != dropped %d + inflight %d + completed %d",
			res.IssuedQueries, res.DroppedQueries, len(eng.inflight), res.CompletedQueries)
	}
}

func TestEngineHeterogeneousDeterminism(t *testing.T) {
	// The indexed matchmaker with capability churn must stay seed-
	// deterministic: two identical heterogeneous runs produce the same
	// counts and samples.
	mk := func() *Result {
		opts := smallOptions(allocator.NewSQLB(), 0.7, 400)
		opts.Config = opts.Config.WithClasses(6)
		opts.Config.CapabilitySelectivity = 0.34
		opts.Config.ClassSkew = 1
		opts.Autonomy = FullAutonomy()
		eng, err := New(opts)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return eng.Run()
	}
	a, b := mk(), mk()
	if a.IssuedQueries != b.IssuedQueries || a.DroppedQueries != b.DroppedQueries ||
		a.CompletedQueries != b.CompletedQueries || a.MeanResponseTime != b.MeanResponseTime ||
		len(a.ProviderDepartures) != len(b.ProviderDepartures) {
		t.Fatalf("heterogeneous runs diverged: %+v vs %+v",
			[3]uint64{a.IssuedQueries, a.DroppedQueries, a.CompletedQueries},
			[3]uint64{b.IssuedQueries, b.DroppedQueries, b.CompletedQueries})
	}
}

func TestEngineAutonomyDepartures(t *testing.T) {
	// Under capacity-based allocation with full autonomy at high workload,
	// the paper's dynamics predict heavy provider loss; under SQLB most
	// providers stay. This is the core Figure 5(c) shape.
	mkOpts := func(s allocator.Allocator) Options {
		opts := smallOptions(s, 0.8, 1500)
		opts.Autonomy = FullAutonomy()
		return opts
	}
	engCap, _ := New(mkOpts(allocator.NewCapacityBased()))
	engSQLB, _ := New(mkOpts(allocator.NewSQLB()))
	resCap := engCap.Run()
	resSQLB := engSQLB.Run()
	if resCap.ProviderDepartureRate() <= resSQLB.ProviderDepartureRate() {
		t.Errorf("capacity-based should lose more providers: %.2f vs SQLB %.2f",
			resCap.ProviderDepartureRate(), resSQLB.ProviderDepartureRate())
	}
	for _, d := range resCap.ProviderDepartures {
		if d.Reason == model.ReasonNone {
			t.Error("departure recorded without a reason")
		}
		if d.Time < 300 {
			t.Errorf("departure at %v before the grace period", d.Time)
		}
	}
}

func TestEngineConsumerDepartureStopsArrivals(t *testing.T) {
	opts := smallOptions(allocator.NewCapacityBased(), 0.5, 600)
	opts.Autonomy = Autonomy{
		ConsumersMayLeave:    true,
		ConsumerDissatMargin: -1, // every consumer "dissatisfied" at first check
		Grace:                50,
		CheckInterval:        10,
	}
	eng, _ := New(opts)
	res := eng.Run()
	if got := len(res.ConsumerDepartures); got != 20 {
		t.Fatalf("consumer departures = %d, want all 20", got)
	}
	if res.Final.AliveConsumers != 0 {
		t.Errorf("alive consumers = %d, want 0", res.Final.AliveConsumers)
	}
	// Arrivals must stop after the consumers leave.
	perSecond := float64(res.IssuedQueries) / 600
	full := workload.ArrivalRate(0.5, eng.Population().TotalCapacity(), 140) / 600 * 600
	if perSecond > full*0.2 {
		t.Errorf("arrivals did not taper after consumer exodus: %v/s vs full %v/s", perSecond, full)
	}
}

func TestEngineStarvationReason(t *testing.T) {
	// A strategy that never selects some providers starves them.
	opts := smallOptions(allocator.NewMariposaLike(), 0.5, 1200)
	opts.Autonomy = Autonomy{ProvidersStarvation: true}
	eng, _ := New(opts)
	res := eng.Run()
	if len(res.ProviderDepartures) == 0 {
		t.Fatal("expected starvation departures under Mariposa-like")
	}
	for _, d := range res.ProviderDepartures {
		if d.Reason != model.ReasonStarvation {
			t.Errorf("unexpected reason %v with only starvation enabled", d.Reason)
		}
	}
}

func TestEngineOverutilizationReason(t *testing.T) {
	opts := smallOptions(allocator.NewMariposaLike(), 0.9, 1200)
	opts.Autonomy = Autonomy{ProvidersOverutilization: true}
	eng, _ := New(opts)
	res := eng.Run()
	for _, d := range res.ProviderDepartures {
		if d.Reason != model.ReasonOverutilization {
			t.Errorf("unexpected reason %v with only overutilization enabled", d.Reason)
		}
	}
}

func TestEngineMultiProviderQueries(t *testing.T) {
	// q.n = 2: every query goes to two providers; the response time is the
	// completion of the slower one, and consumer satisfaction divides by 2
	// (Equation 2).
	opts := smallOptions(allocator.NewSQLB(), 0.4, 300)
	opts.Config.QueryN = 2
	eng, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res := eng.Run()
	if res.CompletedQueries == 0 {
		t.Fatal("no queries completed")
	}
	// Two assignments per query: total provider work doubles relative to
	// the offered units, visible in the utilization mean (≈ 2 × 0.4).
	got := res.Final.Utilization.Mean
	if got < 0.55 || got > 1.4 {
		t.Errorf("q.n=2 utilization mean = %v, want ≈ 0.8 (double the 0.4 offered)", got)
	}
	// Per-query satisfaction caps at the two selected intentions / 2; the
	// tracker values stay in [0,1].
	for _, c := range eng.Population().Consumers {
		s := c.Tracker.Satisfaction()
		if s < 0 || s > 1 {
			t.Fatalf("consumer satisfaction %v out of range", s)
		}
	}
}

func TestEngineRampWithAutonomy(t *testing.T) {
	// Ramp + autonomy compose: "optimal utilization" follows the profile.
	opts := smallOptions(allocator.NewCapacityBased(), 0, 1200)
	opts.Workload = workload.Ramp{From: 0.3, To: 1.0, Duration: 1200}
	opts.Autonomy = FullAutonomy()
	eng, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res := eng.Run()
	if res.IssuedQueries == 0 {
		t.Fatal("ramp issued nothing")
	}
	for _, d := range res.ProviderDepartures {
		if d.Time < 300 {
			t.Errorf("departure at %v before grace", d.Time)
		}
	}
}

func TestOverThreshold(t *testing.T) {
	a := Autonomy{OverutilizationFactor: 2.2, OverutilizationFloor: 1.1}
	if got := overThreshold(a, 0.8); math.Abs(got-1.76) > 1e-9 {
		t.Errorf("threshold at 80%% = %v, want 1.76", got)
	}
	if got := overThreshold(a, 0.2); got != 1.1 {
		t.Errorf("threshold at 20%% = %v, want the 1.1 floor", got)
	}
}

func TestResultBreakdown(t *testing.T) {
	r := &Result{
		Providers: 10,
		ProviderDepartures: []Departure{
			{Reason: model.ReasonDissatisfaction, Cap: model.Low, Adapt: model.High, Interest: model.Medium},
			{Reason: model.ReasonDissatisfaction, Cap: model.Low, Adapt: model.Medium, Interest: model.Medium},
			{Reason: model.ReasonOverutilization, Cap: model.High, Adapt: model.High, Interest: model.High},
		},
	}
	bd := r.Breakdown(ByCapacity, [3]int{4, 4, 2})
	dis := bd.PerClass[model.ReasonDissatisfaction]
	if dis[model.Low] != 50 { // 2 of 4 low-capacity providers left
		t.Errorf("low-capacity dissat = %v%%, want 50", dis[model.Low])
	}
	if bd.Total[model.ReasonDissatisfaction] != 20 {
		t.Errorf("total dissat = %v%%, want 20", bd.Total[model.ReasonDissatisfaction])
	}
	over := bd.PerClass[model.ReasonOverutilization]
	if over[model.High] != 50 { // 1 of 2 high-capacity
		t.Errorf("high-capacity overutilization = %v%%, want 50", over[model.High])
	}
	if bd.Total[model.ReasonStarvation] != 0 {
		t.Errorf("starvation total = %v%%, want 0", bd.Total[model.ReasonStarvation])
	}
}

func TestClassDimensionLabels(t *testing.T) {
	if ByInterest.String() != "Cons. Interest to Prov." ||
		ByAdaptation.String() != "Providers' Adequation" ||
		ByCapacity.String() != "Providers' Capacity" {
		t.Error("unexpected Table 3 row labels")
	}
	if ClassDimension(9).String() != "unknown" {
		t.Error("out-of-range dimension must print 'unknown'")
	}
}

func TestClassTotals(t *testing.T) {
	eng, _ := New(smallOptions(allocator.NewSQLB(), 0.5, 10))
	pop := eng.Population()
	for _, dim := range ClassDimensions {
		totals := ClassTotals(pop, dim)
		if totals[0]+totals[1]+totals[2] != len(pop.Providers) {
			t.Errorf("%v totals %v do not sum to %d", dim, totals, len(pop.Providers))
		}
	}
}

func TestClampAllocSat(t *testing.T) {
	if got := clampAllocSat(math.Inf(1)); got != allocSatCap {
		t.Errorf("clamp(+Inf) = %v, want cap", got)
	}
	if got := clampAllocSat(math.NaN()); got != 0 {
		t.Errorf("clamp(NaN) = %v, want 0", got)
	}
	if got := clampAllocSat(-0.5); got != 0 {
		t.Errorf("clamp(-0.5) = %v, want 0", got)
	}
	if got := clampAllocSat(1.3); got != 1.3 {
		t.Errorf("clamp(1.3) = %v, want unchanged", got)
	}
}

func TestDepartureRates(t *testing.T) {
	r := &Result{Providers: 4, Consumers: 2,
		ProviderDepartures: []Departure{{}, {}},
		ConsumerDepartures: []Departure{{}},
	}
	if got := r.ProviderDepartureRate(); got != 0.5 {
		t.Errorf("provider departure rate = %v, want 0.5", got)
	}
	if got := r.ConsumerDepartureRate(); got != 0.5 {
		t.Errorf("consumer departure rate = %v, want 0.5", got)
	}
	empty := &Result{}
	if empty.ProviderDepartureRate() != 0 || empty.ConsumerDepartureRate() != 0 {
		t.Error("zero-population rates must be 0")
	}
}
