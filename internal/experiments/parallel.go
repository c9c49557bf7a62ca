package experiments

import "sync"

// fanOut runs fn(0) … fn(n-1) concurrently, each holding one slot of the
// lab's worker budget while it runs, and returns the lowest-index error.
// Callers write results into index-addressed slots, so the outcome is
// independent of scheduling order — the property the determinism tests
// pin down. Only leaf work (a single simulation run) holds a slot; the
// goroutines that fan bundles out never do, so nested fan-outs (sweep
// points over repetitions) cannot deadlock the budget.
func (l *Lab) fanOut(n int, fn func(i int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.sem <- struct{}{}
			defer func() { <-l.sem }()
			errs[i] = fn(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// warm calls fn(0) … fn(n-1) concurrently and waits for them all. An
// experiment warms the memoized bundles it reads this way, so their
// repetitions interleave across the worker budget instead of draining one
// bundle before the next starts. Errors are left in the memo cells; the
// serial assembly pass that follows surfaces them in deterministic order.
func warm(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}
