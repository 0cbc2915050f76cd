// Package par is the one fan-out every layer uses for independent work:
// the experiment cells, the Eq. 2 profiling grid, the scenario traces
// and the per-service calibrations. It sits below internal/core and
// internal/scenario and imports nothing of the module.
package par

import (
	"sync"
	"sync/atomic"
)

// For runs fn(i) for every i in [0, n) on at most workers goroutines;
// workers ≤ 1 runs them in order on the caller's. fn must write only
// state owned by index i (typically out[i]), so the outcome does not
// depend on which worker ran which index or in what order. A panic in
// fn reaches the caller, as it would in the serial loop: the first one
// is raised again once every worker has stopped.
func For(n, workers int, fn func(i int)) {
	w := min(workers, n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next      atomic.Int64
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicked  any
	)
	next.Store(-1)
	for range w {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					panicOnce.Do(func() { panicked = v })
				}
			}()
			for i := int(next.Add(1)); i < n; i = int(next.Add(1)) {
				fn(i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
