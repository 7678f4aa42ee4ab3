// Package parallel fans independent simulation runs out across a worker
// pool while keeping outputs deterministic.
//
// Every experiment in nestless is a set of independent simulations: one
// private sim.Engine per run, seeded explicitly, sharing no state. That
// makes figure sweeps (message sizes × modes), repeated boot samples,
// and per-user cloud traces embarrassingly parallel — as long as the
// results are merged in a scheduling-independent order. The contract
// here is exactly that: jobs are identified by index, each job writes
// only its own slot, and callers assemble output by iterating indices
// in order. Tables produced with any worker count are byte-identical to
// a serial run at the same seed.
package parallel

import "sync"

// Run executes job(0..n-1), fanning out across at most workers
// goroutines. workers <= 1 (or n <= 1) degenerates to a plain serial
// loop with zero goroutine overhead. Jobs that record telemetry go
// through telemetry.Fan, which gives each job its own recorder.
//
// job must be self-contained per index: own engine, own scenario, own
// result slot. Run returns when every job has completed.
func Run(n, workers int, job func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	// Static index striding, not a shared channel: zero allocation per
	// job, no contention, and the assignment of jobs to workers is a
	// pure function of (n, workers) — helpful when debugging a single
	// misbehaving job.
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(start int) {
			defer wg.Done()
			for i := start; i < n; i += workers {
				job(i)
			}
		}(w)
	}
	wg.Wait()
}
