package telemetry

import "nestless/internal/parallel"

// Fan runs job(0..n-1) across at most workers goroutines (parallel.Run)
// and hands job i its own child of rec, then appends the children to
// rec in index order — so the recorded timeline is the one a serial
// loop over the jobs would have produced, at any worker count. A nil
// rec hands every job a nil recorder.
func Fan(rec *Recorder, n, workers int, job func(i int, rec *Recorder)) {
	kids := make([]*Recorder, n)
	parallel.Run(n, workers, func(i int) {
		kids[i] = rec.Child()
		job(i, kids[i])
	})
	for _, k := range kids {
		rec.Append(k)
	}
}
