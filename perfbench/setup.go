package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
)

// probeReps is how many fresh processes of this program (probes) a run
// starts; setup_s and peak_rss_mb are their medians. Each probe times
// the workload's set-up as the first work it does, so every sample is a
// cold start, then does one operation of the workload untimed and
// reports its peak RSS. nproc probes run at a time, so the samples
// spread over every CPU as the timed parts do.
const probeReps = 6

// probeResult is what one probe reports: its set-up time, the digest
// of what it built, and its peak RSS.
type probeResult struct {
	setupS float64
	digest uint64
	rssMB  float64
	err    error
}

// probeOnly is the probe's side: it runs the workload's probe and
// prints the set-up seconds, the digest and the peak RSS in MB.
func probeOnly(w workload, seed int64, shards int) error {
	setupS, digest, err := w.probe(seed, shards)
	if err != nil {
		return err
	}
	fmt.Printf("%.9f %016x %.6f\n", setupS, digest, peakRSSMB())
	return nil
}

// runProbes starts probeReps probes, nproc at a time, waits for all of
// them, and books setup_s and peak_rss_mb as their medians. Each probe
// must build what the run itself built (want), or the run fails a
// check.
func runProbes(r *run, want uint64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	res := make([]probeResult, probeReps)
	slots := make(chan struct{}, runtime.NumCPU())
	var wg sync.WaitGroup
	for i := 0; i < probeReps; i++ {
		wg.Add(1)
		slots <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-slots }()
			res[i] = probe(exe, r)
		}(i)
	}
	wg.Wait()
	var setup, rss []float64
	for _, p := range res {
		if p.err != nil {
			return p.err
		}
		if p.digest != want {
			r.fail(fmt.Errorf("%s set-up in a fresh process built %016x, the run built %016x", r.workload, p.digest, want))
		}
		setup = append(setup, p.setupS)
		rss = append(rss, p.rssMB)
	}
	r.set("setup_s", median(setup))
	r.set("peak_rss_mb", median(rss))
	r.notef("probes: %d fresh processes, set-up %.3f-%.3f s, peak RSS %.1f-%.1f MB", probeReps,
		sorted(setup)[0], sorted(setup)[probeReps-1], sorted(rss)[0], sorted(rss)[probeReps-1])
	return nil
}

// probe runs one probe process to its end and reads its line.
func probe(exe string, r *run) probeResult {
	cmd := exec.Command(exe, "--workload", r.workload, "--seed", strconv.FormatInt(r.seed, 10),
		"--shards", strconv.Itoa(r.shards), "--probe")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output() // waits for the process to exit
	if err != nil {
		return probeResult{err: fmt.Errorf("probe process: %w", err)}
	}
	var p probeResult
	if _, err := fmt.Sscanf(strings.TrimSpace(string(out)), "%g %x %g", &p.setupS, &p.digest, &p.rssMB); err != nil {
		return probeResult{err: fmt.Errorf("probe process printed %q: %w", out, err)}
	}
	return p
}
