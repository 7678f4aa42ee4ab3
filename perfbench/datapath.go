package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nestless/internal/figures"
	"nestless/internal/netperf"
	"nestless/internal/netsim"
	"nestless/internal/scenario"
	"nestless/internal/sim"
)

// The datapath workload sweeps the packet-level datapaths behind Figs.
// 4, 10 and 11 serially: seven micro topologies, each running
// TCP_STREAM then UDP_RR with the windows of BenchmarkFig4BrFusionMicro
// and BenchmarkFig10HostloMicro, then the Fig. 11 memcached macro run.
// The timed part runs one such sweeper per CPU.

// cell is one micro topology's outcome and timings.
type cell struct {
	mbps              float64
	rttUS             int64
	bytes, tx         int
	steps             uint64 // engine events executed by the two netperf runs
	build, stream, rr time.Duration
}

// sweep is one pass over every datapath.
type sweep struct {
	cells     []cell
	fig11     uint64 // hash of the Fig. 11 table
	fig11Rows int
	fig11Time time.Duration
	wall      time.Duration
}

// runCell builds one topology and runs both netperf tests on it.
func runCell(mode string, seed int64, tr *Tracer, parent int) (cell, error) {
	var c cell
	var eng *sim.Engine
	var client, server *netsim.NetNS
	var dial netsim.IPv4
	msg := 1024
	t0 := time.Now()
	if m, ok := strings.CutPrefix(mode, "fig4-"); ok {
		sp := tr.Begin("scenario.NewServerClient", "scenario", parent)
		sc, err := scenario.NewServerClient(seed, scenario.Mode(m), 5001, 7001)
		tr.End(sp)
		if err != nil {
			return c, fmt.Errorf("%s: %w", mode, err)
		}
		eng, client, server, dial, msg = sc.Eng, sc.Client, sc.ServerNS, sc.DialAddr, 1280
	} else {
		sp := tr.Begin("scenario.NewPodPair", "scenario", parent)
		pp, err := scenario.NewPodPair(seed, scenario.CCMode(strings.TrimPrefix(mode, "fig10-")), 5001, 7001)
		tr.End(sp)
		if err != nil {
			return c, fmt.Errorf("%s: %w", mode, err)
		}
		eng, client, server, dial = pp.Eng, pp.ANS, pp.BNS, pp.DialAddr
	}
	t1 := time.Now()
	steps := eng.Steps
	sp := tr.Begin("netperf.RunTCPStream", "netperf", parent)
	tp := netperf.RunTCPStream(eng, netperf.StreamConfig{
		Client: client, Server: server, DialAddr: dial, Port: 5001, MsgSize: msg,
		Warmup: 10 * time.Millisecond, Duration: 40 * time.Millisecond,
	})
	tr.End(sp)
	t2 := time.Now()
	sp = tr.Begin("netperf.RunUDPRR", "netperf", parent)
	rr := netperf.RunUDPRR(eng, netperf.RRConfig{
		Client: client, Server: server, DialAddr: dial, Port: 7001, MsgSize: msg,
		Duration: 30 * time.Millisecond,
	})
	tr.End(sp)
	t3 := time.Now()
	return cell{
		mbps: tp.ThroughputMbps, rttUS: rr.MeanRTT.Microseconds(), bytes: tp.Bytes, tx: rr.Transactions,
		steps: eng.Steps - steps, build: t1.Sub(t0), stream: t2.Sub(t1), rr: t3.Sub(t2),
	}, nil
}

// runSweep runs every micro topology and then Fig. 11.
func runSweep(seed int64, tr *Tracer, parent int) (sweep, error) {
	var s sweep
	t0 := time.Now()
	for _, mode := range datapathModes {
		c, err := runCell(mode, seed, tr, parent)
		if err != nil {
			return s, err
		}
		s.cells = append(s.cells, c)
	}
	t1 := time.Now()
	sp := tr.Begin("figures.Fig11", "figures", parent)
	tab := figures.Fig11(figures.Opts{Seed: seed, Quick: true, Workers: 1})
	tr.End(sp)
	s.fig11Time = time.Since(t1)
	s.fig11Rows = len(tab.Rows)
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\n%q\n", tab.Title, tab.Header)
	for _, row := range tab.Rows {
		fmt.Fprintf(h, "%q\n", row)
	}
	s.fig11 = h.Sum64()
	s.wall = time.Since(t0)
	return s, nil
}

// checkSweep books one operation per figure cell and one for Fig. 11,
// each checked for sane values, for equality with the run's first sweep
// (ref) and, on the default seed, with the recorded values.
func (r *run) checkSweep(s sweep, ref *sweep) {
	for i, c := range s.cells {
		mode := datapathModes[i]
		var errs []error
		if c.mbps <= 0 || c.rttUS <= 0 || c.bytes <= 0 || c.tx <= 0 || c.steps == 0 {
			errs = append(errs, fmt.Errorf("datapath %s: %.1f Mbps, %d µs rtt, %d bytes, %d transactions, %d events", mode, c.mbps, c.rttUS, c.bytes, c.tx, c.steps))
		}
		if ref != nil && (c.mbps != ref.cells[i].mbps || c.rttUS != ref.cells[i].rttUS || c.steps != ref.cells[i].steps) {
			errs = append(errs, fmt.Errorf("datapath %s: %.1f Mbps / %d µs differs from the run's first sweep %.1f / %d", mode, c.mbps, c.rttUS, ref.cells[i].mbps, ref.cells[i].rttUS))
		}
		if r.seed == defaultSeed {
			want := expectDatapath[mode]
			if got := fmt.Sprintf("%.1f", c.mbps); got != want.mbps || c.rttUS != want.rttUS {
				errs = append(errs, fmt.Errorf("datapath %s: %s Mbps / %d µs, recorded %s / %d", mode, got, c.rttUS, want.mbps, want.rttUS))
			}
		}
		r.op(errs...)
	}
	var errs []error
	if s.fig11Rows != 4 {
		errs = append(errs, fmt.Errorf("datapath fig11: %d rows, want 4", s.fig11Rows))
	}
	if ref != nil && s.fig11 != ref.fig11 {
		errs = append(errs, fmt.Errorf("datapath fig11: table hash %016x differs from the run's first sweep %016x", s.fig11, ref.fig11))
	}
	if r.seed == defaultSeed && s.fig11 != expectFig11 {
		errs = append(errs, fmt.Errorf("datapath fig11: table hash %016x, recorded %016x", s.fig11, uint64(expectFig11)))
	}
	r.op(errs...)
}

// cellLatencies lists a sweep's figure-cell times in ms: each topology
// from build to the end of UDP_RR, and the Fig. 11 run.
func cellLatencies(s sweep) []float64 {
	var out []float64
	for _, c := range s.cells {
		out = append(out, ms(c.build+c.stream+c.rr))
	}
	return append(out, ms(s.fig11Time))
}

// datapathProbe times the workload's set-up, one serial sweep, which
// is also its one operation. It returns the set-up seconds and the
// sweep's digest.
func datapathProbe(seed int64, _ int) (float64, uint64, error) {
	s, err := runSweep(seed, nil, -1)
	return s.wall.Seconds(), s.digest(), err
}

// digest is the FNV-1a hash of a sweep's outputs.
func (s sweep) digest() uint64 {
	h := fnv.New64a()
	for _, c := range s.cells {
		fmt.Fprintf(h, "%x %d %d %d %d\n", math.Float64bits(c.mbps), c.rttUS, c.bytes, c.tx, c.steps)
	}
	fmt.Fprintf(h, "%x %d\n", s.fig11, s.fig11Rows)
	return h.Sum64()
}

// serialSweeps runs n sweeps one after another, checks them, and
// returns the first and the median sweep time.
func serialSweeps(r *run, n int) (sweep, float64, error) {
	var first sweep
	var times []float64
	for i := 0; i < n; i++ {
		s, err := runSweep(r.seed, nil, -1)
		if err != nil {
			return first, 0, err
		}
		if i == 0 {
			first = s
			r.checkSweep(s, nil)
		} else {
			r.checkSweep(s, &first)
		}
		times = append(times, s.wall.Seconds())
	}
	return first, median(times), nil
}

func datapathUntraced(r *run) error {
	ref, _, err := serialSweeps(r, 1)
	if err != nil {
		return err
	}
	if err := runProbes(r, ref.digest()); err != nil {
		return err
	}
	t0 := time.Now()
	sweeps, err := sweepLoop(r.seed, r.deadline(t0))
	wall := time.Since(t0)
	if err != nil {
		return err
	}
	var lat []float64
	for _, s := range sweeps {
		r.checkSweep(s, &ref)
		lat = append(lat, cellLatencies(s)...)
	}
	r.set("throughput_per_s", ratio(float64(len(sweeps)), wall.Seconds()))
	r.notef("datapath: %d warm sweeps of %d topologies + Fig. 11 by %d sweepers in %.3f s; throughput = sweeps / wall seconds of the loop",
		len(sweeps), len(datapathModes), runtime.NumCPU(), wall.Seconds())
	r.setLatency("figure cell", lat)
	return nil
}

// sweepLoop runs nproc sweepers, each sweeping serially, until the
// deadline has passed and the sweeps hold minLatencySamples figure
// cells. One sweeper per CPU keeps every CPU busy, so a run does not
// hang on how fast the one CPU a serial sweep landed on happened to
// be.
func sweepLoop(seed int64, end time.Time) ([]sweep, error) {
	workers := runtime.NumCPU()
	minSweeps := int64((minLatencySamples + len(datapathModes)) / (len(datapathModes) + 1))
	var count atomic.Int64
	sweeps := make([][]sweep, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(end) || count.Load() < minSweeps {
				s, err := runSweep(seed, nil, -1)
				if err != nil {
					errs[w] = err
					return
				}
				sweeps[w] = append(sweeps[w], s)
				count.Add(1)
			}
		}(w)
	}
	wg.Wait()
	var all []sweep
	for w := range sweeps {
		if errs[w] != nil {
			return nil, errs[w]
		}
		all = append(all, sweeps[w]...)
	}
	return all, nil
}

// datapathTraced measures the per-layer metrics: untraced serial
// sweeps (runtime counters, the sweep time trace.overhead divides by),
// then traced sweeps with a span around every scenario, netperf
// and figures call. Per-mode figures are medians over the traced sweeps.
func datapathTraced(r *run) error {
	const tracedSweeps = 3
	before := readMem()
	ref, untraced, err := serialSweeps(r, tracedSweeps)
	if err != nil {
		return err
	}
	r.setRuntime(before, readMem(), tracedSweeps*(len(datapathModes)+1))

	tr := newTracer()
	root := tr.Begin("perfbench.datapath", "bench", -1)
	var sweeps []sweep
	for i := 0; i < tracedSweeps; i++ {
		s, err := runSweep(r.seed, tr, root)
		if err != nil {
			return err
		}
		r.checkSweep(s, &ref)
		sweeps = append(sweeps, s)
	}
	tr.End(root)
	spans := tr.Spans()

	for i, mode := range datapathModes {
		var build, stream, rr, nsPerEvent []float64
		for _, s := range sweeps {
			c := s.cells[i]
			build = append(build, ms(c.build))
			stream = append(stream, ms(c.stream))
			rr = append(rr, ms(c.rr))
			nsPerEvent = append(nsPerEvent, ratio(float64(c.stream+c.rr), float64(c.steps)))
		}
		r.set("scenario.build_ms."+mode, median(build))
		r.set("netperf.stream_ms."+mode, median(stream))
		r.set("netperf.rr_ms."+mode, median(rr))
		r.set("sim.events."+mode, float64(sweeps[0].cells[i].steps))
		r.set("sim.ns_per_event."+mode, median(nsPerEvent))
	}
	var fig11 []float64
	for _, s := range sweeps {
		fig11 = append(fig11, ms(s.fig11Time))
	}
	r.set("figures.fig11_ms", median(fig11))
	traced := (spans[root].End - spans[root].Start).Seconds() / tracedSweeps
	r.set("trace.overhead", ratio(traced, untraced))
	if err := r.setTraceMetrics("datapath", spans, root); err != nil {
		r.fail(err)
	}
	return nil
}
