package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"reflect"
	"runtime"
	"time"

	"nestless/internal/cloud"
	"nestless/internal/cluster"
	"nestless/internal/ctrace"
	"nestless/internal/parallel"
	"nestless/internal/shard"
	"nestless/internal/sim"
	"nestless/internal/trace"
)

// The replay workload is `costsim -replay` end to end: parse an
// in-memory CSV trace of about 100k pods with ctrace and replay it with
// shard.Replay under costsim's defaults (8 worlds, 15m barrier,
// Kubernetes policy, 45s boot), with Shards = nproc and the audit on.
const (
	replayPods    = 100_000
	replayHorizon = 8 * time.Hour
	replayWorlds  = 8
	replayBarrier = 15 * time.Minute
	replayBoot    = 45 * time.Second
	// replayGap and replayLife are the mean per-user arrival gap and the
	// mean pod lifetime; replayPodsPerUser is ctracegen's population
	// sizing divisor (trace.DefaultConfig's MeanPodsPerUser).
	replayGap         = 40 * time.Minute
	replayLife        = 45 * time.Minute
	replayPodsPerUser = 6
	// worldSeedStride is shard's per-world seed stride. The traced
	// replay needs it to rebuild the worlds; the bit-for-bit comparison
	// with shard.Replay catches any drift.
	worldSeedStride = 999_983
	// minLatencySamples leaves minAbove samples above the p90.
	minLatencySamples = 100
)

// replayUsers draws the workload's population from seed the way
// `ctracegen -pods` with a -days window does: trace.DefaultConfig
// (heavy users, whales) with ctracegen's default mean lifetime, pods
// arriving after the window pruned, the population sized from the pod
// target and scaled up once if it falls short, then cut to exactly
// replayPods pods in user order. Two departures from ctracegen: the
// window is the 8h replay horizon, not whole days, and the mean arrival
// gap is replayGap (ctracegen's default is 2m), so the pods spread over
// the horizon and every barrier epoch carries work. Every pod arrives
// within the horizon, so every seed replays the same number of
// arrivals.
func replayUsers(seed int64) []trace.User {
	gen := func(users int) []trace.User {
		cfg := trace.DefaultConfig(seed)
		cfg.Users = users
		cfg.MeanArrivalGap = replayGap
		cfg.MeanLifetime = replayLife
		return pruneAfter(trace.Generate(cfg), replayHorizon)
	}
	users := (replayPods + replayPodsPerUser - 1) / replayPodsPerUser
	pop := gen(users)
	if got := countPods(pop); got < replayPods {
		pop = gen(int(float64(users)*float64(replayPods)/float64(got)*1.1) + 1)
	}
	return capPods(pop, replayPods)
}

// pruneAfter drops the pods arriving after the window, keeping each
// user's arrival stream intact up to the cut.
func pruneAfter(users []trace.User, window time.Duration) []trace.User {
	var out []trace.User
	for _, u := range users {
		var kept []trace.Pod
		for _, p := range u.Pods {
			if p.Arrival <= window {
				kept = append(kept, p)
			}
		}
		if len(kept) > 0 {
			u.Pods = kept
			out = append(out, u)
		}
	}
	return out
}

// countPods totals the population's pods.
func countPods(users []trace.User) int {
	n := 0
	for _, u := range users {
		n += len(u.Pods)
	}
	return n
}

// capPods cuts the population to its first n pods in user order.
func capPods(users []trace.User, n int) []trace.User {
	var out []trace.User
	for _, u := range users {
		if n <= 0 {
			break
		}
		if len(u.Pods) > n {
			u.Pods = u.Pods[:n]
		}
		n -= len(u.Pods)
		out = append(out, u)
	}
	return out
}

// replayInput is the encoded trace and the event counts a replay of it
// must consume.
type replayInput struct {
	csv                            []byte
	events, submits, beyondHorizon int
}

// synthReplay builds the workload input: generate, adapt, encode.
func synthReplay(seed int64) (replayInput, error) {
	src := ctrace.NewSynth(replayUsers(seed))
	var buf bytes.Buffer
	if err := ctrace.Write(&buf, src, ctrace.CSV); err != nil {
		return replayInput{}, fmt.Errorf("encode trace: %w", err)
	}
	in := replayInput{csv: buf.Bytes(), events: src.Len()}
	src.Rewind()
	for {
		ev, err := src.Next()
		if err == io.EOF {
			break
		}
		if ev.Kind == ctrace.Submit {
			in.submits++
			if ev.Time > replayHorizon {
				in.beyondHorizon++
			}
		}
	}
	return in, nil
}

// replayProbe times the workload's set-up (building the input), then
// replays it once untimed. It returns the set-up seconds and the digest
// of the encoded trace.
func replayProbe(seed int64, shards int) (float64, uint64, error) {
	t0 := time.Now()
	in, err := synthReplay(seed)
	setupS := time.Since(t0).Seconds()
	if err != nil {
		return 0, 0, err
	}
	cfg, err := replayConfig(seed, shards)
	if err != nil {
		return 0, 0, err
	}
	runtime.GC() // the pass starts from a collected heap, as the run's passes do
	if _, _, _, err := replayPass(in, cfg); err != nil {
		return 0, 0, err
	}
	return setupS, in.digest(), nil
}

// digest is the FNV-1a hash of the encoded trace.
func (in replayInput) digest() uint64 {
	h := fnv.New64a()
	h.Write(in.csv)
	return h.Sum64()
}

// replayConfig is costsim's -replay configuration with its defaults.
func replayConfig(seed int64, shards int) (shard.Config, error) {
	cl, err := cloud.Resolve(cloud.Options{})
	if err != nil {
		return shard.Config{}, err
	}
	return shard.Config{
		Worlds:       replayWorlds,
		Shards:       shards,
		BarrierEvery: replayBarrier,
		Audit:        true,
		Cluster: cluster.Config{
			Policy:       cluster.Kubernetes,
			Seed:         seed,
			Catalog:      cl.Catalog.Types,
			Horizon:      replayHorizon,
			BootDelay:    replayBoot,
			Zones:        cl.Zones,
			ZoneNames:    cl.ZoneNames,
			SpotFrac:     cl.SpotFrac,
			SpotDiscount: cl.SpotDiscount,
			Autoscaler:   cluster.Reconciler,
		},
	}, nil
}

// epochClock wraps the replay's trace source and timestamps the first
// read after the feed crosses into a new barrier epoch. The feed only
// reads past a barrier once the epoch before it is done, so the gaps
// between marks are per-epoch wall times as a reader of the trace sees
// them, measured without touching shard.Replay. Marks stop at the first
// event past the horizon: the rest of the trace is drained unsimulated.
type epochClock struct {
	src   ctrace.Source
	last  time.Duration
	mark  bool
	marks []time.Time
}

func (c *epochClock) Next() (ctrace.Event, error) {
	if c.mark {
		c.marks = append(c.marks, time.Now())
		c.mark = false
	}
	ev, err := c.src.Next()
	if err == nil {
		if epochOf(ev.Time) > epochOf(c.last) && c.last <= replayHorizon {
			c.mark = true
		}
		c.last = ev.Time
	}
	return ev, err
}

// epochOf is the barrier epoch an event at t is fed in: epochs are
// (k·barrier, (k+1)·barrier], with t = 0 in epoch 0.
func epochOf(t time.Duration) time.Duration {
	if t <= 0 {
		return 0
	}
	return (t - 1) / replayBarrier
}

// replayPass parses and replays the trace once, untraced. It returns
// the result, the wall time and the epoch latencies in ms.
func replayPass(in replayInput, cfg shard.Config) (shard.Result, time.Duration, []float64, error) {
	t0 := time.Now()
	rd, err := ctrace.NewReader(bytes.NewReader(in.csv), ctrace.Options{})
	if err != nil {
		return shard.Result{}, 0, nil, err
	}
	clock := &epochClock{src: rd, marks: []time.Time{t0}}
	res, err := shard.Replay(clock, cfg)
	wall := time.Since(t0)
	var lat []float64
	for i := 1; i < len(clock.marks); i++ {
		lat = append(lat, ms(clock.marks[i].Sub(clock.marks[i-1])))
	}
	return res, wall, lat, err
}

// checkReplay runs the output checks on one replay: the stream was
// consumed whole, the epochs and horizon split add up, the result equals
// the run's first (ref), and on the default seed the recorded values.
func checkReplay(res shard.Result, in replayInput, ref *shard.Result, seed int64) []error {
	var errs []error
	bad := func(format string, args ...interface{}) { errs = append(errs, fmt.Errorf("replay: "+format, args...)) }
	if res.Events != in.events || res.Submits != in.submits || res.Ends != in.events-in.submits {
		bad("consumed %d events (%d submits, %d ends), trace has %d (%d submits)", res.Events, res.Submits, res.Ends, in.events, in.submits)
	}
	if res.BeyondHorizon != in.beyondHorizon || res.Merged.Arrived != in.submits-in.beyondHorizon {
		bad("arrived %d + beyond horizon %d, trace has %d submits with %d past the horizon",
			res.Merged.Arrived, res.BeyondHorizon, in.submits, in.beyondHorizon)
	}
	if want := int((replayHorizon + replayBarrier - 1) / replayBarrier); res.Epochs != want {
		bad("%d epochs, want %d", res.Epochs, want)
	}
	m := res.Merged
	if m.Departed+m.Running+m.StillPending+m.Failed != m.Arrived {
		bad("departed + running + pending + failed != arrived: %+v", counters(m))
	}
	if ref != nil && (res.Digest != ref.Digest || !reflect.DeepEqual(res.Worlds, ref.Worlds)) {
		bad("digest %016x differs from the run's first replay %016x", res.Digest, ref.Digest)
	}
	if seed == defaultSeed {
		if res.Digest != expectReplay.digest || res.Epochs != expectReplay.epochs {
			bad("digest %016x / %d epochs, recorded %016x / %d", res.Digest, res.Epochs, expectReplay.digest, expectReplay.epochs)
		}
		if got := counters(m); got != expectReplay.merged {
			bad("merged counters %+v, recorded %+v", got, expectReplay.merged)
		}
	}
	return errs
}

// replayCounters are the merged counters the default seed pins.
type replayCounters struct {
	Arrived, Scheduled, Departed, Running, StillPending, Failed  int
	ScaleUps, ScaleDowns, PeakNodes, FinalNodes, ReconcileRounds int
}

func counters(m cluster.Result) replayCounters {
	return replayCounters{m.Arrived, m.Scheduled, m.Departed, m.Running, m.StillPending, m.Failed,
		m.ScaleUps, m.ScaleDowns, m.PeakNodes, m.FinalNodes, m.ReconcileRounds}
}

func replayUntraced(r *run) error {
	in, err := synthReplay(r.seed)
	if err != nil {
		return err
	}
	if err := runProbes(r, in.digest()); err != nil {
		return err
	}
	cfg, err := replayConfig(r.seed, r.shards)
	if err != nil {
		return err
	}
	var ref *shard.Result
	var lat []float64
	var pods, passes int
	var busy time.Duration
	end := r.deadline(time.Now())
	for time.Now().Before(end) || (len(lat) < minLatencySamples && r.failed == 0) {
		// Untimed: every pass starts from a collected heap, so one pass's
		// garbage does not inflate the next pass's peak RSS.
		runtime.GC()
		res, wall, epochs, err := replayPass(in, cfg)
		if err != nil {
			r.op(fmt.Errorf("replay: %w", err))
			continue
		}
		r.op(checkReplay(res, in, ref, r.seed)...)
		if ref == nil {
			ref = &res
		}
		pods += res.Merged.Arrived
		busy += wall
		passes++
		lat = append(lat, epochs...)
	}
	r.set("throughput_per_s", ratio(float64(pods), busy.Seconds()))
	r.notef("replay: %d passes at shards=%d, throughput = pods arrived / wall seconds of parse + Replay, summed over passes",
		passes, r.shards)
	r.setLatency("epoch", lat)
	return nil
}

// replayTraced measures the per-layer metrics: untraced reference
// passes (runtime counters, the wall time trace.overhead divides by), a
// parse-only pass (allocations per row) and one traced replay that
// drives the worlds through cluster's streaming API and must reproduce
// shard.Replay bit for bit.
func replayTraced(r *run) error {
	in, err := synthReplay(r.seed)
	if err != nil {
		return err
	}
	cfg, err := replayConfig(r.seed, r.shards)
	if err != nil {
		return err
	}
	var ref *shard.Result
	var walls []float64
	before := readMem()
	for i := 0; i < 2; i++ {
		res, wall, _, err := replayPass(in, cfg)
		if err != nil {
			return fmt.Errorf("untraced replay: %w", err)
		}
		r.op(checkReplay(res, in, ref, r.seed)...)
		if ref == nil {
			ref = &res
		}
		walls = append(walls, wall.Seconds())
	}
	r.setRuntime(before, readMem(), len(walls))

	rows, allocs, err := parseOnly(in)
	if err != nil {
		return err
	}
	r.set("ctrace.allocs_per_row", ratio(allocs, float64(rows)))

	tr := newTracer()
	got, st, err := tracedReplay(in, cfg, tr)
	if err != nil {
		return fmt.Errorf("traced replay: %w", err)
	}
	spans := tr.Spans()
	var errs []error
	if got.Digest != ref.Digest || got.Epochs != ref.Epochs || got.Events != ref.Events ||
		got.Submits != ref.Submits || got.Ends != ref.Ends || got.BeyondHorizon != ref.BeyondHorizon ||
		!reflect.DeepEqual(got.Worlds, ref.Worlds) {
		errs = append(errs, fmt.Errorf("trace rejected: traced replay digest %016x / %d epochs does not reproduce shard.Replay %016x / %d",
			got.Digest, got.Epochs, ref.Digest, ref.Epochs))
	}
	total := st.root.Seconds()
	parse := sumDur(spans, "ctrace.Reader.Next").Seconds()
	advance := sumDur(spans, "cluster.Advance").Seconds()
	serial := total - sumDur(spans, "shard.advance").Seconds()
	r.set("ctrace.parse_s", parse)
	r.set("ctrace.rows", float64(st.rows))
	r.set("ctrace.ns_per_row", ratio(parse*1e9, float64(st.rows)))
	r.set("shard.feed_s", sumDur(spans, "shard.feed").Seconds())
	r.set("shard.advance_s", advance)
	r.set("shard.advance_crit_s", st.crit.Seconds())
	r.set("shard.digest_s", sumDur(spans, "shard.digest").Seconds())
	r.set("shard.finish_s", sumDur(spans, "shard.finish").Seconds())
	r.set("shard.serial_frac", ratio(serial, total))
	r.set("shard.imbalance", ratio(st.crit.Seconds(), advance/float64(cfg.Shards)))
	r.set("shard.speedup_bound", ratio(serial+advance, serial+st.crit.Seconds()))
	r.set("shard.epochs", float64(got.Epochs))
	r.set("shard.events", float64(got.Events))
	r.setClusterCounts(got.Worlds)
	r.set("trace.overhead", ratio(total, median(walls)))
	errs = append(errs, r.setTraceMetrics("replay", spans, 0)) // the root is the tracer's first span
	r.op(errs...)
	return nil
}

// parseOnly drains the trace through a Reader alone and returns the
// rows read and the heap objects allocated meanwhile.
func parseOnly(in replayInput) (int, float64, error) {
	before := readMem()
	rd, err := ctrace.NewReader(bytes.NewReader(in.csv), ctrace.Options{})
	if err != nil {
		return 0, 0, err
	}
	for {
		if _, err := rd.Next(); err == io.EOF {
			break
		} else if err != nil {
			return 0, 0, err
		}
	}
	return rd.Stats().Rows, readMem().allocObjects - before.allocObjects, nil
}

// tracedStats are the traced replay's figures that are not span sums.
type tracedStats struct {
	root time.Duration // traced wall time
	crit time.Duration // sum over epochs of the slowest stripe's advance
	rows int
}

// tracedReplay replays the trace through cluster's streaming API in
// shard's serial feed order — New and Start per world, then per epoch a
// feed, an advance of every world (in parallel, world w on stripe w mod
// Shards, as parallel.Run assigns them), a digest fold, and finally the
// tail drain, Finish and the audit — with a span around every call.
func tracedReplay(in replayInput, cfg shard.Config, tr *Tracer) (shard.Result, tracedStats, error) {
	var res shard.Result
	var st tracedStats
	root := tr.Begin("perfbench.replay", "bench", -1)
	sp := tr.Begin("ctrace.NewReader", "ctrace", root)
	rd, err := ctrace.NewReader(bytes.NewReader(in.csv), ctrace.Options{})
	tr.End(sp)
	if err != nil {
		return res, st, err
	}
	worlds := make([]*cluster.Cluster, cfg.Worlds)
	for w := range worlds {
		wcfg := cfg.Cluster
		wcfg.Seed = cfg.Cluster.Seed + int64(w)*worldSeedStride
		sp := tr.Begin("cluster.New", "cluster", root)
		worlds[w] = cluster.New(wcfg)
		tr.End(sp)
		sp = tr.Begin("cluster.Start", "cluster", root)
		worlds[w].Start()
		tr.End(sp)
	}
	var held ctrace.Event
	hasHeld, eof := false, false
	next := func(parent int) (ctrace.Event, bool, error) {
		if hasHeld {
			hasHeld = false
			return held, true, nil
		}
		sp := tr.Begin("ctrace.Reader.Next", "ctrace", parent)
		ev, err := rd.Next()
		tr.End(sp)
		if err == io.EOF {
			eof = true
			return ev, false, nil
		}
		return ev, err == nil, err
	}
	book := func(ev ctrace.Event) {
		res.Events++
		if ev.Kind == ctrace.Submit {
			res.Submits++
		} else {
			res.Ends++
		}
	}
	horizon := worlds[0].Horizon()
	stripes := make([]time.Duration, cfg.Shards)
	advance := make([]time.Duration, cfg.Worlds)
	for t := sim.Time(0); t < horizon; {
		end := t + sim.Time(cfg.BarrierEvery)
		if end > horizon {
			end = horizon
		}
		feed := tr.Begin("shard.feed", "shard", root)
		for !eof {
			ev, ok, err := next(feed)
			if err != nil {
				return res, st, err
			}
			if !ok {
				break
			}
			if sim.Time(ev.Time) > end {
				held, hasHeld = ev, true
				break
			}
			book(ev)
			w := ctrace.Partition(ev, cfg.Worlds)
			sp := tr.Begin("cluster.FeedEvent", "cluster", feed)
			err = worlds[w].FeedEvent(ev)
			tr.End(sp)
			if err != nil {
				return res, st, err
			}
		}
		tr.End(feed)

		adv := tr.Begin("shard.advance", "shard", root)
		parallel.Run(cfg.Worlds, cfg.Shards, func(w int) {
			t0 := time.Now()
			sp := tr.Begin("cluster.Advance", "cluster", adv)
			worlds[w].Advance(end)
			tr.End(sp)
			advance[w] = time.Since(t0)
		})
		tr.End(adv)
		clear(stripes)
		for w, d := range advance {
			stripes[w%cfg.Shards] += d
		}
		slowest := stripes[0]
		for _, d := range stripes {
			if d > slowest {
				slowest = d
			}
		}
		st.crit += slowest

		dg := tr.Begin("shard.digest", "shard", root)
		res.Epochs++
		for w := range worlds {
			sp := tr.Begin("cluster.Digest", "cluster", dg)
			d := worlds[w].Digest()
			tr.End(sp)
			res.Digest = fold(res.Digest, d)
		}
		tr.End(dg)
		t = end
	}

	tail := tr.Begin("shard.drain_tail", "shard", root)
	for {
		ev, ok, err := next(tail)
		if err != nil {
			return res, st, err
		}
		if !ok {
			break
		}
		book(ev)
		if ev.Kind == ctrace.Submit {
			res.BeyondHorizon++
			worlds[ctrace.Partition(ev, cfg.Worlds)].NoteBeyondHorizon()
		}
	}
	tr.End(tail)

	fin := tr.Begin("shard.finish", "shard", root)
	res.Worlds = make([]cluster.Result, cfg.Worlds)
	for w := range worlds {
		sp := tr.Begin("cluster.Finish", "cluster", fin)
		res.Worlds[w] = worlds[w].Finish()
		tr.End(sp)
		sp = tr.Begin("cluster.Leaks", "cluster", fin)
		leaks := worlds[w].Leaks()
		tr.End(sp)
		if len(leaks) > 0 {
			return res, st, fmt.Errorf("world %d leaks: %v", w, leaks)
		}
	}
	tr.End(fin)
	tr.End(root)
	spans := tr.Spans()
	st.root = spans[root].End - spans[root].Start
	st.rows = rd.Stats().Rows
	return res, st, nil
}

// fold is shard's digest fold: FNV-1a over the world digest's bytes.
func fold(h, v uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	if h == 0 {
		h = offset
	}
	for s := 0; s < 64; s += 8 {
		h ^= (v >> s) & 0xff
		h *= prime
	}
	return h
}
