package cluster_test

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"nestless/internal/cloudsim"
	"nestless/internal/cluster"
	"nestless/internal/ctrace"
	"nestless/internal/faults"
	"nestless/internal/golden"
	"nestless/internal/sim"
	"nestless/internal/telemetry"
	"nestless/internal/trace"
)

// The golden suite: the capacity index, the heap pending queue and the
// index-backed neighborhood selection must reproduce the reference
// digests in testdata/golden.txt byte for byte — same final world
// digest, same Result (placements, fleet composition, costs,
// trajectories), same telemetry trace and metrics table — under churn,
// node kills and fault schedules, for every scheduling regime. The
// corpus was recorded while the linear-scan reference scheduler still
// existed, with every case asserted identical to it; "byte-identical
// placement" is the whole contract of the indexed core, and these tests
// are what pins it. The packing cache's entries are also checked
// against fresh optimizer calls directly.

// policyModes are the two scheduling regimes the suite covers: the
// Kubernetes baseline and Hostlo, whose optimizer picks incremental or
// full-fleet passes from the dirty fraction alone.
var policyModes = []struct {
	name   string
	adjust func(*cluster.Config)
}{
	{"kubernetes", func(c *cluster.Config) { c.Policy = cluster.Kubernetes }},
	{"hostlo", func(c *cluster.Config) { c.Policy = cluster.Hostlo }},
}

// goldenPath is the recorded corpus the lifecycle cases are pinned to.
const goldenPath = "testdata/golden.txt"

// lifecycleRun is one audited, recorded lifecycle run.
type lifecycleRun struct {
	world *cluster.Cluster // finished at its horizon
	res   cluster.Result
	line  string // golden corpus entry, telemetry included
}

// runRecorded is the one audited path every lifecycle test world runs
// through. It attaches a telemetry recorder, then Starts the world and
// Advances it to each trajectory instant k·H/12 (k = 1..12), calling
// Leaks at every one, then Finishes it and calls Leaks once more, so
// the finished books' conservation is audited too. A failure names the
// first instant whose audit found a violation, after the world's name.
func runRecorded(t *testing.T, name string, cfg cluster.Config) lifecycleRun {
	t.Helper()
	rec := telemetry.New()
	cfg.Rec = rec
	c := cluster.New(cfg)
	c.Start()
	horizon := c.Horizon()
	audit := func(at string) {
		t.Helper()
		if leaks := c.Leaks(); len(leaks) != 0 {
			t.Fatalf("%s: %s: leaks:\n  %s", name, at, strings.Join(leaks, "\n  "))
		}
	}
	for k := sim.Time(1); k <= 12; k++ {
		at := k * (horizon / 12)
		c.Advance(at)
		audit(fmt.Sprintf("t=%v", time.Duration(at)))
	}
	c.Advance(horizon)
	res := c.Finish()
	audit("finished")
	return lifecycleRun{world: c, res: res, line: golden.Line(c.Digest(), res, rec)}
}

// goldenCase is one row of the lifecycle golden table: the corpus line
// it must reproduce, its world, and an optional check on the result.
type goldenCase struct {
	name  string // corpus line; the segment before the first '/' names the subtest
	cfg   cluster.Config
	check func(cluster.Result) error
}

// engaged is the usual post-check: the case must still exercise the
// path it was recorded for, which count tallies.
func engaged(what string, count func(cluster.Result) int) func(cluster.Result) error {
	return func(res cluster.Result) error {
		if count(res) == 0 {
			return fmt.Errorf("no %s — the case no longer exercises that path", what)
		}
		return nil
	}
}

// TestLifecycleGolden runs every recorded lifecycle world through the
// audited path and against its corpus line: seeded churn in both
// regimes (churn/), churn under node kills and provisioning faults
// (faults/), pods wider than the largest machine, which only Hostlo can
// split (split/), the reconciler's one-zone on-demand configuration,
// recorded while the imperative demand loop it replaced still ran
// (reconciler/), spot revocation across three zones (spot/), the
// grouped repack under kills and wide pods (repack/), and a large
// long-lived base fleet with a trickle of short-lived pods churning a
// few nodes at a time, which keeps the dirty fraction under the
// full-fleet threshold and so drives incremental passes and the
// neighborhood selection (incremental/).
func TestLifecycleGolden(t *testing.T) {
	var cases []goldenCase
	sweep := func(name string, cfg cluster.Config, check func(cluster.Result) error) {
		for _, mode := range policyModes {
			c := cfg
			mode.adjust(&c)
			cases = append(cases, goldenCase{name + "/" + mode.name, c, check})
		}
	}
	scheduled := engaged("pod scheduled", func(r cluster.Result) int { return r.Scheduled })
	for _, seed := range []int64{1, 2, 3, 4} {
		for ui, u := range trace.Generate(churnConfig(seed, 6)) {
			if ui%2 == 0 { // half the users keeps the sweep fast
				sweep(fmt.Sprintf("churn/s%d/u%d", seed, ui),
					cluster.Config{Seed: seed, Pods: u.Pods, Horizon: 4 * time.Hour, BootDelay: 30 * time.Second}, scheduled)
			}
		}
	}
	users := trace.Generate(churnConfig(17, 6))
	for si, spec := range []string{
		"node/*:crash:p=0.03",
		"node/n0:crash:n=1;node/provision:fail:p=0.2",
		"node/*:crash:p=0.01;node/provision:delay:n=2:d=90s",
	} {
		sweep(fmt.Sprintf("faults/%d", si), cluster.Config{
			Seed: int64(100 + si), Pods: users[si].Pods,
			Horizon: 6 * time.Hour, BootDelay: 45 * time.Second, Faults: mustSpec(t, spec),
		}, engaged("node kill", func(r cluster.Result) int { return r.Kills }))
	}
	split := cluster.Config{Seed: 5, Pods: splitPods(), Horizon: 5 * time.Hour, BootDelay: 30 * time.Second}
	split.Policy = cluster.Hostlo
	cases = append(cases, goldenCase{"split/hostlo", split, func(res cluster.Result) error {
		if res.Failed != 0 || res.Scheduled != len(split.Pods) {
			return fmt.Errorf("scheduled %d of %d pods, %d failed — split placement did not engage",
				res.Scheduled, len(split.Pods), res.Failed)
		}
		return nil
	}})
	split.Policy = cluster.Kubernetes
	cases = append(cases, goldenCase{"split/kubernetes", split, func(res cluster.Result) error {
		if res.Failed != 4 {
			return fmt.Errorf("failed %d, want the 4 wide pods", res.Failed)
		}
		return nil
	}})
	for _, seed := range []int64{1, 9} {
		users := trace.Generate(churnConfig(seed, 6))
		sweep(fmt.Sprintf("reconciler/s%d", seed), cluster.Config{
			Seed: seed, Pods: users[int(seed)%len(users)].Pods, Horizon: 4 * time.Hour, BootDelay: 30 * time.Second,
		}, engaged("reconcile round", func(r cluster.Result) int { return r.ReconcileRounds }))
	}
	users = trace.Generate(churnConfig(21, 4))
	for _, seed := range []int64{2, 5} {
		cases = append(cases, goldenCase{fmt.Sprintf("spot/s%d", seed), spotChaosConfig(t, seed, users[seed%4].Pods),
			engaged("spot revocation", func(r cluster.Result) int { return r.SpotRevocations })})
	}
	cases = append(cases, goldenCase{"repack/hostlo", cluster.Config{
		Seed: 23, Pods: repackWorkload(23), Policy: cluster.Hostlo,
		Horizon: 6 * time.Hour, BootDelay: 30 * time.Second, Faults: mustSpec(t, "node/*:crash:p=0.02"),
	}, func(res cluster.Result) error {
		// With no knob left to force one, only the dirty fraction
		// selects a full-fleet pass: both kinds must occur.
		if res.OptimizerFull == 0 || res.OptimizerFull == res.OptimizerRuns {
			return fmt.Errorf("%d of %d passes were full-fleet — want both kinds", res.OptimizerFull, res.OptimizerRuns)
		}
		if res.OptimizerGroups < 2 || res.Kills == 0 {
			return fmt.Errorf("%d candidate groups, %d kills — the grouping or the fault path went unexercised",
				res.OptimizerGroups, res.Kills)
		}
		return nil
	}})
	var pods []trace.Pod
	for i := 0; i < 200; i++ {
		pods = append(pods, trace.Pod{ID: fmt.Sprintf("base%d", i), Containers: []trace.Container{{CPU: 0.22, Mem: 0.22}}})
	}
	for i := 0; i < 12; i++ {
		pods = append(pods, trace.Pod{ID: fmt.Sprintf("churn%d", i), Arrival: time.Duration(i+1) * 12 * time.Minute,
			Lifetime: 25 * time.Minute, Containers: []trace.Container{{CPU: 0.2, Mem: 0.2}}})
	}
	cases = append(cases, goldenCase{"incremental/hostlo", cluster.Config{
		Seed: 11, Pods: pods, Policy: cluster.Hostlo, Horizon: 6 * time.Hour, BootDelay: 30 * time.Second,
	}, func(res cluster.Result) error {
		if res.OptimizerRuns == res.OptimizerFull {
			return fmt.Errorf("all %d passes were full-fleet — the incremental policy never engaged", res.OptimizerRuns)
		}
		return nil
	}})

	for len(cases) > 0 {
		prefix, _, _ := strings.Cut(cases[0].name, "/")
		n := 1
		for n < len(cases) && strings.HasPrefix(cases[n].name, prefix+"/") {
			n++
		}
		group := cases[:n]
		cases = cases[n:]
		t.Run(prefix, func(t *testing.T) {
			g := golden.Open(t, goldenPath, prefix+"/")
			for _, c := range group {
				run := runRecorded(t, c.name, c.cfg)
				g.Check(c.name, run.line)
				if c.check == nil {
					continue
				}
				if err := c.check(run.res); err != nil {
					t.Errorf("%s: %v", c.name, err)
				}
			}
		})
	}
}

// splitPods is the split-placement workload: four pods wider than the
// largest machine (1.6 rel CPU against 1.0), in 8 containers of 0.2,
// with a few small pods churning around them.
func splitPods() []trace.Pod {
	var pods []trace.Pod
	for i := 0; i < 4; i++ {
		var ctrs []trace.Container
		for j := 0; j < 8; j++ {
			ctrs = append(ctrs, trace.Container{CPU: 0.2, Mem: 0.2})
		}
		pods = append(pods, trace.Pod{
			ID:         fmt.Sprintf("wide%d", i),
			Arrival:    time.Duration(i) * 10 * time.Minute,
			Lifetime:   90 * time.Minute,
			Containers: ctrs,
		})
	}
	for i := 0; i < 6; i++ {
		pods = append(pods, trace.Pod{
			ID:         fmt.Sprintf("small%d", i),
			Arrival:    time.Duration(i) * 7 * time.Minute,
			Lifetime:   40 * time.Minute,
			Containers: []trace.Container{{CPU: 0.01, Mem: 0.01}},
		})
	}
	return pods
}

// mustSpec parses a fault spec or fails the test.
func mustSpec(t *testing.T, spec string) *faults.Schedule {
	t.Helper()
	sched, err := faults.ParseSpec(spec)
	if err != nil {
		t.Fatalf("spec %q: %v", spec, err)
	}
	return sched
}

// TestStreamLeakFree audits the streaming books directly: feed, run,
// then run the leak checker, including an end event that catches its
// pod still pending (huge BootDelay keeps the queue backed up) and one
// for a pod the world never admitted.
func TestStreamLeakFree(t *testing.T) {
	rec := telemetry.New()
	cfg := cluster.Config{
		Policy:    cluster.Kubernetes,
		Horizon:   2 * time.Hour,
		BootDelay: 30 * time.Minute, // pods wait; ends hit pending pods
		Rec:       rec,
	}
	c := cluster.New(cfg)
	c.Start()
	evs := []ctrace.Event{
		{Time: 1 * time.Minute, Kind: ctrace.Submit, Pod: "a", User: "u1",
			Containers: []trace.Container{{CPU: 0.1, Mem: 0.1}}},
		{Time: 2 * time.Minute, Kind: ctrace.Submit, Pod: "b", User: "u1",
			Containers: []trace.Container{{CPU: 0.2, Mem: 0.2}}},
		{Time: 5 * time.Minute, Kind: ctrace.Kill, Pod: "b", User: "u1"}, // still pending
		{Time: 6 * time.Minute, Kind: ctrace.Finish, Pod: "ghost", User: "u1"},
		{Time: 90 * time.Minute, Kind: ctrace.Finish, Pod: "a", User: "u1"},
	}
	for _, ev := range evs {
		if err := c.FeedEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	c.Advance(sim.Time(cfg.Horizon))
	res := c.Finish()
	if leaks := c.Leaks(); len(leaks) > 0 {
		t.Fatalf("leaks: %v", leaks)
	}
	if res.Arrived != 2 || res.Departed != 2 {
		t.Fatalf("result: %+v", res)
	}
	golden.Open(t, goldenPath, "stream-leak/").Check("stream-leak/kubernetes", golden.Line(c.Digest(), res, rec))
}

// repackWorkload builds a churned mixed-size workload (including pods
// wider than the largest machine) big enough that incremental passes
// carry several per-type candidate groups — the shape that actually
// exercises the per-type grouping and the packing cache.
func repackWorkload(seed int64) []trace.Pod {
	users := trace.Generate(churnConfig(seed, 8))
	var pods []trace.Pod
	for _, u := range users {
		pods = append(pods, u.Pods...)
	}
	// A few wide pods so split placement runs under repack too.
	for i := 0; i < 3; i++ {
		var ctrs []trace.Container
		for j := 0; j < 8; j++ {
			ctrs = append(ctrs, trace.Container{CPU: 0.2, Mem: 0.15})
		}
		pods = append(pods, trace.Pod{
			ID:         fmt.Sprintf("wide%d", i),
			Arrival:    time.Duration(i+1) * 20 * time.Minute,
			Lifetime:   2 * time.Hour,
			Containers: ctrs,
		})
	}
	return pods
}

// TestPackCacheEquivalence pins the cache contract on a whole world: a
// memoized sub-solution substitutes for a fresh OptimizeHostlo call
// byte for byte. Every miss installs a new entry, so a world that
// evicted nothing and holds one entry per miss still holds every
// entry it ever installed, and every hit returned one of them. Each
// entry's Output must then equal a fresh optimizer call on its Input.
func TestPackCacheEquivalence(t *testing.T) {
	run := runRecorded(t, "packcache/hostlo", cluster.Config{
		Seed:      29,
		Pods:      repackWorkload(29),
		Policy:    cluster.Hostlo,
		Horizon:   6 * time.Hour,
		BootDelay: 30 * time.Second,
	})
	if run.res.OptimizerCacheHits == 0 {
		t.Fatal("run never hit the cache — the memoization went unexercised")
	}
	snap, err := run.world.Capture()
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	entries := snap.Pack.Entries
	if len(entries) != run.res.OptimizerCacheMisses || len(entries) >= cloudsim.PackCacheCap {
		t.Fatalf("cache holds %d entries after %d misses (capacity %d): entries were evicted or refreshed",
			len(entries), run.res.OptimizerCacheMisses, cloudsim.PackCacheCap)
	}
	cat := cloudsim.Catalog()
	for i, e := range entries {
		in := slices.Clone(e.Input)
		for j := range in {
			in[j].Items = slices.Clone(in[j].Items)
		}
		if fresh := cloudsim.OptimizeHostlo(in, cat); !reflect.DeepEqual(e.Output, fresh) {
			t.Fatalf("entry %d: cached placement differs from a fresh optimize:\n%v\nvs\n%v", i, e.Output, fresh)
		}
	}
	// The world must also still match the recorded reference.
	golden.Open(t, goldenPath, "packcache/").Check("packcache/hostlo", run.line)
}
