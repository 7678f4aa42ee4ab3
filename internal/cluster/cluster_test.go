package cluster_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"nestless/internal/cloudsim"
	"nestless/internal/cluster"
	"nestless/internal/faults"
	"nestless/internal/telemetry"
	"nestless/internal/trace"
)

// churnConfig is the shared dynamic-workload generator shape used by the
// lifecycle tests: pods trickle in over the first hours and most depart
// well inside the horizon, with the Pareto tail keeping a few alive.
func churnConfig(seed int64, users int) trace.GenConfig {
	return trace.GenConfig{
		Seed:              seed,
		Users:             users,
		MeanPodsPerUser:   6,
		HeavyUserFraction: 0.2,
		MeanArrivalGap:    2 * time.Minute,
		MeanLifetime:      45 * time.Minute,
	}
}

// TestSteadyStateMatchesStatic is the dynamic/static equivalence check:
// with churn and faults off and instant boots, a lifecycle run must
// converge to exactly the fleet the static Fig. 9 packer prices — same
// cost rate, same VM count, for both policies, for every user tried.
// The static packer is the fleet a full-fleet Hostlo pass settles on,
// so this is also where a drained cluster's incremental passes are
// checked not to change where it settles.
func TestSteadyStateMatchesStatic(t *testing.T) {
	const horizon = 2 * time.Hour
	for _, seed := range []int64{42, 7, 13} {
		users := trace.Generate(trace.DefaultConfig(seed))
		checked := 0
		for _, u := range users[:25] {
			static, err := cloudsim.SimulateUser(u, cloudsim.Catalog())
			if err != nil {
				continue // oversized pod: no static baseline exists
			}
			checked++
			for _, pol := range []cluster.Policy{cluster.Kubernetes, cluster.Hostlo} {
				c := cluster.New(cluster.Config{
					Seed:    seed,
					Pods:    u.Pods,
					Policy:  pol,
					Horizon: horizon,
				})
				res := c.Run()
				if leaks := c.Leaks(); len(leaks) != 0 {
					t.Fatalf("seed %d user %d %v: leaks:\n  %s", seed, u.ID, pol, strings.Join(leaks, "\n  "))
				}
				wantCost, wantVMs := static.KubeCostPerH, static.KubeVMs
				if pol == cluster.Hostlo {
					wantCost, wantVMs = static.HostloCostPerH, static.HostloVMs
				}
				if diff := res.FinalCostPerH - wantCost; diff > 1e-9 || diff < -1e-9 {
					t.Errorf("seed %d user %d %v: final cost %v/h, static %v/h",
						seed, u.ID, pol, res.FinalCostPerH, wantCost)
				}
				if res.FinalNodes != wantVMs {
					t.Errorf("seed %d user %d %v: %d nodes, static %d VMs",
						seed, u.ID, pol, res.FinalNodes, wantVMs)
				}
				if res.Arrived != len(u.Pods) || res.StillPending != 0 || res.Failed != 0 {
					t.Errorf("seed %d user %d %v: arrived %d/%d, pending %d, failed %d",
						seed, u.ID, pol, res.Arrived, len(u.Pods), res.StillPending, res.Failed)
				}
				// The whole fleet exists from t=0, so the cost integral is
				// the rate times the horizon.
				wantDollars := wantCost * horizon.Hours()
				if diff := res.CostDollars - wantDollars; diff > 1e-6 || diff < -1e-6 {
					t.Errorf("seed %d user %d %v: cost $%v, want $%v", seed, u.ID, pol, res.CostDollars, wantDollars)
				}
			}
		}
		if checked == 0 {
			t.Fatalf("seed %d: no user had a static baseline", seed)
		}
	}
}

// TestClusterParallelMatchesSerial: the population fan-out must be a
// pure function of (users, cfg) — any worker count, identical results.
func TestClusterParallelMatchesSerial(t *testing.T) {
	users := trace.Generate(churnConfig(5, 10))
	sched, err := faults.ParseSpec("node/*:crash:p=0.02;node/provision:fail:p=0.1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Config{
		Seed:      99,
		Horizon:   4 * time.Hour,
		BootDelay: 30 * time.Second,
		Faults:    sched,
	}
	serial := cluster.SimulatePopulation(users, cfg, 1)
	parallel := cluster.SimulatePopulation(users, cfg, 8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("parallel population run diverged from serial")
	}
	// The trajectories must align for merging, and merging must be
	// deterministic too.
	kube := make([]cluster.Result, len(serial))
	for i, u := range serial {
		kube[i] = u.Kube
	}
	m1 := cluster.Merge(kube)
	m2 := cluster.Merge(kube)
	if !reflect.DeepEqual(m1, m2) || len(m1.Samples) == 0 {
		t.Fatal("population merge not deterministic")
	}
}

// TestRecordedPopulationWorkerParity: a recorder changes neither the
// population's schedule nor its output. Each (user, policy) run records
// on its own child, appended in run order, so workers 1 and 4 export
// the same text trace and metrics tables, and the results equal an
// unrecorded run's.
func TestRecordedPopulationWorkerParity(t *testing.T) {
	users := trace.Generate(churnConfig(6, 6))
	cfg := cluster.Config{Seed: 17, Horizon: 3 * time.Hour, BootDelay: 30 * time.Second}
	plain := cluster.SimulatePopulation(users, cfg, 4)
	var tel [2]string
	for i, workers := range []int{1, 4} {
		rec := telemetry.New()
		rcfg := cfg
		rcfg.Rec = rec
		runs := cluster.SimulatePopulation(users, rcfg, workers)
		if !reflect.DeepEqual(runs, plain) {
			t.Fatalf("workers %d: recording perturbed the population results", workers)
		}
		var buf bytes.Buffer
		if err := rec.WriteTextTrace(&buf); err != nil {
			t.Fatal(err)
		}
		for _, m := range rec.MetricsTables() {
			m.WriteText(&buf)
		}
		tel[i] = buf.String()
	}
	if !strings.Contains(tel[0], "user-"+fmt.Sprint(users[len(users)-1].ID)+"/hostlo/") {
		t.Fatal("last user's Hostlo run left no labeled record")
	}
	if tel[0] != tel[1] {
		t.Fatal("recorded population exports differ between workers 1 and 4")
	}
}

// TestTrajectoryShape pins the fixed-resolution trajectory: one sample
// at k·H/12 for k = 1..12, plus a horizon point only when that chain
// misses the horizon (12 points at 8h, 13 at 7h13m7s, whose H/12 does
// not divide evenly into nanoseconds).
func TestTrajectoryShape(t *testing.T) {
	pods := trace.Generate(churnConfig(7, 1))[0].Pods
	for _, tc := range []struct {
		horizon time.Duration
		want    int
	}{
		{8 * time.Hour, 12},
		{7*time.Hour + 13*time.Minute + 7*time.Second, 13},
	} {
		res := cluster.Simulate(cluster.Config{Seed: 1, Pods: pods, Horizon: tc.horizon})
		if len(res.Samples) != tc.want {
			t.Fatalf("horizon %v: %d samples, want %d", tc.horizon, len(res.Samples), tc.want)
		}
		every := tc.horizon / 12
		for k := 1; k <= 12; k++ {
			if got, want := time.Duration(res.Samples[k-1].T), time.Duration(k)*every; got != want {
				t.Errorf("horizon %v: sample %d at %v, want %v", tc.horizon, k, got, want)
			}
		}
		if last := time.Duration(res.Samples[len(res.Samples)-1].T); last != tc.horizon {
			t.Errorf("horizon %v: last sample at %v, want the horizon", tc.horizon, last)
		}
	}
	// Below 12ns H/12 truncates to zero; the period's 1ns floor keeps the
	// chain advancing, so the run ends with one sample per nanosecond.
	if res := cluster.Simulate(cluster.Config{Seed: 1, Pods: pods, Horizon: 11}); len(res.Samples) != 11 {
		t.Errorf("horizon 11ns: %d samples, want 11", len(res.Samples))
	}
}

// clusterMenu generates fault rules for the lifecycle chaos sweep: node
// kills (targeted and fleet-wide) plus provisioning failures and delays.
var clusterMenu = []func(r *rand.Rand) string{
	func(r *rand.Rand) string { return fmt.Sprintf("node/*:crash:p=%g", 0.01*float64(1+r.Intn(4))) },
	func(r *rand.Rand) string { return fmt.Sprintf("node/n%d:crash:n=1", r.Intn(3)) },
	func(r *rand.Rand) string { return fmt.Sprintf("node/provision:fail:p=%g", 0.1*float64(1+r.Intn(3))) },
	func(r *rand.Rand) string { return fmt.Sprintf("node/provision:fail:n=%d", 1+r.Intn(3)) },
	func(r *rand.Rand) string { return "node/provision:delay:n=2:d=90s" },
}

// randomClusterSpec draws 1–3 distinct-point rules from the menu.
func randomClusterSpec(seed int64) string {
	r := rand.New(rand.NewSource(seed))
	n := 1 + r.Intn(3)
	seen := make(map[string]bool)
	var rules []string
	for len(rules) < n {
		rule := clusterMenu[r.Intn(len(clusterMenu))](r)
		point := rule[:strings.Index(rule, ":")]
		if seen[point] {
			continue
		}
		seen[point] = true
		rules = append(rules, rule)
	}
	return strings.Join(rules, ";")
}

// TestClusterChaos: seeded random fault schedules over churned
// workloads. Every run must end with the books balanced — no leaked
// placements, every displaced pod rescheduled or still accounted in the
// pending queue, conservation across all pod states — and the sweep as
// a whole must actually exercise both kill and provisioning faults.
func TestClusterChaos(t *testing.T) {
	users := trace.Generate(churnConfig(3, 16))
	var kills, retries, displaced, reschedules int
	for seed := int64(1); seed <= 14; seed++ {
		spec := randomClusterSpec(seed)
		sched, err := faults.ParseSpec(spec)
		if err != nil {
			t.Fatalf("spec %q: %v", spec, err)
		}
		pol := cluster.Kubernetes
		if seed%2 == 0 {
			pol = cluster.Hostlo
		}
		u := users[int(seed)%len(users)]
		c := cluster.New(cluster.Config{
			Seed:      seed,
			Pods:      u.Pods,
			Policy:    pol,
			Horizon:   6 * time.Hour,
			BootDelay: 45 * time.Second,
			Faults:    sched,
		})
		res := c.Run()
		if leaks := c.Leaks(); len(leaks) != 0 {
			t.Errorf("seed %d spec %q (%v): leaks:\n  %s", seed, spec, pol, strings.Join(leaks, "\n  "))
		}
		if got := res.Departed + res.Running + res.StillPending + res.Failed; got != res.Arrived {
			t.Errorf("seed %d spec %q: conservation broken: %d accounted, %d arrived", seed, spec, got, res.Arrived)
		}
		if res.Reschedules > res.Displaced {
			t.Errorf("seed %d spec %q: %d reschedules > %d displacements", seed, spec, res.Reschedules, res.Displaced)
		}
		kills += res.Kills
		retries += res.ProvisionRetries
		displaced += res.Displaced
		reschedules += res.Reschedules
		t.Logf("seed %d %v spec %q: %d arrived, %d kills, %d displaced, %d rescheduled, %d retries, $%.2f",
			seed, pol, spec, res.Arrived, res.Kills, res.Displaced, res.Reschedules, res.ProvisionRetries, res.CostDollars)
	}
	if kills == 0 {
		t.Error("no seed killed a node — the kill fault point never engaged")
	}
	if retries == 0 {
		t.Error("no seed retried provisioning — the provision fault point never engaged")
	}
	if displaced == 0 || reschedules == 0 {
		t.Errorf("displacement path idle: %d displaced, %d rescheduled", displaced, reschedules)
	}
}

// TestClusterChaosReplay: a faulted lifecycle run replays byte-identical
// — same Result (DeepEqual, trajectories included) and same telemetry
// trace bytes.
func TestClusterChaosReplay(t *testing.T) {
	users := trace.Generate(churnConfig(8, 4))
	sched, err := faults.ParseSpec("node/*:crash:p=0.03;node/provision:fail:p=0.2;node/provision:delay:n=2:d=60s")
	if err != nil {
		t.Fatal(err)
	}
	run := func() (cluster.Result, string) {
		rec := telemetry.New()
		res := cluster.Simulate(cluster.Config{
			Seed:      123,
			Pods:      users[1].Pods,
			Policy:    cluster.Hostlo,
			Horizon:   6 * time.Hour,
			BootDelay: 45 * time.Second,
			Faults:    sched,
			Rec:       rec,
		})
		var buf bytes.Buffer
		if err := rec.WriteTextTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return res, buf.String()
	}
	r1, t1 := run()
	r2, t2 := run()
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("replay diverged:\n%+v\n%+v", r1, r2)
	}
	if t1 != t2 {
		t.Fatalf("telemetry traces diverged (%d vs %d bytes)", len(t1), len(t2))
	}
	if t1 == "" {
		t.Fatal("empty trace — recorder not wired")
	}
}

// TestNodeKillDisplacesAndReschedules pins the drain path: kill the
// first node once, and every displaced pod must be running again by the
// horizon on a freshly provisioned node.
func TestNodeKillDisplacesAndReschedules(t *testing.T) {
	sched, err := faults.ParseSpec("node/*:crash:n=1")
	if err != nil {
		t.Fatal(err)
	}
	pods := []trace.Pod{
		{ID: "a", Containers: []trace.Container{{CPU: 0.01, Mem: 0.01}}},
		{ID: "b", Containers: []trace.Container{{CPU: 0.01, Mem: 0.01}}},
	}
	c := cluster.New(cluster.Config{
		Seed:      1,
		Pods:      pods,
		Horizon:   2 * time.Hour,
		BootDelay: 30 * time.Second,
		Faults:    sched,
	})
	res := c.Run()
	if leaks := c.Leaks(); len(leaks) != 0 {
		t.Fatalf("leaks:\n  %s", strings.Join(leaks, "\n  "))
	}
	if res.Kills != 1 {
		t.Fatalf("kills = %d, want 1", res.Kills)
	}
	if res.Displaced != 2 || res.Reschedules != 2 {
		t.Fatalf("displaced %d / rescheduled %d, want 2 / 2", res.Displaced, res.Reschedules)
	}
	if res.Running != 2 || res.StillPending != 0 {
		t.Fatalf("running %d pending %d at horizon, want 2 / 0", res.Running, res.StillPending)
	}
	if res.ScaleUps < 2 {
		t.Fatalf("scale-ups = %d, want ≥ 2 (initial + replacement)", res.ScaleUps)
	}
}

// TestBootDelayAndHorizonAccounting pins time-to-schedule and
// beyond-horizon bookkeeping.
func TestBootDelayAndHorizonAccounting(t *testing.T) {
	pods := []trace.Pod{
		{ID: "now", Containers: []trace.Container{{CPU: 0.01, Mem: 0.01}}},
		{ID: "later", Arrival: time.Hour, Containers: []trace.Container{{CPU: 0.01, Mem: 0.01}}},
		{ID: "never", Arrival: 3 * time.Hour, Containers: []trace.Container{{CPU: 0.01, Mem: 0.01}}},
	}
	res := cluster.Simulate(cluster.Config{
		Seed:      1,
		Pods:      pods,
		Horizon:   2 * time.Hour,
		BootDelay: 30 * time.Second,
	})
	if res.Arrived != 2 || res.BeyondHorizon != 1 {
		t.Fatalf("arrived %d, beyond horizon %d; want 2, 1", res.Arrived, res.BeyondHorizon)
	}
	// The first pod waits out the boot delay; the second lands on the
	// already-live node instantly.
	if res.TTSMax != 30*time.Second {
		t.Fatalf("TTS max = %v, want 30s (the boot delay)", res.TTSMax)
	}
	if res.TTSSum != res.TTSMean*time.Duration(res.Scheduled) {
		t.Logf("TTSSum %v, mean %v × %d", res.TTSSum, res.TTSMean, res.Scheduled)
	}
	if res.Scheduled != 2 {
		t.Fatalf("scheduled = %d, want 2", res.Scheduled)
	}
}

// TestIdleReclaim: once every pod departs, the autoscaler must drain the
// fleet after the hysteresis grace — an empty cluster costs nothing.
func TestIdleReclaim(t *testing.T) {
	var pods []trace.Pod
	for i := 0; i < 5; i++ {
		pods = append(pods, trace.Pod{
			ID:       fmt.Sprintf("p%d", i),
			Lifetime: 10 * time.Minute,
			Containers: []trace.Container{
				{CPU: 0.02, Mem: 0.02},
			},
		})
	}
	c := cluster.New(cluster.Config{
		Seed:    1,
		Pods:    pods,
		Horizon: 2 * time.Hour,
	})
	res := c.Run()
	if leaks := c.Leaks(); len(leaks) != 0 {
		t.Fatalf("leaks:\n  %s", strings.Join(leaks, "\n  "))
	}
	if res.Departed != 5 {
		t.Fatalf("departed = %d, want 5", res.Departed)
	}
	if res.FinalNodes != 0 || res.ScaleDowns == 0 {
		t.Fatalf("final nodes %d (scale-downs %d), want 0 (>0)", res.FinalNodes, res.ScaleDowns)
	}
	// Each 0.02-rel pod fills most of a large node, so the fleet is five
	// larges running lifetime + grace ≈ 15 minutes (reclaimed on the
	// first tick past the grace): 5 × $0.112/h × 0.25h = $0.14 — not the
	// $1.12 a full-horizon fleet would cost.
	if want := 5 * 0.112 * 0.25; res.CostDollars < want-1e-9 || res.CostDollars > want+0.02 {
		t.Fatalf("cost $%v, want ≈ $%v (15-minute fleet)", res.CostDollars, want)
	}
	if res.Samples[len(res.Samples)-1].CostPerH != 0 {
		t.Fatal("trajectory does not end at zero cost")
	}
}

// TestHostloLifecycleSavesUnderChurn: over a churned population the
// Hostlo optimizer must actually run and must not lose money against
// the Kubernetes baseline in aggregate.
func TestHostloLifecycleSavesUnderChurn(t *testing.T) {
	users := trace.Generate(churnConfig(21, 12))
	runs := cluster.SimulatePopulation(users, cluster.Config{
		Seed:    7,
		Horizon: 4 * time.Hour,
	}, 4)
	var kube, hostlo float64
	var optRuns int
	for _, u := range runs {
		kube += u.Kube.CostDollars
		hostlo += u.Hostlo.CostDollars
		optRuns += u.Hostlo.OptimizerRuns
		if u.Kube.OptimizerRuns != 0 {
			t.Fatalf("user %d: kubernetes run invoked the optimizer", u.UserID)
		}
	}
	if optRuns == 0 {
		t.Fatal("hostlo optimizer never ran")
	}
	t.Logf("population cost over 4h: kube $%.2f, hostlo $%.2f (%.1f%% saved), %d optimizer runs",
		kube, hostlo, 100*(kube-hostlo)/kube, optRuns)
	if hostlo > kube*1.001 {
		t.Fatalf("hostlo $%.2f costs more than kube $%.2f under churn", hostlo, kube)
	}
}

// TestParsePolicy: ParsePolicy inverts Policy.String and refuses any
// other name.
func TestParsePolicy(t *testing.T) {
	for _, p := range []cluster.Policy{cluster.Kubernetes, cluster.Hostlo} {
		if got, err := cluster.ParsePolicy(p.String()); err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	for _, name := range []string{"", "Hostlo", "k8s"} {
		if _, err := cluster.ParsePolicy(name); err == nil {
			t.Errorf("ParsePolicy(%q) accepted", name)
		}
	}
}
