package cluster_test

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"nestless/internal/cloud"
	"nestless/internal/cluster"
	"nestless/internal/faults"
	"nestless/internal/golden"
	"nestless/internal/trace"
)

// The cloud-model suite: the reconciler autoscaler must be invisible in
// the degenerate configuration (one zone, no spot — byte-identical to
// the recorded digests of the imperative demand loop it replaced), and
// the non-degenerate features (spot revocation, zone drills, spread)
// must stay leak-free, conservation-audited and deterministic under
// chaos.

// gcpCloud resolves a spot-capable GCP configuration for tests.
func gcpCloud(t *testing.T, zones int, spotFrac float64) *cloud.Resolved {
	t.Helper()
	cl, err := cloud.Resolve(cloud.Options{
		Spec:     "gcp:n2",
		Zones:    zones,
		SpotFrac: spotFrac,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// applyCloud copies a resolved cloud configuration onto a cluster
// config, the same way cmd/costsim does.
func applyCloud(cfg *cluster.Config, cl *cloud.Resolved) {
	cfg.Catalog = cl.Catalog.Types
	cfg.Zones = cl.Zones
	cfg.ZoneNames = cl.ZoneNames
	cfg.SpotFrac = cl.SpotFrac
	cfg.SpotDiscount = cl.SpotDiscount
}

// TestReconcilerMatchesImperative is the acceptance pin: with one zone
// and zero spot fraction, the declarative reconciler reproduces the
// digests recorded while the imperative demand loop it replaced still
// ran, with every case asserted identical to it (Result modulo the
// Reconcile* counters, text telemetry and digest) — across policies
// and seeds.
func TestReconcilerMatchesImperative(t *testing.T) {
	g := golden.Open(t, goldenPath, "reconciler/")
	var rounds int
	for _, seed := range []int64{1, 9} {
		users := trace.Generate(churnConfig(seed, 6))
		for _, mode := range policyModes {
			cfg := cluster.Config{
				Seed:      seed,
				Pods:      users[int(seed)%len(users)].Pods,
				Horizon:   4 * time.Hour,
				BootDelay: 30 * time.Second,
			}
			mode.adjust(&cfg)
			res := requireGolden(t, g, fmt.Sprintf("reconciler/s%d/%s", seed, mode.name), cfg)
			rounds += res.ReconcileRounds
		}
	}
	if rounds == 0 {
		t.Fatal("no reconciler run ever counted a round — the reconcile loop never engaged")
	}
}

// TestSpotCostSplit: without spot capacity the on-demand integral IS
// the cost integral, bitwise; with spot capacity the two halves sum to
// the total within float tolerance and the spot half is discounted.
func TestSpotCostSplit(t *testing.T) {
	users := trace.Generate(churnConfig(4, 4))
	base := cluster.Config{
		Seed:      4,
		Pods:      users[0].Pods,
		Policy:    cluster.Hostlo,
		Horizon:   4 * time.Hour,
		BootDelay: 30 * time.Second,
	}
	res := cluster.Simulate(base)
	if res.CostSpotDollars != 0 {
		t.Fatalf("on-demand run accrued spot cost $%v", res.CostSpotDollars)
	}
	if res.CostOnDemandDollars != res.CostDollars {
		t.Fatalf("on-demand run: split %v != total %v (must be bitwise identical)",
			res.CostOnDemandDollars, res.CostDollars)
	}

	spot := base
	applyCloud(&spot, gcpCloud(t, 2, 0.5))
	sres := cluster.Simulate(spot)
	if sres.SpotProvisions == 0 {
		t.Fatal("spot run never provisioned a spot node")
	}
	if sres.CostSpotDollars <= 0 {
		t.Fatalf("spot run accrued no spot cost (split %v / %v)", sres.CostSpotDollars, sres.CostOnDemandDollars)
	}
	if diff := math.Abs(sres.CostSpotDollars + sres.CostOnDemandDollars - sres.CostDollars); diff > 1e-9 {
		t.Fatalf("cost split off by %g: %v + %v != %v",
			diff, sres.CostSpotDollars, sres.CostOnDemandDollars, sres.CostDollars)
	}
}

// spotChaosConfig is the shared revocation-chaos world: three GCP
// zones, a high spot fraction, aggressive revocation plus provisioning
// flakiness.
func spotChaosConfig(t *testing.T, seed int64, pods []trace.Pod) cluster.Config {
	t.Helper()
	sched, err := faults.ParseSpec("spot/*:crash:p=0.05;node/provision:fail:p=0.1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Config{
		Seed:      seed,
		Pods:      pods,
		Policy:    cluster.Hostlo,
		Horizon:   6 * time.Hour,
		BootDelay: 45 * time.Second,
		Faults:    sched,
	}
	if seed%2 == 0 {
		cfg.Policy = cluster.Kubernetes
	}
	applyCloud(&cfg, gcpCloud(t, 3, 0.6))
	return cfg
}

// TestSpotRevocationChaos sweeps seeded revocation schedules: every
// world must stay leak-free and conservation-clean, revocations must
// actually fire, and each one must push a replacement to on-demand.
func TestSpotRevocationChaos(t *testing.T) {
	users := trace.Generate(churnConfig(6, 8))
	var revoked, fallbacks, spotProv int
	for seed := int64(1); seed <= 8; seed++ {
		cfg := spotChaosConfig(t, seed, users[int(seed)%len(users)].Pods)
		c := cluster.New(cfg)
		res := c.Run()
		if leaks := c.Leaks(); len(leaks) != 0 {
			t.Errorf("seed %d: leaks:\n  %s", seed, strings.Join(leaks, "\n  "))
		}
		if got := res.Departed + res.Running + res.StillPending + res.Failed; got != res.Arrived {
			t.Errorf("seed %d: conservation broken: %d accounted, %d arrived", seed, got, res.Arrived)
		}
		if res.OnDemandFallbacks > res.SpotRevocations {
			t.Errorf("seed %d: %d fallbacks > %d revocations (fallback credits only come from revocations)",
				seed, res.OnDemandFallbacks, res.SpotRevocations)
		}
		if diff := math.Abs(res.CostSpotDollars + res.CostOnDemandDollars - res.CostDollars); diff > 1e-9 {
			t.Errorf("seed %d: cost split off by %g", seed, diff)
		}
		revoked += res.SpotRevocations
		fallbacks += res.OnDemandFallbacks
		spotProv += res.SpotProvisions
		t.Logf("seed %d %v: %d arrived, %d spot provisions, %d revocations, %d od fallbacks, $%.2f (%.2f spot / %.2f od)",
			seed, cfg.Policy, res.Arrived, res.SpotProvisions, res.SpotRevocations,
			res.OnDemandFallbacks, res.CostDollars, res.CostSpotDollars, res.CostOnDemandDollars)
	}
	if spotProv == 0 {
		t.Error("no seed provisioned spot capacity")
	}
	if revoked == 0 {
		t.Error("no seed revoked a spot node — the revocation fault point never engaged")
	}
	if fallbacks == 0 {
		t.Error("no revocation pushed a replacement to on-demand")
	}
}

// TestSpotChaosReplay: a spot-revocation world replays byte-identical —
// same Result, same telemetry bytes, same golden line (digest included).
func TestSpotChaosReplay(t *testing.T) {
	users := trace.Generate(churnConfig(12, 4))
	cfg := spotChaosConfig(t, 3, users[1].Pods)
	r1, r2 := runRecorded(t, cfg), runRecorded(t, cfg)
	if !reflect.DeepEqual(r1.res, r2.res) {
		t.Fatalf("replay diverged:\n%+v\n%+v", r1.res, r2.res)
	}
	if r1.trace != r2.trace {
		t.Fatalf("telemetry traces diverged (%d vs %d bytes)", len(r1.trace), len(r2.trace))
	}
	if r1.line != r2.line {
		t.Fatalf("digests diverged:\n%s\n%s", r1.line, r2.line)
	}
	if r1.res.SpotRevocations == 0 {
		t.Fatal("replay pair never revoked a node — chaos unexercised")
	}
}

// TestSpotChaosMatchesReference: the indexed core must reproduce the
// recorded reference digests byte for byte under spot + zones too.
func TestSpotChaosMatchesReference(t *testing.T) {
	g := golden.Open(t, goldenPath, "spot/")
	users := trace.Generate(churnConfig(21, 4))
	for _, seed := range []int64{2, 5} {
		cfg := spotChaosConfig(t, seed, users[int(seed)%len(users)].Pods)
		requireGolden(t, g, fmt.Sprintf("spot/s%d", seed), cfg)
	}
}

// TestZoneSpreadBalanced: with a static workload (no departures, no
// faults) the reconciler's emptiest-zone placement keeps the fleet
// spread within one node across zones.
func TestZoneSpreadBalanced(t *testing.T) {
	var pods []trace.Pod
	for i := 0; i < 30; i++ {
		pods = append(pods, trace.Pod{
			ID:         fmt.Sprintf("p%d", i),
			Containers: []trace.Container{{CPU: 0.018, Mem: 0.018}},
		})
	}
	cfg := cluster.Config{
		Seed:    7,
		Pods:    pods,
		Policy:  cluster.Kubernetes,
		Horizon: 2 * time.Hour,
	}
	applyCloud(&cfg, gcpCloud(t, 3, 0))
	c := cluster.New(cfg)
	res := c.Run()
	if leaks := c.Leaks(); len(leaks) != 0 {
		t.Fatalf("leaks:\n  %s", strings.Join(leaks, "\n  "))
	}
	if len(res.ZoneSpread) != 3 {
		t.Fatalf("ZoneSpread %v, want 3 zones", res.ZoneSpread)
	}
	sum, min, max := 0, res.ZoneSpread[0], res.ZoneSpread[0]
	for _, v := range res.ZoneSpread {
		sum += v
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if sum != res.FinalNodes {
		t.Fatalf("ZoneSpread %v sums to %d, FinalNodes %d", res.ZoneSpread, sum, res.FinalNodes)
	}
	if res.FinalNodes < 3 {
		t.Fatalf("fleet too small to test spread: %d nodes", res.FinalNodes)
	}
	if max-min > 1 {
		t.Fatalf("spread unbalanced: %v", res.ZoneSpread)
	}
}

// TestZoneKillDrill: a whole-zone crash rule kills every node in the
// zone, displaced pods reschedule, and the single-zone Result shape
// (nil ZoneSpread) survives for pre-cloud worlds.
func TestZoneKillDrill(t *testing.T) {
	users := trace.Generate(churnConfig(15, 6))
	sched, err := faults.ParseSpec("zone/us-central1-b:crash:p=0.4")
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Config{
		Seed:      15,
		Pods:      users[2].Pods,
		Policy:    cluster.Hostlo,
		Horizon:   6 * time.Hour,
		BootDelay: 30 * time.Second,
		Faults:    sched,
	}
	applyCloud(&cfg, gcpCloud(t, 3, 0))
	c := cluster.New(cfg)
	res := c.Run()
	if leaks := c.Leaks(); len(leaks) != 0 {
		t.Fatalf("leaks:\n  %s", strings.Join(leaks, "\n  "))
	}
	if res.ZoneKills == 0 {
		t.Fatal("the zone drill never fired")
	}
	if res.Kills == 0 {
		t.Fatal("zone drills fired but killed no node — the drill hit only empty zones")
	}
	if got := res.Departed + res.Running + res.StillPending + res.Failed; got != res.Arrived {
		t.Fatalf("conservation broken: %d accounted, %d arrived", got, res.Arrived)
	}

	// Single-zone worlds must not grow a spread vector.
	plain := cluster.Simulate(cluster.Config{
		Seed: 15, Pods: users[2].Pods, Policy: cluster.Hostlo, Horizon: 2 * time.Hour,
	})
	if plain.ZoneSpread != nil {
		t.Fatalf("single-zone run grew ZoneSpread %v", plain.ZoneSpread)
	}
}
