package cluster_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"nestless/internal/cloud"
	"nestless/internal/cluster"
	"nestless/internal/trace"
)

// The cloud-model suite: the non-degenerate features (spot revocation,
// zone drills, spread) must actually engage. Every world runs through
// the audited path, so Leaks holds their books (fallback credits, cost
// split, conservation) at every trajectory instant; the golden table
// pins the degenerate one-zone configuration and the spot worlds.

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

// TestSpotCostSplit: without spot capacity the on-demand integral IS
// the cost integral, bitwise; with spot capacity the spot half is
// booked (Leaks holds the two halves to the total).
func TestSpotCostSplit(t *testing.T) {
	users := trace.Generate(churnConfig(4, 4))
	base := cluster.Config{
		Seed:      4,
		Pods:      users[0].Pods,
		Policy:    cluster.Hostlo,
		Horizon:   4 * time.Hour,
		BootDelay: 30 * time.Second,
	}
	res := runRecorded(t, "on-demand", base).res
	if res.CostSpotDollars != 0 {
		t.Fatalf("on-demand run accrued spot cost $%v", res.CostSpotDollars)
	}
	if res.CostOnDemandDollars != res.CostDollars {
		t.Fatalf("on-demand run: split %v != total %v (must be bitwise identical)",
			res.CostOnDemandDollars, res.CostDollars)
	}

	spot := base
	applyCloud(&spot, gcpCloud(t, 2, 0.5))
	sres := runRecorded(t, "spot", spot).res
	if sres.SpotProvisions == 0 || sres.CostSpotDollars <= 0 {
		t.Fatalf("spot run: %d spot provisions, $%v spot cost", sres.SpotProvisions, sres.CostSpotDollars)
	}
}

// spotChaosConfig is the shared revocation-chaos world: three GCP
// zones, a high spot fraction, aggressive revocation plus provisioning
// flakiness.
func spotChaosConfig(t *testing.T, seed int64, pods []trace.Pod) cluster.Config {
	t.Helper()
	cfg := cluster.Config{
		Seed:      seed,
		Pods:      pods,
		Policy:    cluster.Hostlo,
		Horizon:   6 * time.Hour,
		BootDelay: 45 * time.Second,
		Faults:    mustSpec(t, "spot/*:crash:p=0.05;node/provision:fail:p=0.1"),
	}
	if seed%2 == 0 {
		cfg.Policy = cluster.Kubernetes
	}
	applyCloud(&cfg, gcpCloud(t, 3, 0.6))
	return cfg
}

// TestSpotRevocationChaos sweeps seeded revocation schedules through
// the audited path: spot capacity must be provisioned, revocations must
// actually fire, and some must push a replacement to on-demand.
func TestSpotRevocationChaos(t *testing.T) {
	users := trace.Generate(churnConfig(6, 8))
	var revoked, fallbacks, spotProv int
	for seed := int64(1); seed <= 8; seed++ {
		cfg := spotChaosConfig(t, seed, users[int(seed)%len(users)].Pods)
		res := runRecorded(t, fmt.Sprintf("seed %d", seed), cfg).res
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
	res := runRecorded(t, "spread", cfg).res
	if len(res.ZoneSpread) != 3 {
		t.Fatalf("ZoneSpread %v, want 3 zones", res.ZoneSpread)
	}
	sum := 0
	for _, v := range res.ZoneSpread {
		sum += v
	}
	if sum != res.FinalNodes {
		t.Fatalf("ZoneSpread %v sums to %d, FinalNodes %d", res.ZoneSpread, sum, res.FinalNodes)
	}
	if res.FinalNodes < 3 {
		t.Fatalf("fleet too small to test spread: %d nodes", res.FinalNodes)
	}
	if slices.Max(res.ZoneSpread)-slices.Min(res.ZoneSpread) > 1 {
		t.Fatalf("spread unbalanced: %v", res.ZoneSpread)
	}
}

// TestZoneKillDrill: a whole-zone crash rule kills every node in the
// zone, displaced pods reschedule, and the single-zone Result shape
// (nil ZoneSpread) survives for pre-cloud worlds.
func TestZoneKillDrill(t *testing.T) {
	users := trace.Generate(churnConfig(15, 6))
	cfg := cluster.Config{
		Seed:      15,
		Pods:      users[2].Pods,
		Policy:    cluster.Hostlo,
		Horizon:   6 * time.Hour,
		BootDelay: 30 * time.Second,
		Faults:    mustSpec(t, "zone/us-central1-b:crash:p=0.4"),
	}
	applyCloud(&cfg, gcpCloud(t, 3, 0))
	res := runRecorded(t, "zone drill", cfg).res
	if res.ZoneKills == 0 {
		t.Fatal("the zone drill never fired")
	}
	if res.Kills == 0 {
		t.Fatal("zone drills fired but killed no node — the drill hit only empty zones")
	}

	// Single-zone worlds must not grow a spread vector.
	plain := runRecorded(t, "single zone", cluster.Config{
		Seed: 15, Pods: users[2].Pods, Policy: cluster.Hostlo, Horizon: 2 * time.Hour,
	}).res
	if plain.ZoneSpread != nil {
		t.Fatalf("single-zone run grew ZoneSpread %v", plain.ZoneSpread)
	}
}
