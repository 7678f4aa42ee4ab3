package cloudsim

import (
	"testing"
	"testing/quick"

	"nestless/internal/trace"
)

func TestCatalogMatchesTable2(t *testing.T) {
	c := Catalog()
	if len(c) != 6 {
		t.Fatalf("catalog entries = %d, want 6", len(c))
	}
	if c[0].Name != "large" || c[0].VCPU != 2 || c[0].PricePerH != 0.112 {
		t.Fatalf("large row wrong: %+v", c[0])
	}
	if c[5].Name != "24xlarge" || c[5].VCPU != 96 || c[5].PricePerH != 5.376 || c[5].RelCPU != 1 {
		t.Fatalf("24xlarge row wrong: %+v", c[5])
	}
	// The motivating example from §2: a 6 vCPU / 24 GiB pod needs a
	// 2xlarge ($0.448/h) whole, but large + xlarge cost $0.336/h.
	if got := c[1].PricePerH + c[0].PricePerH; got != 0.336 {
		t.Fatalf("large+xlarge = %v, want 0.336", got)
	}
}

func TestCheapestFitting(t *testing.T) {
	c := Catalog()
	if i := CheapestFitting(c, 0.01, 0.01); c[i].Name != "large" {
		t.Errorf("tiny pod got %s", c[i].Name)
	}
	if i := CheapestFitting(c, 0.06, 0.02); c[i].Name != "2xlarge" {
		t.Errorf("6%% CPU pod got %s", c[i].Name)
	}
	if i := CheapestFitting(c, 2.0, 0.1); i != -1 {
		t.Error("oversized request fit somewhere")
	}
}

// podOf builds a pod from (cpu, mem) container pairs.
func podOf(id string, reqs ...[2]float64) trace.Pod {
	p := trace.Pod{ID: id}
	for _, r := range reqs {
		p.Containers = append(p.Containers, trace.Container{CPU: r[0], Mem: r[1]})
	}
	return p
}

func TestKubernetesPacksWholePods(t *testing.T) {
	c := Catalog()
	// The §2 example: one pod of 6 vCPUs (0.0625 rel) and 24 GiB
	// (0.0625 rel) — Kubernetes must buy a 2xlarge.
	u := trace.User{ID: 1, Pods: []trace.Pod{
		podOf("p", [2]float64{0.03125, 0.03125}, [2]float64{0.03125, 0.03125}),
	}}
	f, err := packKubernetesPolicy(u, c, MostRequested)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.vms) != 1 || c[f.vms[0].typ].Name != "2xlarge" {
		t.Fatalf("kube bought %d VMs, first type %s", len(f.vms), c[f.vms[0].typ].Name)
	}
	if f.cost() != 0.448 {
		t.Fatalf("kube cost = %v, want 0.448", f.cost())
	}
}

func TestHostloSplitsSavesMoney(t *testing.T) {
	c := Catalog()
	// Two pods, each 3 vCPU + 12 GiB (0.03125 rel): kube puts both on
	// one 2xlarge? Both fit: 0.0625 total ≤ 0.0833 — packed together,
	// no savings. Make them 4 vCPU each so the pair does not share:
	// each pod 0.0417 rel → one xlarge each ($0.448 total); hostlo can
	// split across... they are single-container pods; splitting cannot
	// help — savings come from multi-container pods.
	u := trace.User{ID: 1, Pods: []trace.Pod{
		// One pod of 6 × 1 vCPU containers (6 vCPU / 24 GiB total):
		// whole-pod needs a 2xlarge ($0.448); containers split across a
		// large + xlarge cost $0.336 (§2's motivating arithmetic).
		podOf("p",
			[2]float64{0.0104, 0.0104}, [2]float64{0.0104, 0.0104},
			[2]float64{0.0104, 0.0104}, [2]float64{0.0104, 0.0104},
			[2]float64{0.0104, 0.0104}, [2]float64{0.0104, 0.0104}),
	}}
	res, err := SimulateUser(u, c)
	if err != nil {
		t.Fatal(err)
	}
	if res.KubeCostPerH != 0.448 {
		t.Fatalf("kube cost = %v, want 0.448", res.KubeCostPerH)
	}
	if res.HostloCostPerH >= res.KubeCostPerH {
		t.Fatalf("hostlo cost %v did not improve on kube %v", res.HostloCostPerH, res.KubeCostPerH)
	}
}

func TestHostloNeverCostsMore(t *testing.T) {
	users := trace.Generate(trace.DefaultConfig(99))
	res := Simulate(users, Catalog())
	if len(res.Users) == 0 {
		t.Fatal("no users simulated")
	}
	for _, u := range res.Users {
		if u.HostloCostPerH > u.KubeCostPerH+1e-9 {
			t.Fatalf("user %d: hostlo %v > kube %v", u.UserID, u.HostloCostPerH, u.KubeCostPerH)
		}
	}
}

func TestHostloNeverOvercommits(t *testing.T) {
	users := trace.Generate(trace.DefaultConfig(7))
	c := Catalog()
	for _, u := range users[:100] {
		base, err := packKubernetesPolicy(u, c, MostRequested)
		if err != nil {
			continue
		}
		improved := improveHostlo(base)
		for _, v := range improved.vms {
			if v.usedCPU > c[v.typ].RelCPU+1e-9 || v.usedMem > c[v.typ].RelMem+1e-9 {
				t.Fatalf("user %d: VM %s overcommitted (%v/%v cpu, %v/%v mem)",
					u.ID, c[v.typ].Name, v.usedCPU, c[v.typ].RelCPU, v.usedMem, c[v.typ].RelMem)
			}
		}
		// No container lost or duplicated.
		want := 0
		for _, p := range u.Pods {
			want += len(p.Containers)
		}
		got := 0
		for _, v := range improved.vms {
			got += len(v.items)
		}
		if got != want {
			t.Fatalf("user %d: %d containers after improve, want %d", u.ID, got, want)
		}
	}
}

// Property: random small populations keep both invariants — cost never
// increases and capacity is never exceeded.
func TestPackingInvariantsProperty(t *testing.T) {
	c := Catalog()
	prop := func(seed int64, nPods uint8) bool {
		cfg := trace.GenConfig{Seed: seed, Users: 1, MeanPodsPerUser: float64(nPods%8) + 1, HeavyUserFraction: 0.5}
		users := trace.Generate(cfg)
		base, err := packKubernetesPolicy(users[0], c, MostRequested)
		if err != nil {
			return true
		}
		improved := improveHostlo(base)
		if improved.cost() > base.cost()+1e-9 {
			return false
		}
		for _, v := range improved.vms {
			if v.usedCPU > c[v.typ].RelCPU+1e-9 || v.usedMem > c[v.typ].RelMem+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSimulateCountsSkippedUsers(t *testing.T) {
	users := []trace.User{
		{ID: 0, Pods: []trace.Pod{podOf("ok", [2]float64{0.01, 0.01})}},
		// One pod wider than the largest machine: whole-pod placement is
		// infeasible, so the user cannot be priced.
		{ID: 1, Pods: []trace.Pod{podOf("toobig", [2]float64{0.7, 0.7}, [2]float64{0.7, 0.7})}},
		{ID: 2, Pods: []trace.Pod{podOf("ok2", [2]float64{0.02, 0.02})}},
	}
	res := Simulate(users, Catalog())
	if len(res.Users) != 2 || res.Skipped != 1 {
		t.Fatalf("got %d priced / %d skipped, want 2 / 1", len(res.Users), res.Skipped)
	}
	par := SimulateParallel(users, Catalog(), 4)
	if par.Skipped != res.Skipped || len(par.Users) != len(res.Users) {
		t.Fatalf("parallel skip accounting diverged: %d/%d vs %d/%d",
			len(par.Users), par.Skipped, len(res.Users), res.Skipped)
	}
}

// TestOptimizeHostloMatchesInternalPass: the exported optimizer over an
// order-preserving conversion must reproduce the internal static
// pipeline exactly — same cost, same VM types in the same order.
func TestOptimizeHostloMatchesInternalPass(t *testing.T) {
	c := Catalog()
	users := trace.Generate(trace.DefaultConfig(3))
	checked := 0
	for _, u := range users[:60] {
		base, err := packKubernetesPolicy(u, c, MostRequested)
		if err != nil {
			continue
		}
		improved := improveHostlo(base)
		got := OptimizeHostlo(fromFleet(base), c)
		if len(got) != len(improved.vms) {
			t.Fatalf("user %d: exported optimizer produced %d VMs, internal %d", u.ID, len(got), len(improved.vms))
		}
		for i := range got {
			if got[i].Type != improved.vms[i].typ {
				t.Fatalf("user %d VM %d: type %d vs %d", u.ID, i, got[i].Type, improved.vms[i].typ)
			}
		}
		if gc, ic := placementCostPerH(got, c), improved.cost(); gc != ic {
			t.Fatalf("user %d: cost %v vs %v", u.ID, gc, ic)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no users checked")
	}
}

// TestOptimizeHostloSplitsMotivatingExample: §2's arithmetic through
// the exported API — a 2xlarge holding six 1-vCPU containers re-packs
// into large + xlarge.
func TestOptimizeHostloSplitsMotivatingExample(t *testing.T) {
	c := Catalog()
	in := []PlacedVM{{Type: 2}} // 2xlarge
	for i := 0; i < 6; i++ {
		in[0].Items = append(in[0].Items, PlacedItem{Pod: "p", CPU: 0.0104, Mem: 0.0104})
	}
	out := OptimizeHostlo(in, c)
	if got := placementCostPerH(out, c); got != 0.336 {
		t.Fatalf("optimized cost %v, want 0.336 (large + xlarge)", got)
	}
	items := 0
	for _, v := range out {
		items += len(v.Items)
	}
	if items != 6 {
		t.Fatalf("%d items after optimize, want 6", items)
	}
}

func TestPopulationStats(t *testing.T) {
	users := trace.Generate(trace.DefaultConfig(42))
	res := Simulate(users, Catalog())
	if got := len(res.Users); got < 400 {
		t.Fatalf("only %d users simulated", got)
	}
	savers := res.SaversFraction()
	t.Logf("savers: %.1f%% (paper ≈ 11.4%%)", savers*100)
	t.Logf("big savers among savers: %.1f%% (paper ≈ 66.7%%)", res.BigSaversFractionOfSavers()*100)
	t.Logf("max relative savings: %.1f%% (paper ≈ 40%%)", res.MaxRelSavings()*100)
	abs, rel := res.MaxAbsSavings()
	t.Logf("max absolute savings: $%.2f/h at %.0f%% (paper ≈ $237/h, 35%%)", abs, rel*100)

	if savers <= 0 {
		t.Fatal("nobody saves; the Hostlo pass is inert")
	}
	if res.MaxRelSavings() <= 0.05 {
		t.Fatal("max savings implausibly small")
	}
	h := res.SavingsHistogram(20)
	if h.Total() == 0 {
		t.Fatal("empty savings histogram")
	}
	kube, hostlo := res.TotalCosts()
	if hostlo > kube {
		t.Fatal("population cost increased")
	}
	top := res.TopSavers(5)
	if len(top) != 5 || top[0].SavingsRel() < top[4].SavingsRel() {
		t.Fatal("TopSavers ordering wrong")
	}
}

// placementCostPerH prices a placement per hour (sequential sum in VM
// order, matching the internal fleet costing exactly).
func placementCostPerH(vms []PlacedVM, catalog []VMType) float64 {
	var c float64
	for _, v := range vms {
		c += catalog[v.Type].PricePerH
	}
	return c
}
