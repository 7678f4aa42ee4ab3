// Command costsim regenerates the Hostlo cost-saving simulation
// (Fig. 9, §5.3.1): per-user VM fleet costs under Kubernetes whole-pod
// placement versus Hostlo container-level placement, over a synthetic
// Google-cluster-trace population priced with the AWS EC2 m5 catalog.
//
//	costsim                # Fig. 9 histogram + headline statistics
//	costsim -table 2       # the VM catalog (Table 2)
//	costsim -users 1000    # a larger population
//
// The -lifecycle flag switches from the static snapshot pricing to the
// event-driven cluster simulation (internal/cluster): pods arrive and
// depart over a horizon, an autoscaler grows and reclaims the VM fleet,
// and -faults node-kill schedules displace pods mid-run. It reports
// Kubernetes-vs-Hostlo cost integrals, time-to-schedule statistics, and
// the cost-over-time trajectory:
//
//	costsim -lifecycle -users 100
//	costsim -lifecycle -horizon 8h -gap 2m -life 45m
//	costsim -lifecycle -faults 'node/*:crash:p=0.01'
//
// The machine subsystem (internal/cloud) generalizes the hard-coded
// m5 table: -cloud names a registered catalog, -zones spreads the
// lifecycle fleet across availability-zone failure domains, -spot-frac
// runs part of it on discounted spot capacity (revocation is a seeded
// fault; spot/*:crash:p=0.02 is merged in unless -faults already
// covers spot/):
//
//	costsim -cloud gcp:n2                  # static cross-cloud comparison
//	costsim -lifecycle -cloud gcp:n2 -zones 3 -spot-frac 0.5
//
// The -replay flag feeds a recorded cluster trace file (CSV or JSONL,
// optionally gzipped — see internal/ctrace) through the sharded
// multi-cluster replay (internal/shard) instead of generating a
// synthetic population. Both policies run over the same stream; the
// trace is reopened per policy. -parallel picks how many goroutines
// execute the worlds (byte-identical output for any value), -worlds
// the logical partition count (part of the experiment):
//
//	ctracegen -users 200 -out t.csv.gz
//	costsim -replay t.csv.gz -parallel 4
//	costsim -replay t.csv.gz -worlds 8 -migrate-after 20m -migrate-policy locality
//	costsim -replay big3d.csv.gz -parallel 8 -horizon 72h   # multi-day, bounded memory
//
// The feed is pipelined (epoch N+1 prefetches while epoch N advances)
// and each world stores a fixed 12-point trajectory (one sample every
// horizon/12), so a replay's memory is its live pod table.
//
// Cluster-simulation flags (-horizon, -gap, -life, -boot, -spot-frac,
// -zones) are rejected with exit status 2 on the static path. So is a
// negative duration, or a zero -horizon or -barrier.
//
// Add -trace out.json for a per-user trace of the placement run and
// -metrics for the telemetry tables. (-trace names the telemetry
// OUTPUT; the trace INPUT is -replay.) A replay records each policy
// under its own label (kubernetes/world-0, ..., hostlo/world-0, ...).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"nestless/internal/cli"
	"nestless/internal/cloud"
	"nestless/internal/cloudsim"
	"nestless/internal/cluster"
	"nestless/internal/ctrace"
	"nestless/internal/faults"
	"nestless/internal/figures"
	"nestless/internal/report"
	"nestless/internal/shard"
	"nestless/internal/sim"
	"nestless/internal/telemetry"
	"nestless/internal/trace"
)

func main() {
	table := flag.Int("table", 0, "print a table instead: 2")
	users := flag.Int("users", 492, "population size (the paper simulates 492 users)")
	seed := flag.Int64("seed", 42, "generator seed")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	top := flag.Int("top", 0, "also list the top-N savers")
	lifecycle := flag.Bool("lifecycle", false, "run the event-driven cluster lifecycle simulation instead of the static snapshot")
	horizon := flag.Duration("horizon", 8*time.Hour, "lifecycle simulation horizon")
	gap := flag.Duration("gap", 2*time.Minute, "lifecycle mean pod inter-arrival gap")
	life := flag.Duration("life", 45*time.Minute, "lifecycle mean pod lifetime (Pareto-tailed)")
	boot := flag.Duration("boot", 45*time.Second, "lifecycle VM boot delay")
	replay := flag.String("replay", "",
		"replay a recorded cluster trace file (csv/jsonl, .gz ok; see internal/ctrace) through the sharded lifecycle simulation instead of generating a workload")
	worlds := flag.Int("worlds", 8,
		"replay: logical cluster worlds the trace is hash-partitioned over (changes the experiment, unlike -parallel)")
	barrier := flag.Duration("barrier", 15*time.Minute,
		"replay: epoch length between world synchronization barriers")
	migrateAfter := flag.Duration("migrate-after", 0,
		"replay: transfer pods pending longer than this to another world at each barrier (0 = off)")
	lenient := flag.Bool("lenient", false,
		"replay: skip malformed trace rows instead of failing")
	migratePolicy := flag.String("migrate-policy", "least-loaded",
		"replay: destination policy for -migrate-after transfers: least-loaded or locality")
	cloudName := flag.String("cloud", cloud.DefaultName,
		"machine catalog: one of "+strings.Join(cloud.Names(), ", "))
	spotFrac := flag.Float64("spot-frac", 0,
		"lifecycle: target fraction of the fleet on spot capacity, in [0,1] (needs a spot-capable catalog)")
	zones := flag.Int("zones", 1,
		"lifecycle: availability zones the fleet spreads across, >= 1 (bounded by the catalog's zone list)")
	workers := cli.ParallelFlag()
	faultSpec := cli.FaultsFlag()
	tf := cli.TelemetryFlags()
	prof := cli.ProfileFlags()
	flag.Parse()
	cli.CheckParallel(*workers)
	sched := cli.ParseFaults(*faultSpec)
	if *worlds < 1 {
		cli.BadFlag("costsim: -worlds must be >= 1, got %d", *worlds)
	}
	if err := checkDurations(*horizon, *barrier, *boot, *gap, *life, *migrateAfter); err != nil {
		cli.BadFlag("costsim: %v", err)
	}
	// cloud.Resolve reads zero zones as one; reject it here so the
	// report never shows a fleet the flag did not ask for.
	if *zones < 1 {
		cli.BadFlag("costsim: -zones must be >= 1, got %d", *zones)
	}
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	cl, err := cloud.Resolve(cloud.Options{Spec: *cloudName, SpotFrac: *spotFrac, Zones: *zones})
	if err != nil {
		cli.BadFlag("costsim: %v", err)
	}
	if !*lifecycle && *replay == "" {
		if err := checkStatic(explicit); err != nil {
			cli.BadFlag("costsim: %v", err)
		}
	}
	sched = cl.WithDefaultRevocation(sched)
	if *replay != "" {
		// The trace IS the workload: generator knobs are ambiguous next
		// to it.
		for _, name := range []string{"users", "gap", "life"} {
			if explicit[name] {
				cli.BadFlag("costsim: -%s shapes the generated workload and conflicts with -replay (the trace is the workload)", name)
			}
		}
		if _, err := os.Stat(*replay); err != nil {
			cli.BadFlag("costsim: -replay: %v", err)
		}
		switch *migratePolicy {
		case "least-loaded", "locality":
		default:
			cli.BadFlag("costsim: -migrate-policy must be least-loaded or locality, got %q", *migratePolicy)
		}
	} else {
		for _, name := range []string{"worlds", "barrier", "migrate-after", "lenient", "migrate-policy"} {
			if explicit[name] {
				cli.BadFlag("costsim: -%s only applies to a trace replay (add -replay FILE)", name)
			}
		}
	}
	switch {
	case *table != 0 && *table != 2:
		cli.BadFlag("costsim: unknown table %d (want 2)", *table)
	case *table == 0 && *users <= 0:
		cli.BadFlag("costsim: -users must be positive, got %d", *users)
	}
	prof.Start("costsim")
	defer prof.Stop("costsim")
	// The static placement run is engine-less: the spec is validated for
	// command-line uniformity, but only the simulated datapaths can
	// fault.
	if sched != nil && !*lifecycle && *replay == "" {
		fmt.Fprintln(os.Stderr, "costsim: note: -faults validated but ignored (static placement has no simulated datapath; use -lifecycle or -replay)")
	}

	emit := func(t *report.Table) {
		if *csv {
			t.WriteCSV(os.Stdout)
		} else {
			t.WriteText(os.Stdout)
		}
	}

	if *table == 2 {
		emit(figures.Table2())
		return
	}

	so := simOpts{
		seed: *seed, horizon: *horizon, boot: *boot, sched: sched,
		cloud: cl, rec: tf.Recorder(), emit: emit, workers: *workers,
	}
	if *replay != "" {
		runReplay(replayOpts{
			simOpts: so, path: *replay, worlds: *worlds, barrier: *barrier,
			migrateAfter: *migrateAfter, migratePolicy: *migratePolicy, lenient: *lenient,
		})
		tf.EmitOrDie("costsim")
		return
	}

	if *lifecycle {
		runLifecycle(lifecycleOpts{simOpts: so, users: *users, gap: *gap, life: *life})
		tf.EmitOrDie("costsim")
		return
	}

	cfg := trace.DefaultConfig(*seed)
	cfg.Users = *users
	pop := trace.Generate(cfg)
	res := cloudsim.SimulateParallel(pop, cl.Catalog.Types, *workers)
	record(tf.Recorder(), res)

	topTitle := fmt.Sprintf("Top %d savers", *top)
	if explicit["cloud"] {
		// An explicit catalog choice turns the run into a cross-cloud
		// comparison: the same workload priced on the default AWS m5
		// table and on the selected catalog. (Fig. 9 itself is pinned
		// to the paper's m5 pricing, so it is skipped here.)
		crossCloud(cl.Catalog, res, pop, *workers, emit)
		topTitle += fmt.Sprintf(" (%s)", cl.Catalog.Name())
	} else if *users == 492 {
		// The paper's population priced with Table 2 (the default
		// catalog) is exactly Fig. 9's run.
		hist, stats := figures.Fig9Of(res)
		emit(hist)
		fmt.Println()
		emit(stats)
	} else {
		// Custom population: report directly.
		t := report.New(fmt.Sprintf("Hostlo savings over %d users", len(res.Users)),
			"metric", "value")
		maxAbs, maxRel := res.MaxAbsSavings()
		t.AddRow("users skipped (pod > largest VM)", res.Skipped)
		t.AddRow("users with savings", report.Percent(res.SaversFraction()))
		t.AddRow("savers above 5%", report.Percent(res.BigSaversFractionOfSavers()))
		t.AddRow("max relative savings", report.Percent(res.MaxRelSavings()))
		t.AddRow("max absolute savings $/h", maxAbs)
		t.AddRow("  (at relative savings)", report.Percent(maxRel))
		emit(t)
	}

	if *top > 0 {
		fmt.Println()
		tt := report.New(topTitle,
			"user", "kube_cost", "hostlo_cost", "savings_rel", "kube_vms", "hostlo_vms")
		for _, u := range res.TopSavers(*top) {
			tt.AddRow(u.UserID, u.KubeCostPerH, u.HostloCostPerH,
				report.Percent(u.SavingsRel()), u.KubeVMs, u.HostloVMs)
		}
		emit(tt)
	}
	tf.EmitOrDie("costsim")
}

// crossCloud prices the same static workload on the default AWS m5
// catalog and on the selected one, then prints the comparison rows the
// arbitrage scenarios read (per-catalog kube/hostlo fleet cost and the
// Hostlo savings each catalog yields).
func crossCloud(sel *cloud.Catalog, selRes cloudsim.PopulationResult,
	pop []trace.User, workers int, emit func(*report.Table)) {
	base, err := cloud.Lookup(cloud.DefaultName)
	if err != nil {
		cli.Fatal("costsim", err)
	}
	baseRes := selRes
	if sel.Name() != base.Name() {
		baseRes = cloudsim.SimulateParallel(pop, base.Types, workers)
	}
	baseKube, baseHostlo := baseRes.TotalCosts()
	selKube, selHostlo := selRes.TotalCosts()
	t := report.New(fmt.Sprintf("Cross-cloud comparison over %d users", len(pop)),
		"metric", base.Name(), sel.Name())
	t.AddRow("total kube fleet $/h", baseKube, selKube)
	t.AddRow("total hostlo fleet $/h", baseHostlo, selHostlo)
	t.AddRow("hostlo savings", report.Percent((baseKube-baseHostlo)/baseKube),
		report.Percent((selKube-selHostlo)/selKube))
	t.AddRow("users with savings", report.Percent(baseRes.SaversFraction()),
		report.Percent(selRes.SaversFraction()))
	t.AddRow("users skipped (pod > largest VM)", baseRes.Skipped, selRes.Skipped)
	emit(t)
}

// checkStatic rejects cluster-simulation settings on the static path:
// the snapshot has no fleet to manage and no clock, so only the catalog
// choice applies. explicit holds the flags set on the command line.
func checkStatic(explicit map[string]bool) error {
	for _, name := range []string{
		"spot-frac", "zones",
		"horizon", "gap", "life", "boot",
	} {
		if explicit[name] {
			return fmt.Errorf("-%s only applies to the cluster simulation (add -lifecycle or -replay)", name)
		}
	}
	return nil
}

// checkDurations rejects out-of-range duration flags, which the
// simulators would otherwise swap for their defaults while the report
// prints the value given. Zero boot, gap, life and migrate-after mean
// instant boots, static arrivals, no departures and no migration.
func checkDurations(horizon, barrier, boot, gap, life, migrateAfter time.Duration) error {
	return errors.Join(
		cli.Positive("horizon", horizon),
		cli.Positive("barrier", barrier),
		cli.NonNegative("boot", boot),
		cli.NonNegative("gap", gap),
		cli.NonNegative("life", life),
		cli.NonNegative("migrate-after", migrateAfter),
	)
}

// simOpts bundles the cluster-simulation parameters the -lifecycle and
// -replay paths share. workers is -parallel: users simulated at once on
// -lifecycle, worlds advanced at once on -replay.
type simOpts struct {
	seed    int64
	horizon time.Duration
	boot    time.Duration
	sched   *faults.Schedule
	cloud   *cloud.Resolved
	rec     *telemetry.Recorder
	emit    func(*report.Table)
	workers int
}

// clusterConfig is the per-world cluster configuration both paths run.
func (o simOpts) clusterConfig() cluster.Config {
	return cluster.Config{
		Seed:         o.seed,
		Catalog:      o.cloud.Catalog.Types,
		Horizon:      o.horizon,
		BootDelay:    o.boot,
		Faults:       o.sched,
		Zones:        o.cloud.Zones,
		ZoneNames:    o.cloud.ZoneNames,
		SpotFrac:     o.cloud.SpotFrac,
		SpotDiscount: o.cloud.SpotDiscount,
		Rec:          o.rec,
	}
}

// lifecycleOpts bundles the -lifecycle run parameters.
type lifecycleOpts struct {
	simOpts
	users int
	gap   time.Duration
	life  time.Duration
}

// runLifecycle simulates the population's cluster lifecycle under both
// policies and prints the cost/disruption summary plus the
// cost-over-time trajectory.
func runLifecycle(o lifecycleOpts) {
	cfg := trace.DefaultConfig(o.seed)
	cfg.Users = o.users
	cfg.MeanArrivalGap = o.gap
	cfg.MeanLifetime = o.life
	pop := trace.Generate(cfg)

	runs := cluster.SimulatePopulation(pop, o.clusterConfig(), o.workers)

	kubeRuns := make([]cluster.Result, len(runs))
	hostloRuns := make([]cluster.Result, len(runs))
	for i, u := range runs {
		kubeRuns[i] = u.Kube
		hostloRuns[i] = u.Hostlo
	}
	kube, hostlo := cluster.Merge(kubeRuns), cluster.Merge(hostloRuns)
	o.summary(fmt.Sprintf("Cluster lifecycle over %d users, %v horizon", len(runs), o.horizon),
		kube, hostlo, false)
}

// summary prints the Kubernetes-vs-Hostlo cost/disruption table and the
// cost-over-time trajectory of a -lifecycle or (replay true) -replay
// run. A replay adds the cross-world transfer row; a lifecycle run adds
// the reconciler and optimizer rows.
func (o simOpts) summary(title string, kube, hostlo cluster.Result, replay bool) {
	t := report.New(title, "metric", "kubernetes", "hostlo")
	t.AddRow("pods arrived", kube.Arrived, hostlo.Arrived)
	t.AddRow("pods scheduled", kube.Scheduled, hostlo.Scheduled)
	t.AddRow("pods departed", kube.Departed, hostlo.Departed)
	t.AddRow("pods failed (unschedulable)", kube.Failed, hostlo.Failed)
	t.AddRow("pods pending at horizon", kube.StillPending, hostlo.StillPending)
	if replay {
		t.AddRow("pods transferred across worlds", kube.TransferredIn, hostlo.TransferredIn)
	}
	t.AddRow("cost over horizon $", kube.CostDollars, hostlo.CostDollars)
	t.AddRow("cost split spot / on-demand $", costSplit(kube), costSplit(hostlo))
	t.AddRow("final fleet $/h", kube.FinalCostPerH, hostlo.FinalCostPerH)
	t.AddRow("final fleet nodes", kube.FinalNodes, hostlo.FinalNodes)
	t.AddRow("peak fleet nodes", kube.PeakNodes, hostlo.PeakNodes)
	t.AddRow("mean time-to-schedule", kube.TTSMean.Round(time.Millisecond), hostlo.TTSMean.Round(time.Millisecond))
	t.AddRow("scale-ups / scale-downs", fmt.Sprintf("%d / %d", kube.ScaleUps, kube.ScaleDowns),
		fmt.Sprintf("%d / %d", hostlo.ScaleUps, hostlo.ScaleDowns))
	if !replay {
		t.AddRow("reconcile rounds / actions", fmt.Sprintf("%d / %d", kube.ReconcileRounds, kube.ReconcileActions),
			fmt.Sprintf("%d / %d", hostlo.ReconcileRounds, hostlo.ReconcileActions))
	}
	t.AddRow("node kills (faults)", kube.Kills, hostlo.Kills)
	if o.cloud.SpotFrac > 0 {
		t.AddRow("spot provisions / revocations", fmt.Sprintf("%d / %d", kube.SpotProvisions, kube.SpotRevocations),
			fmt.Sprintf("%d / %d", hostlo.SpotProvisions, hostlo.SpotRevocations))
		t.AddRow("on-demand fallbacks", kube.OnDemandFallbacks, hostlo.OnDemandFallbacks)
	}
	if o.cloud.Zones > 1 {
		t.AddRow("zone kills (drills)", kube.ZoneKills, hostlo.ZoneKills)
		t.AddRow("final zone spread", spread(kube, o.cloud.ZoneNames), spread(hostlo, o.cloud.ZoneNames))
	}
	t.AddRow("pods displaced / rescheduled", fmt.Sprintf("%d / %d", kube.Displaced, kube.Reschedules),
		fmt.Sprintf("%d / %d", hostlo.Displaced, hostlo.Reschedules))
	if !replay {
		t.AddRow("optimizer runs / moves", "-", fmt.Sprintf("%d / %d", hostlo.OptimizerRuns, hostlo.OptimizerMoves))
		t.AddRow("optimizer passes incremental / full", "-",
			fmt.Sprintf("%d / %d", hostlo.OptimizerRuns-hostlo.OptimizerFull, hostlo.OptimizerFull))
		t.AddRow("packing cache hits / misses", "-",
			fmt.Sprintf("%d / %d", hostlo.OptimizerCacheHits, hostlo.OptimizerCacheMisses))
	}
	if kube.CostDollars > 0 {
		t.AddRow("hostlo savings", "-", report.Percent((kube.CostDollars-hostlo.CostDollars)/kube.CostDollars))
	}
	o.emit(t)

	fmt.Println()
	trajTitle := "Cost-over-time trajectory"
	if replay {
		trajTitle += " (merged worlds)"
	}
	tj := report.New(trajTitle,
		"t", "kube_$/h", "hostlo_$/h", "kube_pending", "hostlo_pending", "kube_util", "hostlo_util")
	mk, mh := kube.Samples, hostlo.Samples
	for i := range mk {
		tj.AddRow(mk[i].T, mk[i].CostPerH, mh[i].CostPerH,
			mk[i].Pending, mh[i].Pending,
			report.Percent(mk[i].Util()), report.Percent(mh[i].Util()))
	}
	o.emit(tj)
}

// replayOpts bundles the -replay run parameters.
type replayOpts struct {
	simOpts
	path          string
	worlds        int
	barrier       time.Duration
	migrateAfter  time.Duration
	migratePolicy string
	lenient       bool
}

// runReplay streams a recorded trace through the sharded multi-cluster
// replay under both policies and prints the stream stats, the
// cost/disruption summary and the merged trajectory. Each policy
// records on its own child of o.rec labeled with the policy, so its
// worlds read kubernetes/world-0, ..., hostlo/world-0, ... on the
// shared timeline.
func runReplay(o replayOpts) {
	run := func(policy cluster.Policy) (shard.Result, ctrace.Stats) {
		// Reopen per policy: both runs consume the identical stream.
		r, err := ctrace.Open(o.path, ctrace.Options{Lenient: o.lenient})
		if err != nil {
			cli.Fatal("costsim", err)
		}
		defer r.Close()
		cfg := o.clusterConfig()
		cfg.Policy = policy
		cfg.Rec = o.rec.Child()
		cfg.Rec.BeginRun(policy.String())
		res, err := shard.Replay(r, shard.Config{
			Worlds:        o.worlds,
			Shards:        o.workers,
			BarrierEvery:  o.barrier,
			MigrateAfter:  o.migrateAfter,
			MigratePolicy: o.migratePolicy,
			Cluster:       cfg,
		})
		if err != nil {
			cli.Fatal("costsim", err)
		}
		o.rec.Append(cfg.Rec)
		return res, r.Stats()
	}
	kubeRes, stats := run(cluster.Kubernetes)
	hostloRes, _ := run(cluster.Hostlo)

	// The title names only the experiment (worlds), never the execution
	// (-parallel): stdout is byte-identical for every worker count.
	st := report.New(fmt.Sprintf("Trace replay: %s over %d worlds", o.path, o.worlds),
		"metric", "value")
	st.AddRow("trace rows read", stats.Rows)
	st.AddRow("rows ignored (non-lifecycle)", stats.Ignored)
	st.AddRow("rows skipped (-lenient)", stats.Skipped)
	st.AddRow("pod submits", kubeRes.Submits)
	st.AddRow("pod ends", kubeRes.Ends)
	st.AddRow("submits beyond horizon", kubeRes.BeyondHorizon)
	st.AddRow("barrier epochs", kubeRes.Epochs)
	st.AddRow("migrations kube / hostlo", fmt.Sprintf("%d / %d", kubeRes.Migrations, hostloRes.Migrations))
	st.AddRow("state digest kube", fmt.Sprintf("%016x", kubeRes.Digest))
	st.AddRow("state digest hostlo", fmt.Sprintf("%016x", hostloRes.Digest))
	o.emit(st)
	fmt.Println()

	o.summary(fmt.Sprintf("Sharded trace replay, %v horizon", o.horizon),
		kubeRes.Merged, hostloRes.Merged, true)
}

// costSplit renders the spot/on-demand halves of the cost integral.
func costSplit(r cluster.Result) string {
	return fmt.Sprintf("%.4g / %.4g", r.CostSpotDollars, r.CostOnDemandDollars)
}

// spread renders the final per-zone live-node counts.
func spread(r cluster.Result, names []string) string {
	parts := make([]string, len(r.ZoneSpread))
	for i, v := range r.ZoneSpread {
		name := fmt.Sprintf("z%d", i)
		if i < len(names) {
			name = names[i]
		}
		parts[i] = fmt.Sprintf("%s=%d", name, v)
	}
	return strings.Join(parts, " ")
}

// record instruments the (engine-less) placement run post hoc: one
// instant event per user on a manual 1 ms-per-user clock, plus summary
// metrics. rec may be nil.
func record(rec *telemetry.Recorder, res cloudsim.PopulationResult) {
	if rec == nil {
		return
	}
	reg := rec.Metrics()
	reg.Counter("costsim/users").Add(float64(len(res.Users)))
	sav := reg.Series("costsim/savings_rel")
	for i, u := range res.Users {
		rec.SetNow(sim.Time(i) * sim.Time(time.Millisecond))
		rec.Instant("costsim", fmt.Sprintf("user-%d", u.UserID), "savings_rel", u.SavingsRel())
		sav.Add(u.SavingsRel())
	}
	kube, hostlo := res.TotalCosts()
	reg.Counter("costsim/kube_cost_per_h").Add(kube)
	reg.Counter("costsim/hostlo_cost_per_h").Add(hostlo)
}
