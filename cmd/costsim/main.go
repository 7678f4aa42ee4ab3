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
// m5 table: -cloud selects a registered catalog (optionally with
// zone=/spot= keys), -zones spreads the lifecycle fleet across
// availability-zone failure domains, -spot-frac runs part of it on
// discounted spot capacity (revocation is a seeded fault;
// spot/*:crash:p=0.02 is merged in unless -faults already covers
// spot/):
//
//	costsim -cloud gcp:n2                  # static cross-cloud comparison
//	costsim -lifecycle -cloud gcp:n2 -zones 3 -spot-frac 0.5
//	costsim -lifecycle -cloud 'gcp:n2:zone=3:spot=0.5'
//
// The -replay flag feeds a recorded cluster trace file (CSV or JSONL,
// optionally gzipped — see internal/ctrace) through the sharded
// multi-cluster replay (internal/shard) instead of generating a
// synthetic population. Both policies run over the same stream; the
// trace is reopened per policy. -shards picks the execution
// parallelism (byte-identical output for any value), -worlds the
// logical partition count (part of the experiment):
//
//	ctracegen -users 200 -out t.csv.gz
//	costsim -replay t.csv.gz -shards 4
//	costsim -replay t.csv.gz -worlds 8 -migrate-after 20m -migrate-policy locality
//	costsim -replay big3d.csv.gz -shards 8 -horizon 72h   # multi-day, bounded memory
//
// The feed is pipelined (epoch N+1 prefetches while epoch N advances)
// and each world's stored trajectory is bounded by -sample-cap (default
// 512 samples, window-folded on the fly).
//
// Cluster-simulation flags (-horizon, -gap, -life, -boot, -full-repack,
// -repack-workers, -repack-cache, -spot-frac, -zones) are rejected with
// exit status 2 on the static path.
//
// Add -trace out.json for a per-user trace of the placement run and
// -metrics for the telemetry tables. (-trace names the telemetry
// OUTPUT; the trace INPUT is -replay.)
package main

import (
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
	fullRepack := flag.Bool("full-repack", false,
		"lifecycle: pin the Hostlo optimizer to full-fleet passes instead of dirty-set incremental ones")
	repackWorkers := flag.Int("repack-workers", 0,
		"lifecycle: goroutines one incremental optimize pass fans candidate groups across (0 = GOMAXPROCS; any value is byte-identical)")
	repackCache := flag.Int("repack-cache", 0,
		"lifecycle: packing-cache entries per cluster world (0 = default 4096, negative = caching off; placements are byte-identical either way)")
	replay := flag.String("replay", "",
		"replay a recorded cluster trace file (csv/jsonl, .gz ok; see internal/ctrace) through the sharded lifecycle simulation instead of generating a workload")
	shards := flag.Int("shards", 1,
		"replay: goroutines executing the cluster worlds (any value is byte-identical to -shards 1)")
	worlds := flag.Int("worlds", 8,
		"replay: logical cluster worlds the trace is hash-partitioned over (changes the experiment, unlike -shards)")
	barrier := flag.Duration("barrier", 15*time.Minute,
		"replay: epoch length between world synchronization barriers")
	migrateAfter := flag.Duration("migrate-after", 0,
		"replay: transfer pods pending longer than this to another world at each barrier (0 = off)")
	lenient := flag.Bool("lenient", false,
		"replay: skip malformed trace rows instead of failing")
	migratePolicy := flag.String("migrate-policy", "least-loaded",
		"replay: destination policy for -migrate-after transfers: least-loaded or locality")
	sampleCap := flag.Int("sample-cap", 0,
		"replay: bound each world's stored trajectory to this many samples, window-folding on the fly (0 = default 512, negative = unlimited)")
	cloudSpec := flag.String("cloud", cloud.DefaultName,
		"machine catalog selector: provider:family[:zone=N][:spot=F] (registered: "+strings.Join(cloud.Names(), ", ")+")")
	spotFrac := flag.Float64("spot-frac", 0,
		"lifecycle: target fraction of the fleet on spot capacity, in [0,1] (needs a spot-capable catalog)")
	zones := flag.Int("zones", 1,
		"lifecycle: availability zones the fleet spreads across (bounded by the catalog's zone list)")
	workers := cli.ParallelFlag()
	faultSpec := cli.FaultsFlag()
	tf := cli.TelemetryFlags()
	prof := cli.ProfileFlags()
	flag.Parse()
	cli.CheckParallel(*workers)
	sched := cli.ParseFaults(*faultSpec)
	if *shards < 1 {
		cli.BadFlag("costsim: -shards must be >= 1, got %d", *shards)
	}
	if *worlds < 1 {
		cli.BadFlag("costsim: -worlds must be >= 1, got %d", *worlds)
	}
	if *repackWorkers < 0 {
		cli.BadFlag("costsim: -repack-workers must be >= 0, got %d", *repackWorkers)
	}
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	cl, err := cloud.Resolve(cloud.Options{
		Spec:     *cloudSpec,
		SpotFrac: *spotFrac, SpotFracSet: explicit["spot-frac"],
		Zones: *zones, ZonesSet: explicit["zones"],
	})
	if err != nil {
		cli.BadFlag("costsim: %v", err)
	}
	if !*lifecycle && *replay == "" {
		if err := checkStatic(explicit, cl); err != nil {
			cli.BadFlag("costsim: %v", err)
		}
	}
	// Spot capacity without a revocation rule would be free money:
	// unless the user's -faults spec already says something about
	// spot/ points, merge the default revocation schedule in after
	// their rules.
	if cl.SpotFrac > 0 && !sched.HasPointPrefix("spot/") {
		def, derr := faults.ParseSpec(cloud.DefaultRevocationSpec)
		if derr != nil {
			cli.Fatal("costsim", derr)
		}
		sched = faults.Merge(sched, def)
	}
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
		for _, name := range []string{"shards", "worlds", "barrier", "migrate-after", "lenient", "migrate-policy", "sample-cap"} {
			if explicit[name] {
				cli.BadFlag("costsim: -%s only applies to a trace replay (add -replay FILE)", name)
			}
		}
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

	switch *table {
	case 0:
	case 2:
		emit(figures.Table2())
		return
	default:
		cli.BadFlag("costsim: unknown table %d (want 2)", *table)
	}
	if *users <= 0 {
		cli.BadFlag("costsim: -users must be positive, got %d", *users)
	}

	so := simOpts{
		seed: *seed, horizon: *horizon, boot: *boot, sched: sched,
		fullRepack: *fullRepack, repackWorkers: *repackWorkers, repackCache: *repackCache,
		cloud: cl, rec: tf.Recorder(), emit: emit,
	}
	if *replay != "" {
		runReplay(replayOpts{
			simOpts: so, path: *replay, shards: *shards, worlds: *worlds, barrier: *barrier,
			migrateAfter: *migrateAfter, migratePolicy: *migratePolicy,
			sampleCap: *sampleCap, lenient: *lenient,
		})
		tf.EmitOrDie("costsim")
		return
	}

	if *lifecycle {
		runLifecycle(lifecycleOpts{simOpts: so, users: *users, gap: *gap, life: *life, workers: *workers})
		tf.EmitOrDie("costsim")
		return
	}

	// Telemetry records per-user events in trace order, so the fan-out
	// stays serial when a recorder is active (same rule as the figures).
	simWorkers := *workers
	if tf.Recorder() != nil {
		simWorkers = 1
	}
	cfg := trace.DefaultConfig(*seed)
	cfg.Users = *users
	pop := trace.Generate(cfg)
	res := cloudsim.SimulateParallel(pop, cl.Catalog.Types, simWorkers)
	record(tf.Recorder(), res)

	if explicit["cloud"] {
		// An explicit catalog choice turns the run into a cross-cloud
		// comparison: the same workload priced on the default AWS m5
		// table and on the selected catalog. (Fig. 9 itself is pinned
		// to the paper's m5 pricing, so it is skipped here.)
		crossCloud(cl.Catalog, res, pop, simWorkers, emit)
		if *top > 0 {
			fmt.Println()
			tt := report.New(fmt.Sprintf("Top %d savers (%s)", *top, cl.Catalog.Name()),
				"user", "kube_cost", "hostlo_cost", "savings_rel", "kube_vms", "hostlo_vms")
			for _, u := range res.TopSavers(*top) {
				tt.AddRow(u.UserID, u.KubeCostPerH, u.HostloCostPerH,
					report.Percent(u.SavingsRel()), u.KubeVMs, u.HostloVMs)
			}
			emit(tt)
		}
		tf.EmitOrDie("costsim")
		return
	}

	hist, stats := figures.Fig9(figures.Opts{Seed: *seed, Quick: *users != 492, Workers: *workers})
	if *users == 492 {
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
		tt := report.New(fmt.Sprintf("Top %d savers", *top),
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
func checkStatic(explicit map[string]bool, cl *cloud.Resolved) error {
	for _, name := range []string{
		"spot-frac", "zones",
		"full-repack", "repack-workers", "repack-cache",
		"horizon", "gap", "life", "boot",
	} {
		if explicit[name] {
			return fmt.Errorf("-%s only applies to the cluster simulation (add -lifecycle or -replay)", name)
		}
	}
	if cl.SpotFrac > 0 || cl.Zones > 1 {
		return fmt.Errorf("zone=/spot= in -cloud only apply to the cluster simulation (add -lifecycle or -replay)")
	}
	return nil
}

// simOpts bundles the cluster-simulation parameters the -lifecycle and
// -replay paths share.
type simOpts struct {
	seed          int64
	horizon       time.Duration
	boot          time.Duration
	sched         *faults.Schedule
	fullRepack    bool
	repackWorkers int
	repackCache   int
	cloud         *cloud.Resolved
	rec           *telemetry.Recorder
	emit          func(*report.Table)
}

// clusterConfig is the per-world cluster configuration both paths run.
func (o simOpts) clusterConfig() cluster.Config {
	return cluster.Config{
		Seed:          o.seed,
		Catalog:       o.cloud.Catalog.Types,
		Horizon:       o.horizon,
		BootDelay:     o.boot,
		Faults:        o.sched,
		FullRepack:    o.fullRepack,
		RepackWorkers: o.repackWorkers,
		PackCacheSize: o.repackCache,
		Zones:         o.cloud.Zones,
		ZoneNames:     o.cloud.ZoneNames,
		SpotFrac:      o.cloud.SpotFrac,
		SpotDiscount:  o.cloud.SpotDiscount,
		Rec:           o.rec,
	}
}

// lifecycleOpts bundles the -lifecycle run parameters.
type lifecycleOpts struct {
	simOpts
	users   int
	gap     time.Duration
	life    time.Duration
	workers int
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

	var kube, hostlo aggregate
	kubeTraj := make([]cluster.Result, len(runs))
	hostloTraj := make([]cluster.Result, len(runs))
	for i, u := range runs {
		kube.add(u.Kube)
		hostlo.add(u.Hostlo)
		kubeTraj[i] = u.Kube
		hostloTraj[i] = u.Hostlo
	}

	t := report.New(fmt.Sprintf("Cluster lifecycle over %d users, %v horizon", len(runs), o.horizon),
		"metric", "kubernetes", "hostlo")
	t.AddRow("pods arrived", kube.arrived, hostlo.arrived)
	t.AddRow("pods scheduled", kube.scheduled, hostlo.scheduled)
	t.AddRow("pods departed", kube.departed, hostlo.departed)
	t.AddRow("pods failed (unschedulable)", kube.failed, hostlo.failed)
	t.AddRow("pods pending at horizon", kube.pending, hostlo.pending)
	t.AddRow("cost over horizon $", kube.dollars, hostlo.dollars)
	t.AddRow("cost split spot / on-demand $", kube.costSplit(), hostlo.costSplit())
	t.AddRow("final fleet $/h", kube.finalRate, hostlo.finalRate)
	t.AddRow("final fleet nodes", kube.finalNodes, hostlo.finalNodes)
	t.AddRow("peak fleet nodes", kube.peakNodes, hostlo.peakNodes)
	t.AddRow("mean time-to-schedule", kube.ttsMean(), hostlo.ttsMean())
	t.AddRow("scale-ups / scale-downs", fmt.Sprintf("%d / %d", kube.scaleUps, kube.scaleDowns),
		fmt.Sprintf("%d / %d", hostlo.scaleUps, hostlo.scaleDowns))
	t.AddRow("reconcile rounds / actions", fmt.Sprintf("%d / %d", kube.reconRounds, kube.reconActions),
		fmt.Sprintf("%d / %d", hostlo.reconRounds, hostlo.reconActions))
	t.AddRow("node kills (faults)", kube.kills, hostlo.kills)
	if o.cloud.SpotFrac > 0 {
		t.AddRow("spot provisions / revocations", fmt.Sprintf("%d / %d", kube.spotProv, kube.spotRevoked),
			fmt.Sprintf("%d / %d", hostlo.spotProv, hostlo.spotRevoked))
		t.AddRow("on-demand fallbacks", kube.odFallbacks, hostlo.odFallbacks)
	}
	if o.cloud.Zones > 1 {
		t.AddRow("zone kills (drills)", kube.zoneKills, hostlo.zoneKills)
		t.AddRow("final zone spread", kube.spread(o.cloud.ZoneNames), hostlo.spread(o.cloud.ZoneNames))
	}
	t.AddRow("pods displaced / rescheduled", fmt.Sprintf("%d / %d", kube.displaced, kube.reschedules),
		fmt.Sprintf("%d / %d", hostlo.displaced, hostlo.reschedules))
	t.AddRow("optimizer runs / moves", "-", fmt.Sprintf("%d / %d", hostlo.optRuns, hostlo.optMoves))
	t.AddRow("optimizer passes incremental / full", "-",
		fmt.Sprintf("%d / %d", hostlo.optRuns-hostlo.optFull, hostlo.optFull))
	t.AddRow("packing cache hits / misses", "-",
		fmt.Sprintf("%d / %d", hostlo.cacheHits, hostlo.cacheMisses))
	if kube.dollars > 0 {
		t.AddRow("hostlo savings", "-", report.Percent((kube.dollars-hostlo.dollars)/kube.dollars))
	}
	o.emit(t)

	fmt.Println()
	tj := report.New("Cost-over-time trajectory",
		"t", "kube_$/h", "hostlo_$/h", "kube_pending", "hostlo_pending", "kube_util", "hostlo_util")
	mk := cluster.MergeTrajectories(kubeTraj)
	mh := cluster.MergeTrajectories(hostloTraj)
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
	shards        int
	worlds        int
	barrier       time.Duration
	migrateAfter  time.Duration
	migratePolicy string
	sampleCap     int
	lenient       bool
}

// runReplay streams a recorded trace through the sharded multi-cluster
// replay under both policies and prints the stream stats, the
// cost/disruption summary and the merged trajectory.
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
		cfg.SampleCap = o.sampleCap
		res, err := shard.Replay(r, shard.Config{
			Worlds:        o.worlds,
			Shards:        o.shards,
			BarrierEvery:  o.barrier,
			MigrateAfter:  o.migrateAfter,
			MigratePolicy: o.migratePolicy,
			Cluster:       cfg,
		})
		if err != nil {
			cli.Fatal("costsim", err)
		}
		return res, r.Stats()
	}
	kubeRes, stats := run(cluster.Kubernetes)
	hostloRes, _ := run(cluster.Hostlo)

	// The title names only the experiment (worlds), never the execution
	// (-shards): stdout is byte-identical for every shard count.
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

	var kube, hostlo aggregate
	kube.add(kubeRes.Merged)
	hostlo.add(hostloRes.Merged)
	t := report.New(fmt.Sprintf("Sharded trace replay, %v horizon", o.horizon),
		"metric", "kubernetes", "hostlo")
	t.AddRow("pods arrived", kube.arrived, hostlo.arrived)
	t.AddRow("pods scheduled", kube.scheduled, hostlo.scheduled)
	t.AddRow("pods departed", kube.departed, hostlo.departed)
	t.AddRow("pods failed (unschedulable)", kube.failed, hostlo.failed)
	t.AddRow("pods pending at horizon", kube.pending, hostlo.pending)
	t.AddRow("pods transferred across worlds", kube.transfers, hostlo.transfers)
	t.AddRow("cost over horizon $", kube.dollars, hostlo.dollars)
	t.AddRow("cost split spot / on-demand $", kube.costSplit(), hostlo.costSplit())
	t.AddRow("final fleet $/h", kube.finalRate, hostlo.finalRate)
	t.AddRow("final fleet nodes", kube.finalNodes, hostlo.finalNodes)
	t.AddRow("peak fleet nodes", kube.peakNodes, hostlo.peakNodes)
	t.AddRow("mean time-to-schedule", kube.ttsMean(), hostlo.ttsMean())
	t.AddRow("scale-ups / scale-downs", fmt.Sprintf("%d / %d", kube.scaleUps, kube.scaleDowns),
		fmt.Sprintf("%d / %d", hostlo.scaleUps, hostlo.scaleDowns))
	t.AddRow("node kills (faults)", kube.kills, hostlo.kills)
	if o.cloud.SpotFrac > 0 {
		t.AddRow("spot provisions / revocations", fmt.Sprintf("%d / %d", kube.spotProv, kube.spotRevoked),
			fmt.Sprintf("%d / %d", hostlo.spotProv, hostlo.spotRevoked))
		t.AddRow("on-demand fallbacks", kube.odFallbacks, hostlo.odFallbacks)
	}
	if o.cloud.Zones > 1 {
		t.AddRow("zone kills (drills)", kube.zoneKills, hostlo.zoneKills)
		t.AddRow("final zone spread", kube.spread(o.cloud.ZoneNames), hostlo.spread(o.cloud.ZoneNames))
	}
	t.AddRow("pods displaced / rescheduled", fmt.Sprintf("%d / %d", kube.displaced, kube.reschedules),
		fmt.Sprintf("%d / %d", hostlo.displaced, hostlo.reschedules))
	if kube.dollars > 0 {
		t.AddRow("hostlo savings", "-", report.Percent((kube.dollars-hostlo.dollars)/kube.dollars))
	}
	o.emit(t)

	fmt.Println()
	tj := report.New("Cost-over-time trajectory (merged worlds)",
		"t", "kube_$/h", "hostlo_$/h", "kube_pending", "hostlo_pending", "kube_util", "hostlo_util")
	mk := kubeRes.Merged.Samples
	mh := hostloRes.Merged.Samples
	for i := range mk {
		tj.AddRow(mk[i].T, mk[i].CostPerH, mh[i].CostPerH,
			mk[i].Pending, mh[i].Pending,
			report.Percent(mk[i].Util()), report.Percent(mh[i].Util()))
	}
	o.emit(tj)
}

// aggregate sums Result fields across a population.
type aggregate struct {
	arrived, scheduled, departed, failed, pending    int
	finalNodes, peakNodes, scaleUps, scaleDowns      int
	kills, displaced, reschedules, optRuns, optMoves int
	optFull, transfers, cacheHits, cacheMisses       int
	spotProv, spotRevoked, odFallbacks, zoneKills    int
	reconRounds, reconActions                        int
	zoneSpread                                       []int
	dollars, finalRate, spotDollars, odDollars       float64
	ttsSum                                           time.Duration
}

func (a *aggregate) add(r cluster.Result) {
	a.arrived += r.Arrived
	a.scheduled += r.Scheduled
	a.departed += r.Departed
	a.failed += r.Failed
	a.pending += r.StillPending
	a.finalNodes += r.FinalNodes
	a.peakNodes += r.PeakNodes
	a.scaleUps += r.ScaleUps
	a.scaleDowns += r.ScaleDowns
	a.kills += r.Kills
	a.displaced += r.Displaced
	a.reschedules += r.Reschedules
	a.transfers += r.TransferredIn
	a.optRuns += r.OptimizerRuns
	a.optFull += r.OptimizerFull
	a.optMoves += r.OptimizerMoves
	a.cacheHits += r.OptimizerCacheHits
	a.cacheMisses += r.OptimizerCacheMisses
	a.spotProv += r.SpotProvisions
	a.spotRevoked += r.SpotRevocations
	a.odFallbacks += r.OnDemandFallbacks
	a.zoneKills += r.ZoneKills
	a.reconRounds += r.ReconcileRounds
	a.reconActions += r.ReconcileActions
	for i, v := range r.ZoneSpread {
		if i >= len(a.zoneSpread) {
			a.zoneSpread = append(a.zoneSpread, 0)
		}
		a.zoneSpread[i] += v
	}
	a.dollars += r.CostDollars
	a.finalRate += r.FinalCostPerH
	a.spotDollars += r.CostSpotDollars
	a.odDollars += r.CostOnDemandDollars
	a.ttsSum += r.TTSSum
}

// costSplit renders the spot/on-demand halves of the cost integral.
func (a *aggregate) costSplit() string {
	return fmt.Sprintf("%.4g / %.4g", a.spotDollars, a.odDollars)
}

// spread renders the final per-zone live-node counts.
func (a *aggregate) spread(names []string) string {
	parts := make([]string, len(a.zoneSpread))
	for i, v := range a.zoneSpread {
		name := fmt.Sprintf("z%d", i)
		if i < len(names) {
			name = names[i]
		}
		parts[i] = fmt.Sprintf("%s=%d", name, v)
	}
	return strings.Join(parts, " ")
}

// ttsMean is the population-level mean time-to-schedule.
func (a *aggregate) ttsMean() time.Duration {
	if a.scheduled == 0 {
		return 0
	}
	return (a.ttsSum / time.Duration(a.scheduled)).Round(time.Millisecond)
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
	reg.Gauge("costsim/kube_cost_per_h").Set(kube)
	reg.Gauge("costsim/hostlo_cost_per_h").Set(hostlo)
}
