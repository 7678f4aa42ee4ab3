// Command costsim regenerates the Hostlo cost-saving simulation
// (Fig. 9, §5.3.1): per-user VM fleet costs under Kubernetes whole-pod
// placement versus Hostlo container-level placement, over a synthetic
// Google-cluster-trace population priced with the AWS EC2 m5 catalog.
// (The catalog itself, Table 2, is `figures -fig table2`.)
//
//	costsim                # Fig. 9 histogram + headline statistics
//	costsim -users 1000    # a larger population
//	costsim -top 10        # also list the top savers
//
// costsim runs one mode per command line: the bare command above, or
// a mode named by its first argument. Each mode registers only the
// flags it reads, so a flag it would ignore fails to parse like any
// unknown flag (exit 2), and so does an argument the mode does not
// take. A negative duration, or a zero -horizon/-barrier, exits 2 too.
//
// The lifecycle mode switches from the static snapshot pricing to the
// event-driven cluster simulation (internal/cluster): pods arrive and
// depart over a horizon, an autoscaler grows and reclaims the VM fleet,
// and -faults node-kill schedules displace pods mid-run. It reports
// Kubernetes-vs-Hostlo cost integrals, time-to-schedule statistics, and
// the cost-over-time trajectory:
//
//	costsim lifecycle -users 100
//	costsim lifecycle -horizon 8h -gap 2m -life 45m
//	costsim lifecycle -faults 'node/*:crash:p=0.01'
//
// The machine subsystem (internal/cloud) generalizes the hard-coded
// m5 table: -cloud names a registered catalog, -zones spreads the
// cluster fleet across availability-zone failure domains, -spot-frac
// runs part of it on discounted spot capacity (revocation is a seeded
// fault; spot/*:crash:p=0.02 is merged in unless -faults already
// covers spot/):
//
//	costsim -cloud gcp:n2                  # non-default catalog: cross-cloud comparison
//	costsim lifecycle -cloud gcp:n2 -zones 3 -spot-frac 0.5
//
// The replay mode feeds a recorded Google cluster trace FILE (2011
// task_events CSV or 2019 instance_events JSON, optionally gzipped —
// see internal/ctrace) through the sharded multi-cluster replay
// (internal/shard) instead of generating a synthetic population. Both
// policies run over the same stream; the trace is reopened per policy.
// -parallel picks how many goroutines execute the worlds
// (byte-identical output for any value), -worlds the logical partition
// count (part of the experiment). Flags go before FILE:
//
//	ctracegen -users 200 -out t.csv.gz
//	costsim replay -parallel 4 t.csv.gz
//	costsim replay -worlds 8 -migrate-after 20m -migrate-policy locality t.csv.gz
//	costsim replay -parallel 8 -horizon 72h big3d.csv.gz   # multi-day, bounded memory
//
// The feed is pipelined (epoch N+1 prefetches while epoch N advances)
// and each world stores a fixed 12-point trajectory (one sample every
// horizon/12), so a replay's memory is its live pod table.
//
// Add -trace out.json for a per-user trace of the placement run and
// -metrics for the telemetry tables. (-trace names the telemetry
// OUTPUT; the trace INPUT is replay's FILE.) A replay records each
// policy under its own label (kubernetes/world-0, ...,
// hostlo/world-0, ...).
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

// usage lists the command lines; a mode's usage adds its own flags.
const usage = `usage:
  costsim [flags]              Fig. 9, or the cross-cloud table under a non-default -cloud
  costsim lifecycle [flags]    the event-driven cluster lifecycle
  costsim replay [flags] FILE  the sharded replay of a recorded cluster trace`

func main() {
	mode, args := "", os.Args[1:]
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		mode, args = args[0], args[1:]
	}
	run := map[string]func([]string){"": staticMode, "lifecycle": lifecycleMode, "replay": replayMode}[mode]
	if run == nil {
		flag.Usage = func() { fmt.Fprintln(os.Stderr, usage) }
		cli.BadFlag("costsim: unknown mode %q (want lifecycle or replay; Fig. 9 takes flags only)", mode)
	}
	// The mode's flag set becomes the command line, so the cli flag
	// helpers register on it and cli.BadFlag prints its usage.
	fs := flag.NewFlagSet(strings.TrimSpace("costsim "+mode), flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "%s\n\nflags of %s:\n", usage, fs.Name())
		fs.PrintDefaults()
	}
	flag.CommandLine, flag.Usage = fs, fs.Usage
	run(args)
}

// parse parses a mode's arguments and returns its positional ones,
// exactly files of them. Flag parsing stops at the first non-flag
// argument, so a flag after it would otherwise be dropped silently.
func parse(args []string, files int) []string {
	flag.CommandLine.Parse(args) // ExitOnError: a flag the mode does not take exits 2
	rest := flag.Args()
	switch {
	case len(rest) > files:
		cli.BadFlag("%s: unexpected argument %q", flag.CommandLine.Name(), rest[files])
	case len(rest) < files:
		cli.BadFlag("%s: missing trace FILE", flag.CommandLine.Name())
	}
	return rest
}

// common holds the flags every mode reads.
type common struct {
	seed    int64
	csv     bool
	catalog string
	workers *int
	tf      *cli.Telemetry
	prof    *cli.Profile
}

func commonFlags() *common {
	c := &common{workers: cli.ParallelFlag(), tf: cli.TelemetryFlags(), prof: cli.ProfileFlags()}
	flag.Int64Var(&c.seed, "seed", 42, "generator seed")
	flag.BoolVar(&c.csv, "csv", false, "emit CSV instead of aligned tables")
	flag.StringVar(&c.catalog, "cloud", cloud.DefaultName,
		"machine catalog: one of "+strings.Join(cloud.Names(), ", "))
	return c
}

// begin checks the shared flags, resolves the machine catalog and
// starts the profile. The mode checks its own flags first, so a
// rejected run leaves no profile behind; pair it with a deferred
// c.prof.Stop.
func (c *common) begin(spotFrac float64, zones int) *cloud.Resolved {
	cli.CheckParallel(*c.workers)
	cl, err := cloud.Resolve(cloud.Options{Spec: c.catalog, SpotFrac: spotFrac, Zones: zones})
	if err != nil {
		cli.BadFlag("costsim: %v", err)
	}
	c.prof.Start("costsim")
	return cl
}

// emit prints a table as -csv asks.
func (c *common) emit(t *report.Table) {
	if c.csv {
		t.WriteCSV(os.Stdout)
	} else {
		t.WriteText(os.Stdout)
	}
}

// usersFlag registers -users, the generated population of the static
// and lifecycle modes; checkUsers rejects an empty one.
func usersFlag() *int {
	return flag.Int("users", 492, "population size (the paper simulates 492 users)")
}

func checkUsers(n int) {
	if n <= 0 {
		cli.BadFlag("costsim: -users must be positive, got %d", n)
	}
}

// clusterOpts holds the flags both cluster modes read and, once begin
// has checked them, the machine model and fault schedule they resolve
// to. -parallel is the users simulated at once by lifecycle and the
// worlds advanced at once by replay.
type clusterOpts struct {
	*common
	horizon   time.Duration
	boot      time.Duration
	spotFrac  float64
	zones     int
	faultSpec *string
	cloud     *cloud.Resolved  // set by begin
	sched     *faults.Schedule // set by begin
}

func clusterFlags() *clusterOpts {
	o := &clusterOpts{common: commonFlags(), faultSpec: cli.FaultsFlag()}
	flag.DurationVar(&o.horizon, "horizon", 8*time.Hour, "simulation horizon")
	flag.DurationVar(&o.boot, "boot", 45*time.Second, "VM boot delay")
	flag.Float64Var(&o.spotFrac, "spot-frac", 0,
		"target fraction of the fleet on spot capacity, in [0,1] (needs a spot-capable catalog)")
	flag.IntVar(&o.zones, "zones", 1,
		"availability zones the fleet spreads across, >= 1 (bounded by the catalog's zone list)")
	return o
}

// begin checks the cluster flags and the mode's own duration checks
// (cli.Positive/NonNegative results), then resolves the run and starts
// it as common.begin does. The simulators would swap an out-of-range
// duration for their default while the report printed the value given;
// zero boot, gap, life and migrate-after mean instant boots, static
// arrivals, no departures and no migration.
func (o *clusterOpts) begin(durations ...error) {
	sched := cli.ParseFaults(*o.faultSpec)
	shared := []error{cli.Positive("horizon", o.horizon), cli.NonNegative("boot", o.boot)}
	if err := errors.Join(append(shared, durations...)...); err != nil {
		cli.BadFlag("costsim: %v", err)
	}
	// cloud.Resolve reads zero zones as one; reject it here so the
	// report never shows a fleet the flag did not ask for.
	if o.zones < 1 {
		cli.BadFlag("costsim: -zones must be >= 1, got %d", o.zones)
	}
	o.cloud = o.common.begin(o.spotFrac, o.zones)
	o.sched = o.cloud.WithDefaultRevocation(sched)
}

// staticMode prices the population's snapshot under both placements:
// Fig. 9 for the paper's population, a savings summary for any other,
// or the cross-cloud table under a non-default catalog.
func staticMode(args []string) {
	c := commonFlags()
	users := usersFlag()
	top := flag.Int("top", 0, "also list the top-N savers")
	parse(args, 0)
	checkUsers(*users)
	cl := c.begin(0, 1)
	defer c.prof.Stop("costsim")

	cfg := trace.DefaultConfig(c.seed)
	cfg.Users = *users
	pop := trace.Generate(cfg)
	res := cloudsim.SimulateParallel(pop, cl.Catalog.Types, *c.workers)
	record(c.tf.Recorder(), res)

	topTitle := fmt.Sprintf("Top %d savers", *top)
	if cl.Catalog.Name() != cloud.DefaultName {
		// A non-default catalog turns the run into a cross-cloud
		// comparison: the same workload priced on the default AWS m5
		// table and on the selected catalog. (Fig. 9 itself is pinned
		// to the paper's m5 pricing, so it is skipped here.)
		crossCloud(cl.Catalog, res, pop, *c.workers, c.emit)
		topTitle += fmt.Sprintf(" (%s)", cl.Catalog.Name())
	} else if *users == 492 {
		// The paper's population priced with Table 2 (the default
		// catalog) is exactly Fig. 9's run.
		hist, stats := figures.Fig9Of(res)
		c.emit(hist)
		fmt.Println()
		c.emit(stats)
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
		c.emit(t)
	}

	if *top > 0 {
		fmt.Println()
		tt := report.New(topTitle,
			"user", "kube_cost", "hostlo_cost", "savings_rel", "kube_vms", "hostlo_vms")
		for _, u := range res.TopSavers(*top) {
			tt.AddRow(u.UserID, u.KubeCostPerH, u.HostloCostPerH,
				report.Percent(u.SavingsRel()), u.KubeVMs, u.HostloVMs)
		}
		c.emit(tt)
	}
	c.tf.EmitOrDie("costsim")
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
	baseRes := cloudsim.SimulateParallel(pop, base.Types, workers)
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

// clusterConfig is the per-world cluster configuration both paths run.
func (o *clusterOpts) clusterConfig() cluster.Config {
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
		Rec:          o.tf.Recorder(),
	}
}

// lifecycleMode simulates the generated population's cluster lifecycle
// under both policies and prints the cost/disruption summary plus the
// cost-over-time trajectory.
func lifecycleMode(args []string) {
	o := clusterFlags()
	users := usersFlag()
	gap := flag.Duration("gap", 2*time.Minute, "mean pod inter-arrival gap")
	life := flag.Duration("life", 45*time.Minute, "mean pod lifetime (Pareto-tailed)")
	parse(args, 0)
	checkUsers(*users)
	o.begin(cli.NonNegative("gap", *gap), cli.NonNegative("life", *life))
	defer o.prof.Stop("costsim")

	cfg := trace.DefaultConfig(o.seed)
	cfg.Users = *users
	cfg.MeanArrivalGap = *gap
	cfg.MeanLifetime = *life
	runs := cluster.SimulatePopulation(trace.Generate(cfg), o.clusterConfig(), *o.workers)

	kubeRuns := make([]cluster.Result, len(runs))
	hostloRuns := make([]cluster.Result, len(runs))
	for i, u := range runs {
		kubeRuns[i] = u.Kube
		hostloRuns[i] = u.Hostlo
	}
	kube, hostlo := cluster.Merge(kubeRuns), cluster.Merge(hostloRuns)
	o.summary(fmt.Sprintf("Cluster lifecycle over %d users, %v horizon", len(runs), o.horizon),
		kube, hostlo, false)
	o.tf.EmitOrDie("costsim")
}

// summary prints the Kubernetes-vs-Hostlo cost/disruption table and the
// cost-over-time trajectory of a lifecycle or (replay true) replay
// run. A replay adds the cross-world transfer row; a lifecycle run adds
// the reconciler and optimizer rows.
func (o *clusterOpts) summary(title string, kube, hostlo cluster.Result, replay bool) {
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

// replayMode streams the trace FILE through the sharded multi-cluster
// replay under both policies and prints the stream stats, the
// cost/disruption summary and the merged trajectory. Each policy
// records on its own child of the recorder labeled with the policy, so
// its worlds read kubernetes/world-0, ..., hostlo/world-0, ... on the
// shared timeline.
func replayMode(args []string) {
	o := clusterFlags()
	worlds := flag.Int("worlds", 8,
		"logical cluster worlds the trace is hash-partitioned over (changes the experiment, unlike -parallel)")
	barrier := flag.Duration("barrier", 15*time.Minute, "epoch length between world synchronization barriers")
	migrateAfter := flag.Duration("migrate-after", 0,
		"transfer pods pending longer than this to another world at each barrier (0 = off)")
	migratePolicy := flag.String("migrate-policy", "least-loaded",
		"destination policy for -migrate-after transfers: least-loaded or locality")
	lenient := flag.Bool("lenient", false, "skip malformed trace rows instead of failing")
	path := parse(args, 1)[0]
	if *worlds < 1 {
		cli.BadFlag("costsim: -worlds must be >= 1, got %d", *worlds)
	}
	switch *migratePolicy {
	case "least-loaded", "locality":
	default:
		cli.BadFlag("costsim: -migrate-policy must be least-loaded or locality, got %q", *migratePolicy)
	}
	if _, err := os.Stat(path); err != nil {
		cli.BadFlag("costsim replay: %v", err)
	}
	o.begin(cli.Positive("barrier", *barrier), cli.NonNegative("migrate-after", *migrateAfter))
	defer o.prof.Stop("costsim")

	run := func(policy cluster.Policy) (shard.Result, ctrace.Stats) {
		// Reopen per policy: both runs consume the identical stream.
		r, err := ctrace.Open(path, ctrace.Options{Lenient: *lenient})
		if err != nil {
			cli.Fatal("costsim", err)
		}
		defer r.Close()
		cfg := o.clusterConfig()
		cfg.Policy = policy
		cfg.Rec = o.tf.Recorder().Child()
		cfg.Rec.BeginRun(policy.String())
		res, err := shard.Replay(r, shard.Config{
			Worlds:        *worlds,
			Shards:        *o.workers,
			BarrierEvery:  *barrier,
			MigrateAfter:  *migrateAfter,
			MigratePolicy: *migratePolicy,
			Cluster:       cfg,
		})
		if err != nil {
			cli.Fatal("costsim", err)
		}
		o.tf.Recorder().Append(cfg.Rec)
		return res, r.Stats()
	}
	kubeRes, stats := run(cluster.Kubernetes)
	if stats.Rows > 0 && stats.Skipped == stats.Rows {
		cli.Fatal("costsim", fmt.Errorf("%s: -lenient skipped all %d rows", path, stats.Rows))
	}
	hostloRes, _ := run(cluster.Hostlo)

	// The title names only the experiment (worlds), never the execution
	// (-parallel): stdout is byte-identical for every worker count.
	st := report.New(fmt.Sprintf("Trace replay: %s over %d worlds", path, *worlds),
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
	o.tf.EmitOrDie("costsim")
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
