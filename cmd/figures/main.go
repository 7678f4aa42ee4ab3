// Command figures regenerates one datapath figure or table of the
// paper's evaluation, named as in figures.Registry:
//
//	figures -fig fig2     # nested vs single-level virtualization (§2)
//	figures -fig fig4     # BrFusion vs NAT vs NoCont sweep (§5.2.1)
//	figures -fig fig5     # Memcached / NGINX / Kafka (§5.2.2)
//	figures -fig fig6     # Kafka CPU breakdown (§5.2.3)
//	figures -fig fig7     # NGINX CPU breakdown (§5.2.3)
//	figures -fig fig8     # container start-up, 100 boots (§5.2.4)
//	figures -fig fig10    # Hostlo vs NAT vs Overlay vs SameNode (§5.3.2)
//	figures -fig fig11    # Memcached over intra-pod transports, Figs. 11–12 (§5.3.3)
//	figures -fig fig13    # NGINX over intra-pod transports (§5.3.3)
//	figures -fig fig14    # Memcached CPU usage (§5.3.4)
//	figures -fig fig15    # NGINX CPU usage (§5.3.4)
//	figures -fig table1   # macro-benchmark parameters (§5.1)
//
// Use -csv for machine-readable output, -quick for short windows and
// fewer sizes (20 boots for fig8), -trace out.json for a Chrome trace
// of the runs and -metrics for the telemetry tables. Fig. 9 and Table 2
// come from costsim.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"nestless/internal/cli"
	"nestless/internal/figures"
)

func main() {
	name := flag.String("fig", "", "figure to regenerate: "+names())
	seed := flag.Int64("seed", 42, "simulation seed")
	quick := flag.Bool("quick", false, "short measurement windows, fewer sizes")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	workers := cli.ParallelFlag()
	faultSpec := cli.FaultsFlag()
	tf := cli.TelemetryFlags()
	prof := cli.ProfileFlags()
	flag.Parse()

	cli.CheckParallel(*workers)
	fig, ok := figures.Lookup(*name)
	if !ok {
		cli.BadFlag("figures: unknown or missing -fig %q (want one of %s)", *name, names())
	}
	opts := figures.Opts{Seed: *seed, Quick: *quick, Rec: tf.Recorder(), Workers: *workers,
		Faults: cli.ParseFaults(*faultSpec)}
	prof.Start("figures")
	defer prof.Stop("figures")
	for i, t := range fig.Run(opts) {
		if i > 0 {
			fmt.Println()
		}
		if *csv {
			t.WriteCSV(os.Stdout)
		} else {
			t.WriteText(os.Stdout)
		}
	}
	tf.EmitOrDie("figures")
}

// names lists the registry's figure names, comma-separated.
func names() string {
	var s []string
	for _, f := range figures.Registry {
		s = append(s, f.Name)
	}
	return strings.Join(s, ", ")
}
