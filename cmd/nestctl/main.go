// Command nestctl inspects the simulated datapaths: it deploys a pod
// under a chosen networking mode, attaches a tcpdump-style capture to
// the server-side interface, runs one request/response exchange, and
// prints every frame the interface saw — making the paper's
// "de-duplicated path" claim directly observable.
//
//	nestctl -mode nat       # the vanilla nested path (docker0 + NAT)
//	nestctl -mode brfusion  # the fused path (dedicated pod NIC)
//	nestctl -mode nocont    # single-level baseline
//
// It also prints per-hop interface counters across the whole topology
// (-counters) so the extra in-VM hops under NAT are visible as traffic
// on docker0 and the veth pair. Add -trace out.json for a Chrome trace
// of the exchange (the per-packet flow events show every hop) and
// -metrics for the telemetry tables.
package main

import (
	"flag"
	"fmt"
	"os"

	"nestless/internal/cli"
	"nestless/internal/netsim"
	"nestless/internal/report"
	"nestless/internal/scenario"
)

func main() {
	mode := flag.String("mode", "nat", "networking mode: nat, brfusion or nocont")
	seed := flag.Int64("seed", 42, "simulation seed")
	counters := flag.Bool("counters", true, "print per-interface counters")
	// nestctl runs a single exchange, so -parallel has nothing to fan
	// out; the flag exists for command-line uniformity with the sweeps.
	workers := cli.ParallelFlag()
	faultSpec := cli.FaultsFlag()
	tf := cli.TelemetryFlags()
	prof := cli.ProfileFlags()
	flag.Parse()
	cli.CheckParallel(*workers)
	schedule := cli.ParseFaults(*faultSpec)
	switch scenario.Mode(*mode) {
	case scenario.ModeNAT, scenario.ModeBrFusion, scenario.ModeNoCont:
	default:
		cli.BadFlag("nestctl: unknown mode %q (want nat, brfusion or nocont)", *mode)
	}
	prof.Start("nestctl")
	defer prof.Stop("nestctl")

	sc, err := scenario.NewServerClientCfg(
		scenario.Config{Seed: *seed, Rec: tf.Recorder(), Faults: schedule},
		scenario.Mode(*mode), 9000)
	if err != nil {
		cli.Fatal("nestctl", err)
	}

	// Capture on the interface the server's packets use.
	var ifaceName string
	var target *netsim.Iface
	for _, i := range sc.ServerNS.Ifaces() {
		if i.Name != "lo" && i.Up {
			target = i
			ifaceName = i.Name
			break
		}
	}
	if target == nil {
		cli.Fatal("nestctl", fmt.Errorf("no capturable interface in the server namespace"))
	}
	cap := netsim.AttachCapture(target, 64)

	// One UDP request/response.
	srv, err := sc.ServerNS.BindUDP(9000, nil)
	if err != nil {
		cli.Fatal("nestctl", err)
	}
	srv.OnRecv = func(p *netsim.Packet) {
		srv.SendTo(p.Src, p.SrcPort, 128, "pong")
	}
	sock, err := sc.Client.BindUDP(0, nil)
	if err != nil {
		cli.Fatal("nestctl", err)
	}
	sock.SendTo(sc.DialAddr, 9000, 128, "ping")
	sc.Eng.Run()

	fmt.Printf("mode=%s  server=%v  captured on %s (%s namespace)\n\n",
		*mode, sc.DialAddr, ifaceName, sc.ServerNS.Name)
	for _, r := range cap.Records() {
		fmt.Printf("  %12v  %-2s  %v\n", r.At, r.Dir, r.Frame)
	}

	if *counters {
		fmt.Println()
		t := report.New("interface counters (whole topology)",
			"namespace", "iface", "tx_pkts", "rx_pkts", "tx_bytes", "rx_bytes")
		for _, ns := range sc.Net.Namespaces() {
			for _, i := range ns.Ifaces() {
				if i.TXPackets == 0 && i.RXPackets == 0 {
					continue
				}
				t.AddRow(ns.Name, i.Name, i.TXPackets, i.RXPackets, i.TXBytes, i.RXBytes)
			}
		}
		t.WriteText(os.Stdout)
	}
	tf.EmitOrDie("nestctl")
}
