// Package figures regenerates every table and figure of the paper's
// evaluation (§5) from the simulated stack. Each Fig* function builds
// fresh scenarios, runs the corresponding workload, and returns
// report.Tables whose rows mirror the series the paper plots. Registry
// names the datapath figures and the paper's tables in paper order;
// cmd/figures prints any entry, the figure corpus (testdata/golden.txt)
// pins every entry, and costsim prints Fig. 9, so "the figure" is
// computed exactly one way.
//
// The datapath figures share one harness over the two topology
// families, server↔client (§5.2) and intra-pod (§5.3): a topology is
// reduced to its ends (engine, client, server, dial address), each
// netperf test is one cell on those ends (stream, rr), Figs. 4 and 10
// are one size×mode grid (microGrid), and every application figure
// runs its load through one runner (runApp).
package figures

import (
	"fmt"
	"time"

	"nestless/internal/faults"
	"nestless/internal/netperf"
	"nestless/internal/netsim"
	"nestless/internal/report"
	"nestless/internal/scenario"
	"nestless/internal/sim"
	"nestless/internal/telemetry"
)

// Opts tunes a figure run.
type Opts struct {
	// Seed drives all randomness; same seed, same tables.
	Seed int64
	// Quick shrinks measurement windows (used by tests); the shapes
	// survive, absolute precision drops.
	Quick bool
	// Rec collects telemetry across every scenario the figure builds
	// (nil = telemetry off). Each run records on its own child, labeled
	// per (workload, mode), and the children are appended in sweep
	// order, so a multi-scenario figure lays out on one trace timeline
	// that is byte-identical at any Workers.
	Rec *telemetry.Recorder
	// Workers caps how many scenario runs of a figure sweep execute
	// concurrently (each run owns a private engine and recorder; results
	// merge in index order, so tables and telemetry are byte-identical
	// for any value). <= 1 means serial.
	Workers int
	// Faults applies a fault schedule to every scenario the figure
	// builds (nil = injection off). Each scenario run gets its own
	// injector, so rule counts reset per run.
	Faults *faults.Schedule
}

// Figure is one Registry entry: the name cmd/figures takes and the run
// that returns the figure's tables in print order.
type Figure struct {
	Name string
	Run  func(Opts) []*report.Table
}

// Registry lists every datapath figure and table in paper order. Fig. 11
// carries Fig. 12 (one table holds both). Fig. 9 is a cost-model run
// and lives in costsim; Table 2 is the catalog it prices with.
var Registry = []Figure{
	{"fig2", func(o Opts) []*report.Table { return []*report.Table{Fig2(o)} }},
	{"fig4", func(o Opts) []*report.Table { a, b := Fig4(o); return []*report.Table{a, b} }},
	{"fig5", func(o Opts) []*report.Table { return []*report.Table{Fig5(o)} }},
	{"fig6", func(o Opts) []*report.Table { return []*report.Table{Fig6(o)} }},
	{"fig7", func(o Opts) []*report.Table { return []*report.Table{Fig7(o)} }},
	{"fig8", func(o Opts) []*report.Table { a, b := Fig8(o); return []*report.Table{a, b} }},
	{"fig10", func(o Opts) []*report.Table { a, b := Fig10(o); return []*report.Table{a, b} }},
	{"fig11", func(o Opts) []*report.Table { return []*report.Table{Fig11(o)} }},
	{"fig13", func(o Opts) []*report.Table { return []*report.Table{Fig13(o)} }},
	{"fig14", func(o Opts) []*report.Table { return []*report.Table{Fig14(o)} }},
	{"fig15", func(o Opts) []*report.Table { return []*report.Table{Fig15(o)} }},
	{"table1", func(Opts) []*report.Table { return []*report.Table{Table1()} }},
	{"table2", func(Opts) []*report.Table { return []*report.Table{Table2()} }},
}

// Lookup returns the Registry entry named name.
func Lookup(name string) (Figure, bool) {
	for _, f := range Registry {
		if f.Name == name {
			return f, true
		}
	}
	return Figure{}, false
}

// cfg assembles the scenario configuration for one run at the given
// seed (figure sweeps derive per-run seeds from Opts.Seed).
func (o Opts) cfg(seed int64) scenario.Config {
	return scenario.Config{Seed: seed, Rec: o.Rec, Faults: o.Faults}
}

// fan runs a sweep's job(0..n-1) on at most o.Workers goroutines,
// handing job i a copy of o whose Rec is its own child recorder
// (telemetry.Fan appends the children in index order).
func (o Opts) fan(n int, job func(i int, o Opts)) {
	telemetry.Fan(o.Rec, n, o.Workers, func(i int, rec *telemetry.Recorder) {
		oi := o
		oi.Rec = rec
		job(i, oi)
	})
}

func (o Opts) streamWindow() (warmup, dur time.Duration) {
	if o.Quick {
		return 10 * time.Millisecond, 40 * time.Millisecond
	}
	return 30 * time.Millisecond, 120 * time.Millisecond
}

func (o Opts) rrWindow() time.Duration {
	if o.Quick {
		return 30 * time.Millisecond
	}
	return 100 * time.Millisecond
}

// ends is one built topology as a workload sees it: the engine, the
// client and server namespaces, and the address the client dials.
type ends struct {
	eng            *sim.Engine
	client, server *netsim.NetNS
	dial           netsim.IPv4
}

// serverClient starts run label and builds a §5.2 topology serving ports.
func (o Opts) serverClient(label string, mode scenario.Mode, ports ...uint16) (*scenario.ServerClient, ends) {
	o.Rec.BeginRun(label)
	sc, err := scenario.NewServerClientCfg(o.cfg(o.Seed), mode, ports...)
	if err != nil {
		panic(err)
	}
	return sc, ends{sc.Eng, sc.Client, sc.ServerNS, sc.DialAddr}
}

// podPair starts run label and builds a §5.3 pod pair, container B
// serving ports to container A.
func (o Opts) podPair(label string, mode scenario.CCMode, ports ...uint16) (*scenario.PodPair, ends) {
	o.Rec.BeginRun(label)
	pp, err := scenario.NewPodPairCfg(o.cfg(o.Seed), mode, ports...)
	if err != nil {
		panic(err)
	}
	return pp, ends{pp.Eng, pp.ANS, pp.BNS, pp.DialAddr}
}

// netperfPorts is the server port of each netperf test.
var netperfPorts = map[string]uint16{"stream": 5001, "rr": 7001}

// stream runs one TCP_STREAM cell on e.
func (o Opts) stream(e ends, size int) netperf.StreamResult {
	warm, dur := o.streamWindow()
	return netperf.RunTCPStream(e.eng, netperf.StreamConfig{
		Client: e.client, Server: e.server,
		DialAddr: e.dial, Port: netperfPorts["stream"], MsgSize: size,
		Warmup: warm, Duration: dur,
	})
}

// rr runs one UDP_RR cell on e.
func (o Opts) rr(e ends, size int) netperf.RRResult {
	return netperf.RunUDPRR(e.eng, netperf.RRConfig{
		Client: e.client, Server: e.server,
		DialAddr: e.dial, Port: netperfPorts["rr"], MsgSize: size,
		Duration: o.rrWindow(),
	})
}

// us renders a duration in microseconds.
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// Fig2 reproduces the motivation measurement (§2, Fig. 2): nested (NAT)
// versus single-level (NoCont) at 1280 B.
func Fig2(o Opts) *report.Table {
	t := report.New("Fig. 2 — nested vs single-level virtualization (1280 B)",
		"solution", "throughput_mbps", "rr_latency_us", "rr_stddev_us")
	modes := []scenario.Mode{scenario.ModeNAT, scenario.ModeNoCont}
	const size = 1280
	tps := make([]netperf.StreamResult, len(modes))
	rrs := make([]netperf.RRResult, len(modes))
	o.fan(len(modes), func(i int, o Opts) {
		_, e := o.serverClient(fmt.Sprintf("micro-%s-%d", modes[i], size), modes[i],
			netperfPorts["stream"], netperfPorts["rr"])
		tps[i] = o.stream(e, size)
		rrs[i] = o.rr(e, size)
	})
	for i, mode := range modes {
		t.AddRow(string(mode), tps[i].ThroughputMbps, us(rrs[i].MeanRTT), us(rrs[i].StddevRTT))
	}
	return t
}

// microGrid fills a micro-benchmark figure: one TCP_STREAM cell per
// (size, mode) into throughput and one UDP_RR cell per (rrSize, mode)
// into latency. build(o, kind, mode, size) builds the fresh topology of
// one cell, kind being "stream" or "rr" and mode an index into the
// figure's columns. The whole grid fans out at once; rows are assembled
// afterwards in index order, so the tables are identical at any worker
// count.
func (o Opts) microGrid(throughput, latency *report.Table, nModes int, sizes, rrSizes []int,
	build func(o Opts, kind string, mode, size int) ends) {
	tps := make([]netperf.StreamResult, len(sizes)*nModes)
	rrs := make([]netperf.RRResult, len(rrSizes)*nModes)
	o.fan(len(tps)+len(rrs), func(i int, o Opts) {
		if i < len(tps) {
			size := sizes[i/nModes]
			tps[i] = o.stream(build(o, "stream", i%nModes, size), size)
			return
		}
		j := i - len(tps)
		size := rrSizes[j/nModes]
		rrs[j] = o.rr(build(o, "rr", j%nModes, size), size)
	})
	for si, size := range sizes {
		row := []interface{}{size}
		for _, tp := range tps[si*nModes : (si+1)*nModes] {
			row = append(row, tp.ThroughputMbps)
		}
		throughput.AddRow(row...)
	}
	for si, size := range rrSizes {
		row := []interface{}{size}
		for _, rr := range rrs[si*nModes : (si+1)*nModes] {
			row = append(row, us(rr.MeanRTT), us(rr.StddevRTT))
		}
		latency.AddRow(row...)
	}
}

// Fig4 reproduces the BrFusion micro-benchmark (§5.2.1): TCP_STREAM
// throughput and UDP_RR latency over message sizes for NAT, BrFusion and
// NoCont.
func Fig4(o Opts) (throughput, latency *report.Table) {
	modes := []scenario.Mode{scenario.ModeNAT, scenario.ModeBrFusion, scenario.ModeNoCont}
	throughput = report.New("Fig. 4a — TCP_STREAM throughput (Mbps)",
		"msg_size", "nat", "brfusion", "nocont")
	latency = report.New("Fig. 4b — UDP_RR latency (µs, mean±sd)",
		"msg_size", "nat", "nat_sd", "brfusion", "brfusion_sd", "nocont", "nocont_sd")
	sizes, rrSizes := netperf.Sizes, netperf.RRSizes
	if o.Quick {
		sizes, rrSizes = []int{256, 1280, 8192}, []int{256, 1280}
	}
	o.microGrid(throughput, latency, len(modes), sizes, rrSizes, func(o Opts, kind string, mi, size int) ends {
		_, e := o.serverClient(fmt.Sprintf("%s-%s-%d", kind, modes[mi], size), modes[mi], netperfPorts[kind])
		return e
	})
	return throughput, latency
}

// Fig10 reproduces the Hostlo micro-benchmark (§5.3.2): throughput and
// latency over message sizes for NAT, Overlay, Hostlo and SameNode
// container-to-container transports.
func Fig10(o Opts) (throughput, latency *report.Table) {
	throughput = report.New("Fig. 10a — intra-pod TCP_STREAM throughput (Mbps)",
		"msg_size", "samenode", "hostlo", "nat", "overlay")
	latency = report.New("Fig. 10b — intra-pod UDP_RR latency (µs, mean±sd)",
		"msg_size", "samenode", "sn_sd", "hostlo", "hl_sd", "nat", "nat_sd", "overlay", "ov_sd")
	sizes, rrSizes := netperf.Sizes, netperf.RRSizes
	if o.Quick {
		sizes, rrSizes = []int{256, 1024, 8192}, []int{256, 1024}
	}
	o.microGrid(throughput, latency, len(ccModes), sizes, rrSizes, func(o Opts, kind string, mi, size int) ends {
		_, e := o.podPair(fmt.Sprintf("cc-%s-%s-%d", kind, ccModes[mi], size), ccModes[mi], netperfPorts[kind])
		return e
	})
	return throughput, latency
}
