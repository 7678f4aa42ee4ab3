// Package figures regenerates every table and figure of the paper's
// evaluation (§5) from the simulated stack. Each Fig* function builds
// fresh scenarios, runs the corresponding workload, and returns
// report.Tables whose rows mirror the series the paper plots. Registry
// names the datapath figures in paper order; cmd/figures prints any
// entry, the figure corpus (testdata/golden.txt) pins every entry, and
// costsim prints Fig. 9 and Table 2, so "the figure" is computed
// exactly one way.
package figures

import (
	"fmt"
	"time"

	"nestless/internal/faults"
	"nestless/internal/netperf"
	"nestless/internal/report"
	"nestless/internal/scenario"
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
// carries Fig. 12 (one table holds both). Fig. 9 and Table 2 are cost
// model outputs and live in costsim.
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

// Fig2 reproduces the motivation measurement (§2, Fig. 2): nested (NAT)
// versus single-level (NoCont) at 1280 B.
func Fig2(o Opts) *report.Table {
	t := report.New("Fig. 2 — nested vs single-level virtualization (1280 B)",
		"solution", "throughput_mbps", "rr_latency_us", "rr_stddev_us")
	modes := []scenario.Mode{scenario.ModeNAT, scenario.ModeNoCont}
	type cell struct {
		tp netperf.StreamResult
		rr netperf.RRResult
	}
	cells := make([]cell, len(modes))
	o.fan(len(modes), func(i int, o Opts) {
		cells[i].tp, cells[i].rr = measureServerClient(o, modes[i], 1280)
	})
	for i, mode := range modes {
		t.AddRow(string(mode), cells[i].tp.ThroughputMbps,
			float64(cells[i].rr.MeanRTT)/1e3, float64(cells[i].rr.StddevRTT)/1e3)
	}
	return t
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

	sizes := netperf.Sizes
	rrSizes := netperf.RRSizes
	if o.Quick {
		sizes = []int{256, 1280, 8192}
		rrSizes = []int{256, 1280}
	}
	// One job per (size, mode) cell across both sweeps; each job builds
	// its own scenario, so the whole grid fans out at once. Rows are
	// assembled afterwards in index order — identical tables at any
	// worker count.
	nm := len(modes)
	tps := make([]netperf.StreamResult, len(sizes)*nm)
	rrs := make([]netperf.RRResult, len(rrSizes)*nm)
	o.fan(len(tps)+len(rrs), func(i int, o Opts) {
		if i < len(tps) {
			tps[i], _ = measureStreamOnly(o, modes[i%nm], sizes[i/nm])
			return
		}
		j := i - len(tps)
		rrs[j] = measureRROnly(o, modes[j%nm], rrSizes[j/nm])
	})
	for si, size := range sizes {
		row := make([]interface{}, 0, 1+nm)
		row = append(row, size)
		for mi := range modes {
			row = append(row, tps[si*nm+mi].ThroughputMbps)
		}
		throughput.AddRow(row...)
	}
	for si, size := range rrSizes {
		row := make([]interface{}, 0, 1+2*nm)
		row = append(row, size)
		for mi := range modes {
			rr := rrs[si*nm+mi]
			row = append(row, float64(rr.MeanRTT)/1e3, float64(rr.StddevRTT)/1e3)
		}
		latency.AddRow(row...)
	}
	return throughput, latency
}

// measureServerClient runs both micro modes against one fresh scenario.
func measureServerClient(o Opts, mode scenario.Mode, size int) (netperf.StreamResult, netperf.RRResult) {
	o.Rec.BeginRun(fmt.Sprintf("micro-%s-%d", mode, size))
	sc, err := scenario.NewServerClientCfg(o.cfg(o.Seed), mode, 5001, 7001)
	if err != nil {
		panic(err)
	}
	warm, dur := o.streamWindow()
	tp := netperf.RunTCPStream(sc.Eng, netperf.StreamConfig{
		Client: sc.Client, Server: sc.ServerNS,
		DialAddr: sc.DialAddr, Port: 5001, MsgSize: size,
		Warmup: warm, Duration: dur,
	})
	rr := netperf.RunUDPRR(sc.Eng, netperf.RRConfig{
		Client: sc.Client, Server: sc.ServerNS,
		DialAddr: sc.DialAddr, Port: 7001, MsgSize: size,
		Duration: o.rrWindow(),
	})
	return tp, rr
}

func measureStreamOnly(o Opts, mode scenario.Mode, size int) (netperf.StreamResult, *scenario.ServerClient) {
	o.Rec.BeginRun(fmt.Sprintf("stream-%s-%d", mode, size))
	sc, err := scenario.NewServerClientCfg(o.cfg(o.Seed), mode, 5001)
	if err != nil {
		panic(err)
	}
	warm, dur := o.streamWindow()
	tp := netperf.RunTCPStream(sc.Eng, netperf.StreamConfig{
		Client: sc.Client, Server: sc.ServerNS,
		DialAddr: sc.DialAddr, Port: 5001, MsgSize: size,
		Warmup: warm, Duration: dur,
	})
	return tp, sc
}

func measureRROnly(o Opts, mode scenario.Mode, size int) netperf.RRResult {
	o.Rec.BeginRun(fmt.Sprintf("rr-%s-%d", mode, size))
	sc, err := scenario.NewServerClientCfg(o.cfg(o.Seed), mode, 7001)
	if err != nil {
		panic(err)
	}
	return netperf.RunUDPRR(sc.Eng, netperf.RRConfig{
		Client: sc.Client, Server: sc.ServerNS,
		DialAddr: sc.DialAddr, Port: 7001, MsgSize: size,
		Duration: o.rrWindow(),
	})
}

// Fig10 reproduces the Hostlo micro-benchmark (§5.3.2): throughput and
// latency over message sizes for NAT, Overlay, Hostlo and SameNode
// container-to-container transports.
func Fig10(o Opts) (throughput, latency *report.Table) {
	modes := []scenario.CCMode{scenario.CCSameNode, scenario.CCHostlo, scenario.CCNAT, scenario.CCOverlay}
	throughput = report.New("Fig. 10a — intra-pod TCP_STREAM throughput (Mbps)",
		"msg_size", "samenode", "hostlo", "nat", "overlay")
	latency = report.New("Fig. 10b — intra-pod UDP_RR latency (µs, mean±sd)",
		"msg_size", "samenode", "sn_sd", "hostlo", "hl_sd", "nat", "nat_sd", "overlay", "ov_sd")

	sizes := netperf.Sizes
	rrSizes := netperf.RRSizes
	if o.Quick {
		sizes = []int{256, 1024, 8192}
		rrSizes = []int{256, 1024}
	}
	nm := len(modes)
	tps := make([]netperf.StreamResult, len(sizes)*nm)
	rrs := make([]netperf.RRResult, len(rrSizes)*nm)
	o.fan(len(tps)+len(rrs), func(i int, o Opts) {
		if i < len(tps) {
			tps[i] = measureCCStream(o, modes[i%nm], sizes[i/nm])
			return
		}
		j := i - len(tps)
		rrs[j] = measureCCRR(o, modes[j%nm], rrSizes[j/nm])
	})
	for si, size := range sizes {
		row := make([]interface{}, 0, 1+nm)
		row = append(row, size)
		for mi := range modes {
			row = append(row, tps[si*nm+mi].ThroughputMbps)
		}
		throughput.AddRow(row...)
	}
	for si, size := range rrSizes {
		row := make([]interface{}, 0, 1+2*nm)
		row = append(row, size)
		for mi := range modes {
			rr := rrs[si*nm+mi]
			row = append(row, float64(rr.MeanRTT)/1e3, float64(rr.StddevRTT)/1e3)
		}
		latency.AddRow(row...)
	}
	return throughput, latency
}

// measureCCStream runs one intra-pod TCP_STREAM cell on a fresh pod pair.
func measureCCStream(o Opts, m scenario.CCMode, size int) netperf.StreamResult {
	o.Rec.BeginRun(fmt.Sprintf("cc-stream-%s-%d", m, size))
	pp, err := scenario.NewPodPairCfg(o.cfg(o.Seed), m, 5001)
	if err != nil {
		panic(err)
	}
	warm, dur := o.streamWindow()
	return netperf.RunTCPStream(pp.Eng, netperf.StreamConfig{
		Client: pp.ANS, Server: pp.BNS,
		DialAddr: pp.DialAddr, Port: 5001, MsgSize: size,
		Warmup: warm, Duration: dur,
	})
}

// measureCCRR runs one intra-pod UDP_RR cell on a fresh pod pair.
func measureCCRR(o Opts, m scenario.CCMode, size int) netperf.RRResult {
	o.Rec.BeginRun(fmt.Sprintf("cc-rr-%s-%d", m, size))
	pp, err := scenario.NewPodPairCfg(o.cfg(o.Seed), m, 7001)
	if err != nil {
		panic(err)
	}
	return netperf.RunUDPRR(pp.Eng, netperf.RRConfig{
		Client: pp.ANS, Server: pp.BNS,
		DialAddr: pp.DialAddr, Port: 7001, MsgSize: size,
		Duration: o.rrWindow(),
	})
}
