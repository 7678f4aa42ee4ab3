package figures

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"sync"
	"testing"

	"nestless/internal/golden"
	"nestless/internal/parallel"
	"nestless/internal/report"
	"nestless/internal/scenario"
	"nestless/internal/telemetry"
)

const goldenPath = "testdata/golden.txt"

// traced marks the figures whose Workers 8 leg runs with a telemetry
// recorder: recording a Quick micro sweep writes traces of a few
// hundred MB, so the traced legs are the cheap figures that between
// them cross every datapath (Fig. 6: NAT, BrFusion and NoCont
// server/client; Fig. 15: every intra-pod transport, Hostlo included;
// Fig. 8: container boot, through its nested fan-out).
var traced = map[string]bool{"fig6": true, "fig8": true, "fig15": true}

// serial maps each registry name to the tables of a plain Workers 1 run
// at Quick, seed 42. par maps it to its Workers 8 leg at the same seed:
// a traced run for a traced figure, a plain run otherwise. A leg runs
// at most once per test binary; the corpus, the parallel-matches-serial
// checks and the shape tests share it.
var (
	serial = map[string]func() []*report.Table{}
	par    = map[string]func() leg{}
)

// leg is a Workers 8 run's table text and its trace fields: for a
// traced figure, FNV-1a of the tables and of the run's text trace
// followed by every metrics table; "-" for both otherwise.
type leg struct {
	text   string
	fields string
}

func init() {
	for _, f := range Registry {
		serial[f.Name] = sync.OnceValue(func() []*report.Table {
			return f.Run(Opts{Seed: 42, Quick: true, Workers: 1})
		})
		par[f.Name] = sync.OnceValue(func() leg {
			o := Opts{Seed: 42, Quick: true, Workers: 8}
			if !traced[f.Name] {
				return leg{text(f.Run(o)), "traced=- trace=-"}
			}
			o.Rec = telemetry.New()
			tabs := text(f.Run(o))
			h := fnv.New64a()
			o.Rec.WriteTextTrace(h) // fails only when the writer does
			for _, m := range o.Rec.MetricsTables() {
				m.WriteText(h)
			}
			return leg{tabs, fmt.Sprintf("traced=%s trace=%016x", hash(tabs), h.Sum64())}
		})
	}
}

// text renders tables as the corpus hashes them; hash is its FNV-1a.
func text(tabs []*report.Table) string {
	var b strings.Builder
	for _, t := range tabs {
		t.WriteText(&b)
	}
	return b.String()
}

func hash(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestFiguresGolden pins every registry entry at Quick, seed 42, to the
// recorded corpus. Each line hashes the tables of the Workers 8 leg,
// then adds its trace fields (per-station counters including
// max_queue, the per-entity CPU rollup and the instrument registry are
// among the metrics tables). The traced lines were recorded from serial
// traced runs, so they also pin that a recorded fan-out at Workers 8
// exports what a serial one does. A datapath change that moves any
// simulated number, queue depth or CPU split fails here with the
// replacement line printed. It runs first in this file, so it computes
// every leg and the tests below only read them.
func TestFiguresGolden(t *testing.T) {
	g := golden.Open(t, goldenPath, "")
	// Figures share nothing, so two run at a time; lines are checked in
	// registry order afterwards.
	parallel.Run(len(Registry), 2, func(i int) {
		par[Registry[i].Name]()
		serial[Registry[i].Name]()
	})
	for _, f := range Registry {
		p := par[f.Name]()
		g.Check(f.Name, "tables="+hash(p.text)+" "+p.fields)
	}
}

// matchesSerial holds a registry entry to the parallel harness
// contract: its Workers 8 tables (recorded, for a traced figure) are
// byte-identical to its plain serial run's, which covers row order,
// formatting and every numeric digit.
func matchesSerial(t *testing.T, name string) {
	t.Helper()
	if s, p := text(serial[name]()), par[name]().text; s != p {
		t.Errorf("%s diverges under Workers 8:\nserial:\n%s\nparallel:\n%s", name, s, p)
	}
}

func TestFig2ParallelMatchesSerial(t *testing.T)  { matchesSerial(t, "fig2") }
func TestFig4ParallelMatchesSerial(t *testing.T)  { matchesSerial(t, "fig4") }
func TestFig5ParallelMatchesSerial(t *testing.T)  { matchesSerial(t, "fig5") }
func TestFig8ParallelMatchesSerial(t *testing.T)  { matchesSerial(t, "fig8") }
func TestFig10ParallelMatchesSerial(t *testing.T) { matchesSerial(t, "fig10") }

// TestFiguresDeterministic: every registry entry renders the same
// tables in its two independent same-seed runs, the serial leg and the
// Workers 8 leg.
func TestFiguresDeterministic(t *testing.T) {
	for _, f := range Registry {
		matchesSerial(t, f.Name)
	}
}

// cell parses a table cell as float.
func cell(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}

func TestFig2TableShape(t *testing.T) {
	tab := serial["fig2"]()[0]
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tab.Rows))
	}
	natT := cell(t, tab.Rows[0][1])
	ncT := cell(t, tab.Rows[1][1])
	if natT >= ncT {
		t.Errorf("NAT throughput %v not below NoCont %v", natT, ncT)
	}
	natL := cell(t, tab.Rows[0][2])
	ncL := cell(t, tab.Rows[1][2])
	if natL <= ncL {
		t.Errorf("NAT latency %v not above NoCont %v", natL, ncL)
	}
}

func TestFig4Tables(t *testing.T) {
	tabs := serial["fig4"]()
	tput, lat := tabs[0], tabs[1]
	if len(tput.Rows) == 0 || len(lat.Rows) == 0 {
		t.Fatal("empty tables")
	}
	for _, r := range tput.Rows {
		nat, brf, nc := cell(t, r[1]), cell(t, r[2]), cell(t, r[3])
		if nat >= brf {
			t.Errorf("size %s: NAT %v not below BrFusion %v", r[0], nat, brf)
		}
		if brf < nc*0.9 || brf > nc*1.1 {
			t.Errorf("size %s: BrFusion %v not within 10%% of NoCont %v", r[0], brf, nc)
		}
	}
	// Throughput grows with message size for every solution.
	first, last := tput.Rows[0], tput.Rows[len(tput.Rows)-1]
	for col := 1; col <= 3; col++ {
		if cell(t, last[col]) <= cell(t, first[col]) {
			t.Errorf("column %d did not scale with message size", col)
		}
	}
}

func TestFig5MacroOrdering(t *testing.T) {
	tab := serial["fig5"]()[0]
	if len(tab.Rows) != 9 {
		t.Fatalf("rows = %d, want 9 (3 apps × 3 modes)", len(tab.Rows))
	}
	// Index rows by app+mode.
	lat := map[string]float64{}
	for _, r := range tab.Rows {
		lat[r[0]+"/"+r[1]] = cell(t, r[4])
	}
	// BrFusion improves on NAT for every app (Fig. 5's claim).
	for _, app := range []string{"memcached", "nginx", "kafka"} {
		if lat[app+"/brfusion"] >= lat[app+"/nat"] {
			t.Errorf("%s: BrFusion latency %.1f not below NAT %.1f",
				app, lat[app+"/brfusion"], lat[app+"/nat"])
		}
	}
	// NGINX stays far above NoCont even with BrFusion (§5.2.2: the
	// overhead is the software itself).
	if lat["nginx/brfusion"] < lat["nginx/nocont"]*1.3 {
		t.Errorf("nginx BrFusion %.1f should remain well above NoCont %.1f",
			lat["nginx/brfusion"], lat["nginx/nocont"])
	}
}

func TestFig6SoftIRQReduction(t *testing.T) {
	tab := serial["fig6"]()[0]
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	soft := map[string]float64{}
	for _, r := range tab.Rows {
		soft[r[0]] = cell(t, r[3])
	}
	// BrFusion cuts the in-VM softirq time sharply versus NAT (§5.2.3:
	// −67% for Kafka).
	if soft["brfusion"] >= soft["nat"]*0.6 {
		t.Errorf("BrFusion soft %.4f not well below NAT %.4f", soft["brfusion"], soft["nat"])
	}
}

func TestFig8BootStatistics(t *testing.T) {
	tabs := serial["fig8"]()
	stats, cdf := tabs[0], tabs[1]
	if len(stats.Rows) != 2 {
		t.Fatalf("stats rows = %d", len(stats.Rows))
	}
	med := map[string]float64{}
	for _, r := range stats.Rows {
		med[r[0]] = cell(t, r[3])
		if cell(t, r[1]) <= 0 {
			t.Errorf("%s: non-positive min boot time", r[0])
		}
	}
	// BrFusion boots at least as fast as vanilla NAT at the median
	// (Fig. 8: 75% of boots slightly better).
	if med["brfusion"] > med["nat"]*1.05 {
		t.Errorf("BrFusion median %.1fms above NAT %.1fms", med["brfusion"], med["nat"])
	}
	if len(cdf.Rows) == 0 {
		t.Fatal("empty CDF")
	}
	// CDF columns must be non-decreasing.
	for i := 1; i < len(cdf.Rows); i++ {
		if cell(t, cdf.Rows[i][1]) < cell(t, cdf.Rows[i-1][1]) {
			t.Fatal("NAT CDF not monotone")
		}
	}
}

// fig9 is Fig. 9's serial run at Quick, seed 42; Fig. 9 is outside the
// registry and its corpus.
var fig9 = sync.OnceValues(func() (*report.Table, *report.Table) {
	return Fig9(Opts{Seed: 42, Quick: true, Workers: 1})
})

func TestFig9ParallelMatchesSerial(t *testing.T) {
	hist, stats := fig9()
	pHist, pStats := Fig9(Opts{Seed: 42, Quick: true, Workers: 8})
	if s, p := text([]*report.Table{hist, stats}), text([]*report.Table{pHist, pStats}); s != p {
		t.Fatalf("Fig9 diverges under Workers 8:\nserial:\n%s\nparallel:\n%s", s, p)
	}
}

func TestFig9Stats(t *testing.T) {
	hist, stats := fig9()
	if len(hist.Rows) == 0 {
		t.Fatal("empty savings histogram")
	}
	vals := map[string]string{}
	for _, r := range stats.Rows {
		vals[r[0]] = r[1]
	}
	savers := cell(t, vals["users with savings"])
	if savers <= 2 || savers >= 40 {
		t.Errorf("savers fraction %.1f%% far from the paper's 11.4%%", savers)
	}
	if cell(t, vals["max relative savings"]) < 10 {
		t.Error("max relative savings implausibly small")
	}
}

func TestFig10Tables(t *testing.T) {
	tabs := serial["fig10"]()
	tput, lat := tabs[0], tabs[1]
	if len(tput.Rows) == 0 || len(lat.Rows) == 0 {
		t.Fatal("empty tables")
	}
	// At every size: SameNode leads throughput; Hostlo beats NAT.
	for _, r := range tput.Rows {
		sn, hl, nat := cell(t, r[1]), cell(t, r[2]), cell(t, r[3])
		if sn <= hl {
			t.Errorf("size %s: SameNode %v not above Hostlo %v", r[0], sn, hl)
		}
		if hl <= nat {
			t.Errorf("size %s: Hostlo %v not above NAT %v", r[0], hl, nat)
		}
	}
	// At every size: Hostlo latency far below NAT and Overlay.
	for _, r := range lat.Rows {
		hl, nat, ov := cell(t, r[3]), cell(t, r[5]), cell(t, r[7])
		if hl >= nat*0.7 || hl >= ov*0.7 {
			t.Errorf("size %s: Hostlo latency %v not well below NAT %v / Overlay %v", r[0], hl, nat, ov)
		}
	}
}

func TestFig11MemcachedOrdering(t *testing.T) {
	tab := serial["fig11"]()[0]
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	lat := map[string]float64{}
	for _, r := range tab.Rows {
		lat[r[0]] = cell(t, r[2])
	}
	if lat[string(scenario.CCHostlo)] >= lat[string(scenario.CCNAT)] {
		t.Error("Hostlo memcached latency not below NAT")
	}
	if lat[string(scenario.CCHostlo)] >= lat[string(scenario.CCOverlay)] {
		t.Error("Hostlo memcached latency not below Overlay")
	}
}

func TestFig13NginxOrdering(t *testing.T) {
	tab := serial["fig13"]()[0]
	lat := map[string]float64{}
	for _, r := range tab.Rows {
		lat[r[0]] = cell(t, r[2])
	}
	// §5.3.3: Hostlo slower than SameNode but much better than NAT and
	// Overlay.
	if lat[string(scenario.CCHostlo)] < lat[string(scenario.CCSameNode)] {
		t.Error("Hostlo below SameNode?")
	}
	if lat[string(scenario.CCHostlo)] >= lat[string(scenario.CCOverlay)] {
		t.Error("Hostlo nginx latency not below Overlay")
	}
}

func TestFig14CPUAttribution(t *testing.T) {
	tab := serial["fig14"]()[0]
	cores := map[string][2]float64{}
	for _, r := range tab.Rows {
		cores[r[0]] = [2]float64{cell(t, r[3]), cell(t, r[4])} // cs_total, guest
	}
	// Hostlo raises client+server CPU versus SameNode (§5.3.4).
	if cores[string(scenario.CCHostlo)][0] <= cores[string(scenario.CCSameNode)][0] {
		t.Error("Hostlo cs CPU not above SameNode")
	}
	// All cross-VM solutions bill guest time.
	for _, m := range []scenario.CCMode{scenario.CCHostlo, scenario.CCNAT, scenario.CCOverlay} {
		if cores[string(m)][1] <= 0 {
			t.Errorf("%s: no guest time recorded", m)
		}
	}
}

func TestFig15Runs(t *testing.T) {
	tab := serial["fig15"]()[0]
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if cell(t, r[5]) < 0 {
			t.Errorf("%s: negative host sys", r[0])
		}
	}
}

func TestTables1And2(t *testing.T) {
	t1 := serial["table1"]()[0]
	if len(t1.Rows) != 3 {
		t.Fatalf("Table 1 rows = %d", len(t1.Rows))
	}
	t2 := Table2()
	if len(t2.Rows) != 6 {
		t.Fatalf("Table 2 rows = %d", len(t2.Rows))
	}
	if t2.Rows[5][0] != "24xlarge" {
		t.Fatal("Table 2 ordering wrong")
	}
}

// TestFig6TraceDeterministic is the acceptance check for the telemetry
// subsystem: the Kafka CPU-breakdown figure (three scenarios on one
// recorder) exports byte-identical, valid Chrome JSON across two
// same-seed runs.
func TestFig6TraceDeterministic(t *testing.T) {
	run := func() []byte {
		rec := telemetry.New()
		Fig6(Opts{Seed: 42, Quick: true, Rec: rec})
		var buf bytes.Buffer
		if err := rec.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("two same-seed Fig6 runs exported different traces")
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace is empty")
	}
}

// TestFig2UnchangedByTelemetry: a figure's numbers must not move when a
// recorder rides along.
func TestFig2UnchangedByTelemetry(t *testing.T) {
	off := Fig2(Opts{Seed: 7, Quick: true}).String()
	on := Fig2(Opts{Seed: 7, Quick: true, Rec: telemetry.New()}).String()
	if off != on {
		t.Fatalf("telemetry changed Fig2:\noff:\n%s\non:\n%s", off, on)
	}
}
