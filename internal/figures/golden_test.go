package figures

import (
	"fmt"
	"hash/fnv"
	"testing"

	"nestless/internal/golden"
	"nestless/internal/parallel"
	"nestless/internal/report"
	"nestless/internal/telemetry"
)

const goldenPath = "testdata/golden.txt"

// goldenFigures lists every datapath figure the corpus pins, each as a
// function of the run options returning the figure's tables. traced
// marks the figures also run with a telemetry recorder: recording a
// Quick micro sweep writes traces of a few hundred MB, so the traced
// legs are the cheap figures that between them cross every datapath
// (Fig. 6: NAT, BrFusion and NoCont server/client; Fig. 15: every
// intra-pod transport, Hostlo included; Fig. 8: container boot).
var goldenFigures = []struct {
	name   string
	traced bool
	run    func(Opts) []*report.Table
}{
	{"fig2", false, func(o Opts) []*report.Table { return []*report.Table{Fig2(o)} }},
	{"fig4", false, func(o Opts) []*report.Table { a, b := Fig4(o); return []*report.Table{a, b} }},
	{"fig5", false, func(o Opts) []*report.Table { return []*report.Table{Fig5(o)} }},
	{"fig6", true, func(o Opts) []*report.Table { return []*report.Table{Fig6(o)} }},
	{"fig7", false, func(o Opts) []*report.Table { return []*report.Table{Fig7(o)} }},
	{"fig8", true, func(o Opts) []*report.Table { a, b := Fig8(o, 0); return []*report.Table{a, b} }},
	{"fig10", false, func(o Opts) []*report.Table { a, b := Fig10(o); return []*report.Table{a, b} }},
	{"fig11", false, func(o Opts) []*report.Table { return []*report.Table{Fig11(o)} }},
	{"fig13", false, func(o Opts) []*report.Table { return []*report.Table{Fig13(o)} }},
	{"fig14", false, func(o Opts) []*report.Table { return []*report.Table{Fig14(o)} }},
	{"fig15", true, func(o Opts) []*report.Table { return []*report.Table{Fig15(o)} }},
	{"table1", false, func(Opts) []*report.Table { return []*report.Table{Table1()} }},
}

func tablesHash(tabs []*report.Table) string {
	h := fnv.New64a()
	for _, t := range tabs {
		t.WriteText(h)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestFiguresGolden pins every figure at Quick, seed 42, to the
// recorded corpus. Each line hashes the tables of a plain run at
// Workers 2; a traced figure's line adds the tables of a serial run
// with a recorder, then that run's text trace followed by every metrics
// table (per-station counters including max_queue, the per-entity CPU
// rollup and the instrument registry). A datapath change that moves any
// simulated number, queue depth or CPU split fails here with the
// replacement line printed.
func TestFiguresGolden(t *testing.T) {
	g := golden.Open(t, goldenPath, "")
	lines := make([]string, len(goldenFigures))
	// Figures share nothing, so two run at a time; lines are checked in
	// list order afterwards.
	parallel.Run(len(goldenFigures), 2, func(i int) {
		lines[i] = goldenLine(goldenFigures[i].run, goldenFigures[i].traced)
	})
	for i, f := range goldenFigures {
		g.Check(f.name, lines[i])
	}
}

// goldenLine runs one figure and formats its corpus fields.
func goldenLine(run func(Opts) []*report.Table, traced bool) string {
	plain := tablesHash(run(Opts{Seed: 42, Quick: true, Workers: 2}))
	if !traced {
		return fmt.Sprintf("tables=%s traced=- trace=-", plain)
	}
	rec := telemetry.New()
	tr := tablesHash(run(Opts{Seed: 42, Quick: true, Rec: rec}))
	h := fnv.New64a()
	rec.WriteTextTrace(h) // fails only when the writer does
	for _, m := range rec.MetricsTables() {
		m.WriteText(h)
	}
	return fmt.Sprintf("tables=%s traced=%s trace=%016x", plain, tr, h.Sum64())
}
