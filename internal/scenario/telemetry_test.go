package scenario

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"nestless/internal/cpuacct"
	"nestless/internal/netperf"
	"nestless/internal/telemetry"
)

// TestTraceReconcilesWithAccountant is the telemetry subsystem's core
// guarantee: the Chrome trace's CPU spans, the recorder's rollups and the
// world accountant all describe the same billing, exactly.
func TestTraceReconcilesWithAccountant(t *testing.T) {
	rec := telemetry.New()
	sc, err := NewServerClientCfg(Config{Seed: 42, Rec: rec}, ModeNAT, 7001)
	if err != nil {
		t.Fatal(err)
	}
	netperf.RunUDPRR(sc.Eng, netperf.RRConfig{
		Client: sc.Client, Server: sc.ServerNS,
		DialAddr: sc.DialAddr, Port: 7001, MsgSize: 256,
		Duration: 20 * time.Millisecond,
	})

	// 1. The recorder's per-entity rollups mirror the accountant exactly.
	entities := sc.Net.Acct.Entities()
	if len(entities) == 0 {
		t.Fatal("accountant recorded nothing")
	}
	for _, ent := range entities {
		if got, want := rec.Rollup("", ent), sc.Net.Acct.Usage(ent); got != want {
			t.Errorf("rollup[%s] = %+v, accountant says %+v", ent, got, want)
		}
	}
	if got, want := len(rec.RollupKeys()), len(entities); got != want {
		t.Errorf("recorder tracks %d entities, accountant %d", got, want)
	}

	// 2. The exported Chrome spans sum back to the same breakdown.
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string                 `json:"name"`
			Cat  string                 `json:"cat"`
			Ph   string                 `json:"ph"`
			Dur  float64                `json:"dur"`
			Pid  int                    `json:"pid"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	pidName := map[int]string{}
	sums := map[string]map[string]float64{} // entity → category → µs
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "process_name" {
			pidName[e.Pid] = e.Args["name"].(string)
		}
		if e.Ph == "X" && e.Cat == "cpu" {
			ent := pidName[e.Pid]
			if sums[ent] == nil {
				sums[ent] = map[string]float64{}
			}
			sums[ent][e.Name] += e.Dur
		}
	}
	// Direct categories reconcile per entity; Guest is mirror-only (the
	// span lives on the guest entity, the rollup on the VM), checked via
	// the rollup comparison above.
	for _, ent := range entities {
		u := sc.Net.Acct.Usage(ent)
		for _, cat := range []cpuacct.Category{cpuacct.Usr, cpuacct.Sys, cpuacct.Soft} {
			want := float64(u.Of(cat)) / 1e3 // ns → µs
			got := sums[ent][cat.String()]
			if math.Abs(got-want) > 0.5 {
				t.Errorf("span sum %s/%s = %.3fµs, accountant %.3fµs", ent, cat, got, want)
			}
		}
	}
}

// TestTelemetryOffMatchesTelemetryOn: recording must observe, never
// perturb — same seed, same results, recorder or not.
func TestTelemetryOffMatchesTelemetryOn(t *testing.T) {
	run := func(rec *telemetry.Recorder) netperf.RRResult {
		sc, err := NewServerClientCfg(Config{Seed: 7, Rec: rec}, ModeBrFusion, 7001)
		if err != nil {
			t.Fatal(err)
		}
		return netperf.RunUDPRR(sc.Eng, netperf.RRConfig{
			Client: sc.Client, Server: sc.ServerNS,
			DialAddr: sc.DialAddr, Port: 7001, MsgSize: 512,
			Duration: 15 * time.Millisecond,
		})
	}
	off := run(nil)
	on := run(telemetry.New())
	if off != on {
		t.Fatalf("telemetry changed the simulation: off=%+v on=%+v", off, on)
	}
}
