package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/fnv"
	"io"
	"reflect"
	"testing"
	"time"

	"nestless/internal/cpuacct"
	"nestless/internal/sim"
)

func TestRegistryOrderAndIdentity(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("b/count")
	g := r.Counter("a/total")
	s := r.Series("c/series")
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored
	g.Add(3.5)
	s.Add(1)
	s.Add(3)

	if r.Counter("b/count") != c || r.Counter("a/total") != g || r.Series("c/series") != s {
		t.Fatal("get-or-create returned a different instrument on second lookup")
	}
	want := []string{"b/count", "a/total", "c/series"}
	got := r.Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want registration order %v", got, want)
		}
	}
	if c.Value() != 3 {
		t.Fatalf("counter = %v, want 3 (negative adds ignored)", c.Value())
	}
	m := r.Metrics()
	if len(m) != 3 || m[0].Name != "b/count" || m[0].Kind != "counter" {
		t.Fatalf("Metrics() = %+v", m)
	}
	tab := r.Table("x")
	if len(tab.Rows) != 3 {
		t.Fatalf("Table rows = %d, want 3", len(tab.Rows))
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	if r.Tracer() != nil || r.Metrics() != nil {
		t.Fatal("nil recorder exposed non-nil components")
	}
	r.BindEngine(sim.New(1))
	if r.Child() != nil {
		t.Fatal("nil recorder has a live child")
	}
	r.Append(New())
	New().Append(r)
	r.SetNow(5)
	r.BeginRun("x")
	r.WatchStation(nil, "e")
	r.ChargeSpan("e", "", cpuacct.Usr, "st", time.Millisecond)
	if id := r.FlowBegin("ns", "desc"); id != 0 {
		t.Fatalf("nil FlowBegin = %d, want 0", id)
	}
	r.FlowHop(1, "hop")
	r.FlowEnd(1, "there")
	r.Instant("g", "n", "k", 1)
	op := r.OpBegin("g", "n")
	if op != nil {
		t.Fatal("nil OpBegin returned a live op")
	}
	op.End(errors.New("boom")) // nil-safe
	if err := r.WriteChromeTrace(io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteTextTrace(io.Discard); err != nil {
		t.Fatal(err)
	}
	if got := r.MetricsTables(); got != nil {
		t.Fatalf("nil MetricsTables = %v", got)
	}
	if u := r.Rollup("", "e"); u != (cpuacct.Usage{}) {
		t.Fatalf("nil Rollup = %+v", u)
	}
	if ks := r.RollupKeys(); ks != nil {
		t.Fatalf("nil RollupKeys = %v", ks)
	}
}

// buildSample records one of everything on a manual clock.
func buildSample() *Recorder {
	r := New()
	r.SetNow(sim.Time(1500 * time.Nanosecond))
	r.ChargeSpan("host", "", cpuacct.Sys, "hostcpu", 2500*time.Nanosecond)
	r.ChargeSpan("guest/vm0", "vm/vm0", cpuacct.Usr, "vm-vm0", time.Microsecond)
	id := r.FlowBegin("client", `udp "quoted" tuple`)
	r.SetNow(sim.Time(3 * time.Microsecond))
	r.FlowHop(id, "host/eth0")
	r.FlowEnd(id, "server")
	r.Instant("hostlo/dev", "reflect", "fanout", 2)
	op := r.OpBegin("vmm/vm0", "device_add")
	r.SetNow(sim.Time(5 * time.Microsecond))
	op.End(errors.New(`failed: "why"`))
	op.End(nil) // idempotent
	return r
}

func TestChromeExportIsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := buildSample().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string                 `json:"name"`
			Cat  string                 `json:"cat"`
			Ph   string                 `json:"ph"`
			TS   float64                `json:"ts"`
			Dur  float64                `json:"dur"`
			Pid  int                    `json:"pid"`
			Tid  int                    `json:"tid"`
			ID   string                 `json:"id"`
			S    string                 `json:"s"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var meta, spans, flows, instants int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			meta++
			if e.Args["name"] == nil {
				t.Fatalf("metadata event without name args: %+v", e)
			}
		case "X":
			spans++
			if e.Dur <= 0 {
				t.Fatalf("span without duration: %+v", e)
			}
		case "b", "n", "e":
			flows++
			if e.ID == "" {
				t.Fatalf("flow event without id: %+v", e)
			}
		case "i":
			instants++
			if e.S != "t" {
				t.Fatalf("instant without thread scope: %+v", e)
			}
		}
	}
	if meta == 0 || flows != 3 || instants != 1 || spans != 3 {
		t.Fatalf("meta=%d spans=%d flows=%d instants=%d", meta, spans, flows, instants)
	}
	// First charge span: ts=1.500µs, dur=2.500µs — exact 3-decimal µs.
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && e.Cat == "cpu" && e.Name == "sys" {
			if e.TS != 1.5 || e.Dur != 2.5 {
				t.Fatalf("sys span ts=%v dur=%v, want 1.5/2.5", e.TS, e.Dur)
			}
		}
	}
}

func TestExportDeterminism(t *testing.T) {
	var a, b, txtA, txtB bytes.Buffer
	ra, rb := buildSample(), buildSample()
	if err := ra.WriteChromeTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := rb.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two identical recordings exported different Chrome JSON")
	}
	ra.WriteTextTrace(&txtA)
	rb.WriteTextTrace(&txtB)
	if !bytes.Equal(txtA.Bytes(), txtB.Bytes()) {
		t.Fatal("two identical recordings exported different text traces")
	}
}

func TestChargeSpanRollupAndRunLabels(t *testing.T) {
	r := New()
	r.ChargeSpan("app", "vm/v", cpuacct.Usr, "st", 3*time.Millisecond)
	r.BeginRun("r2")
	r.ChargeSpan("app", "", cpuacct.Sys, "st", time.Millisecond)

	if got := r.Rollup("", "app").Of(cpuacct.Usr); got != 3*time.Millisecond {
		t.Fatalf("app usr = %v", got)
	}
	if got := r.Rollup("", "vm/v").Of(cpuacct.Guest); got != 3*time.Millisecond {
		t.Fatalf("vm guest mirror = %v", got)
	}
	if got := r.Rollup("r2", "app").Of(cpuacct.Sys); got != time.Millisecond {
		t.Fatalf("r2/app sys = %v", got)
	}
	keys := r.RollupKeys()
	want := []string{"app", "vm/v", "r2/app"}
	if len(keys) != len(want) {
		t.Fatalf("RollupKeys = %v, want %v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("RollupKeys = %v, want %v", keys, want)
		}
	}
}

// TestChildNestsUnderParentLabel: a child starts with its parent's run
// label and BeginRun nests under it, so a fan-out inside a labeled run
// keeps its runs apart from a sibling fan-out's.
func TestChildNestsUnderParentLabel(t *testing.T) {
	top := New()
	for _, policy := range []string{"kube", "hostlo"} {
		p := top.Child()
		p.BeginRun(policy)
		w := p.Child()
		w.BeginRun("world-0")
		w.ChargeSpan("app", "", cpuacct.Usr, "st", time.Millisecond)
		p.Append(w)
		top.Append(p)
	}
	want := []string{"kube/world-0/app", "hostlo/world-0/app"}
	if got := top.RollupKeys(); !reflect.DeepEqual(got, want) {
		t.Fatalf("RollupKeys = %v, want %v", got, want)
	}
	if top.Child().run != "" {
		t.Fatal("a child of an unlabeled recorder carries a label")
	}
}

// oneRun records one small engine run on rec under label: a watched
// station crossing several sampling ticks, charge spans with a guest
// mirror, a flow, an operation, an instant and registry instruments.
// lead delays the work so two runs sit differently against the ticks.
func oneRun(rec *Recorder, label string, lead time.Duration) {
	rec.BeginRun(label)
	eng := sim.New(1)
	rec.BindEngine(eng)
	st := sim.NewStation(eng, "cpu", 1)
	rec.WatchStation(st, "host")
	eng.After(lead, func() {
		for i := 0; i < 3; i++ {
			st.Process(700*time.Microsecond, func() {
				rec.ChargeSpan("app", "vm/v", cpuacct.Usr, "cpu", 700*time.Microsecond)
			})
		}
		id := rec.FlowBegin("client", "udp "+label)
		rec.FlowHop(id, "eth0")
		op := rec.OpBegin("vmm/vm0", "device_add")
		eng.After(2500*time.Microsecond, func() {
			rec.FlowEnd(id, "server")
			op.End(nil)
			rec.Instant("g", "done", "n", 1)
		})
	})
	rec.Metrics().Counter("runs").Inc()
	rec.Metrics().Counter("lead").Add(lead.Seconds())
	eng.Run()
	rec.Metrics().Series("lead_s").Add(lead.Seconds())
}

// exportAll renders everything a recorder exports: Chrome JSON, text
// trace and every metrics table.
func exportAll(t *testing.T, r *Recorder) string {
	t.Helper()
	var b bytes.Buffer
	if err := r.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteTextTrace(&b); err != nil {
		t.Fatal(err)
	}
	for _, m := range r.MetricsTables() {
		m.WriteText(&b)
	}
	return b.String()
}

// appendGolden is FNV-1a of exportAll for oneRun "a" (1.3 ms lead)
// followed by oneRun "b" (0.4 ms lead), recorded on one shared recorder
// with two BeginRun and two BindEngine calls, the way multi-run
// recorders were built before Append existed (with run-relative ticks).
// It was re-taken once, when the "lead" gauge became a counter: the
// export's only changed line was that row (gauge 0.0004, the last run's
// value, became counter 0.0017, the sum of both).
const appendGolden = 0xdccdc94baed2c4a5

// TestAppendMatchesSharedTimeline: two runs recorded on their own
// children, in either order, and appended in order export
// byte-identically to the same two runs on one shared timeline.
func TestAppendMatchesSharedTimeline(t *testing.T) {
	p := New()
	a, b := p.Child(), p.Child()
	oneRun(b, "b", 400*time.Microsecond) // recording order is free
	oneRun(a, "a", 1300*time.Microsecond)
	p.Append(a)
	p.Append(b)
	h := fnv.New64a()
	h.Write([]byte(exportAll(t, p)))
	if got := h.Sum64(); got != appendGolden {
		t.Fatalf("appended export hashes to %016x, want %016x", got, uint64(appendGolden))
	}

	var first, second sim.Time
	for _, e := range p.Tracer().Events() {
		if e.Ph == PhaseFlowBegin {
			if e.ID == 1 {
				first = e.TS
			} else if e.ID == 2 {
				second = e.TS
			}
		}
	}
	if first != sim.Time(1300*time.Microsecond) || second <= first {
		t.Fatalf("flow begins at %v and %v: want 1.3ms, then past the first run", first, second)
	}
	if c := p.Metrics().Counter("runs").Value(); c != 2 {
		t.Fatalf("runs counter = %v, want 2", c)
	}
}

// TestFanAppendsInIndexOrder: Fan over the same two runs, on two
// workers, exports exactly what the appended pair does.
func TestFanAppendsInIndexOrder(t *testing.T) {
	p := New()
	labels := []string{"a", "b"}
	leads := []time.Duration{1300 * time.Microsecond, 400 * time.Microsecond}
	Fan(p, 2, 2, func(i int, rec *Recorder) { oneRun(rec, labels[i], leads[i]) })
	h := fnv.New64a()
	h.Write([]byte(exportAll(t, p)))
	if got := h.Sum64(); got != appendGolden {
		t.Fatalf("fanned export hashes to %016x, want %016x", got, uint64(appendGolden))
	}
	var live [3]bool
	Fan(nil, 3, 2, func(i int, rec *Recorder) { live[i] = rec != nil })
	if live != [3]bool{} {
		t.Fatalf("nil parent handed out live recorders: %v", live)
	}
}

func TestStationWatchSamplesUtilization(t *testing.T) {
	r := New()
	eng := sim.New(1)
	r.BindEngine(eng)
	st := sim.NewStation(eng, "cpu", 1)
	r.WatchStation(st, "host")

	for i := 0; i < 4; i++ {
		st.Process(sampleEvery*6/10, nil)
	}
	// Carry the clock across several ticks.
	eng.After(sampleEvery*35/10, func() {})
	eng.Run()

	util := r.Metrics().Series("station/cpu/util")
	if util.N() == 0 {
		t.Fatal("no utilization samples recorded")
	}
	if r.Metrics().Counter("telemetry/samples").Value() == 0 {
		t.Fatal("tick sampling never fired")
	}
	// Queue and busy counter events made it into the trace.
	var queueEvs, busyEvs int
	for _, e := range r.Tracer().Events() {
		if e.Cat == "station" {
			switch e.Name {
			case "queue":
				queueEvs++
			case "busy":
				busyEvs++
			}
		}
	}
	if queueEvs == 0 || busyEvs == 0 {
		t.Fatalf("queue events = %d, busy events = %d, want both > 0", queueEvs, busyEvs)
	}
}
