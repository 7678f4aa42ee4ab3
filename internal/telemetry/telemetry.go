// Package telemetry is nestless's deterministic tracing and metrics
// subsystem. One Recorder records one run on one engine and collects:
//
//   - CPU charge spans: every (category, duration) billed through a
//     netsim.CPU becomes one Chrome 'X' span, and rolls up into a
//     per-entity cpuacct.Usage — so summed span durations reconcile with
//     the accountant's breakdown by construction;
//   - per-frame flow contexts threaded through the datapath (pod veth →
//     bridge → netfilter → virtio → vhost → host bridge, and the Hostlo
//     reflect fan-out), exported as nestable async events;
//   - control-plane operation spans (QMP netdev_add/device_add/device_del,
//     CNI provisioning, container boot steps);
//   - per-station instruments (queue depth, busy/idle transitions, wake-up
//     penalties, utilization snapshots sampled on virtual-time ticks) via
//     the sim.StationProbe / sim.EngineProbe hook interfaces.
//
// Everything is stamped with virtual time, so the exported trace and the
// metrics tables are bit-identical across same-seed runs. Runs share a
// timeline only through Append (Fan for a parallel fan-out), so a
// recorded experiment runs on the schedule of an unrecorded one and
// exports the same bytes at any worker count. A nil *Recorder is valid
// everywhere and records nothing; hot paths guard emission with a
// single nil check and allocate nothing when disabled.
package telemetry

import (
	"io"
	"time"

	"nestless/internal/cpuacct"
	"nestless/internal/report"
	"nestless/internal/sim"
)

// Recorder is the telemetry sink of one run. Zero value is not usable;
// call New or Child. All methods are safe on a nil receiver (they
// no-op), so call sites thread a *Recorder without guards.
type Recorder struct {
	tr  *Tracer
	reg *Registry

	// Virtual clock. When bound to an engine, timestamps are the engine's
	// clock; otherwise SetNow drives a manual clock (used by tools
	// without a simulation engine, e.g. costsim). maxTS is the timeline's
	// high-water mark, where Append lays the next run.
	eng    *sim.Engine
	manual sim.Time
	maxTS  sim.Time

	// run labels everything recorded from BeginRun on, so runs appended
	// onto one timeline (fig 6 runs three) keep their entity and station
	// names apart. A child starts with its parent's label.
	run string

	// Tick sampling of station utilization, on the run's own clock.
	nextTick sim.Time
	watches  []*stationWatch

	// Per-entity CPU rollups mirroring what the accountant sees through
	// ChargeSpan, keyed by run-qualified entity name, in first-use order.
	rollups     map[string]*cpuacct.Usage
	rollupOrder []string

	flowSeq uint64
}

// sampleEvery is the station utilization sampling period, in virtual
// time on the run's own clock.
const sampleEvery = time.Millisecond

// New returns an empty recorder sampling utilization every sampleEvery of
// virtual time.
func New() *Recorder {
	return &Recorder{
		tr:      NewTracer(),
		reg:     NewRegistry(),
		rollups: make(map[string]*cpuacct.Usage),
	}
}

// Child returns an empty recorder for one run of a fan-out, labeled
// like r, so a BeginRun on the child nests
// under r's label; Append lays it onto r's timeline once the run is
// done. A nil r has nil children, so a telemetry-off fan-out stays off.
func (r *Recorder) Child() *Recorder {
	if r == nil {
		return nil
	}
	c := New()
	c.run = r.run
	return c
}

// Append lays child's run after everything r has recorded, exactly
// where a run recorded on r itself would have landed: child timestamps
// shift by r's high-water mark, flow ids by r's flow count, and its
// process and thread names, instruments, entity rollups and station
// watches join r's in child first-use order (counters add, series
// replay child's samples in order). child is spent afterwards: its
// events move to r.
func (r *Recorder) Append(child *Recorder) {
	if r == nil || child == nil {
		return
	}
	r.tr.append(child.tr, r.maxTS, r.flowSeq)
	r.flowSeq += child.flowSeq
	r.maxTS += child.maxTS
	r.reg.append(child.reg)
	for _, k := range child.rollupOrder {
		u := r.rollup(k)
		*u = u.Plus(*child.rollups[k])
	}
	r.watches = append(r.watches, child.watches...)
}

// Tracer returns the underlying event tracer (nil on a nil recorder).
func (r *Recorder) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.tr
}

// Metrics returns the instrument registry (nil on a nil recorder).
func (r *Recorder) Metrics() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// BindEngine attaches the recorder to its run's engine: timestamps
// follow the engine's clock, and its probe hook drives tick sampling at
// whole multiples of the period on that clock. A second binding
// continues the same run (a world restored from a snapshot resumes on a
// fresh engine at the captured instant), so only the first one sets the
// sampling cursor. The recorder never schedules engine events, so
// binding cannot perturb the simulation.
func (r *Recorder) BindEngine(eng *sim.Engine) {
	if r == nil || eng == nil {
		return
	}
	if r.eng == nil {
		now := eng.Now()
		r.nextTick = now - now%sampleEvery + sampleEvery
	}
	r.eng = eng
	eng.Probe = r
}

// SetNow drives the manual clock for recorders not bound to an engine.
// It is ignored while an engine is bound.
func (r *Recorder) SetNow(t sim.Time) {
	if r == nil || r.eng != nil {
		return
	}
	r.manual = t
	if t > r.maxTS {
		r.maxTS = t
	}
}

// BeginRun labels everything recorded from here on; entity rollups,
// station instruments and trace process groups are qualified with the
// label, keeping runs appended onto one timeline collision-free. The
// label nests under the one r already carries (a child's parent's), so
// a fan-out inside a labeled run yields "parent/child" labels.
func (r *Recorder) BeginRun(label string) {
	if r == nil {
		return
	}
	r.run = r.key(label)
}

// now returns the current virtual timestamp.
func (r *Recorder) now() sim.Time {
	if r.eng != nil {
		return r.eng.Now()
	}
	return r.manual
}

// key qualifies a name with the current run label.
func (r *Recorder) key(name string) string {
	if r.run == "" {
		return name
	}
	return r.run + "/" + name
}

// emit appends one event and advances the timeline high-water mark.
func (r *Recorder) emit(e Event) {
	if e.TS > r.maxTS {
		r.maxTS = e.TS
	}
	r.tr.add(e)
	r.reg.Counter("trace/events").Inc()
}

// EngineAdvance implements sim.EngineProbe: when the virtual clock crosses
// a sampling tick, snapshot every watched station's utilization. One
// sample per crossing (not per elapsed tick) keeps big time jumps cheap.
func (r *Recorder) EngineAdvance(now sim.Time) {
	if now > r.maxTS {
		r.maxTS = now
	}
	if now < r.nextTick {
		return
	}
	for _, w := range r.watches {
		u := w.st.Utilization()
		w.util.Add(u)
		r.emit(Event{Ph: PhaseCounter, Name: "util", Cat: "station", TS: now, Pid: w.pid, Arg: numArg("util", u)})
	}
	r.reg.Counter("telemetry/samples").Inc()
	r.nextTick = now - now%sampleEvery + sampleEvery
}

// WatchStation instruments a station: queue-depth and busy counters in the
// trace, utilization and wake-penalty series in the registry. entity names
// the cpuacct entity the station's work bills to.
func (r *Recorder) WatchStation(st *sim.Station, entity string) {
	if r == nil || st == nil {
		return
	}
	label := r.key(st.Name())
	w := &stationWatch{
		rec:    r,
		st:     st,
		entity: entity,
		label:  label,
		pid:    r.tr.Pid("station/" + label),
		util:   r.reg.Series("station/" + label + "/util"),
		wake:   r.reg.Series("station/" + label + "/wake"),
	}
	st.Probe = w
	r.watches = append(r.watches, w)
}

// ChargeSpan records one billed CPU charge: a span on the entity's process
// group (thread = station name) plus a rollup into the entity's usage —
// the same (entity, category, duration) triple the accountant records, so
// the trace reconciles with the cpuacct breakdown exactly.
func (r *Recorder) ChargeSpan(entity, guestOf string, cat cpuacct.Category, station string, d time.Duration) {
	if r == nil || d <= 0 {
		return
	}
	key := r.key(entity)
	r.rollup(key).Add(cat, d)
	if guestOf != "" {
		r.rollup(r.key(guestOf)).Add(cpuacct.Guest, d)
	}
	pid := r.tr.Pid(key)
	tid := r.tr.Tid(station)
	r.emit(Event{Ph: PhaseSpan, Name: cat.String(), Cat: "cpu", TS: r.now(), Dur: d, Pid: pid, Tid: tid})
	r.reg.Counter("trace/charge_spans").Inc()
}

// rollup returns the usage bucket for a run-qualified entity key.
func (r *Recorder) rollup(key string) *cpuacct.Usage {
	u, ok := r.rollups[key]
	if !ok {
		u = &cpuacct.Usage{}
		r.rollups[key] = u
		r.rollupOrder = append(r.rollupOrder, key)
	}
	return u
}

// Rollup returns the recorded usage for an entity within a run ("" for
// unlabeled runs). It mirrors what the accountant saw through ChargeSpan.
func (r *Recorder) Rollup(run, entity string) cpuacct.Usage {
	if r == nil {
		return cpuacct.Usage{}
	}
	key := entity
	if run != "" {
		key = run + "/" + entity
	}
	if u, ok := r.rollups[key]; ok {
		return *u
	}
	return cpuacct.Usage{}
}

// RollupKeys returns all run-qualified entity keys in first-use order.
func (r *Recorder) RollupKeys() []string {
	if r == nil {
		return nil
	}
	out := make([]string, len(r.rollupOrder))
	copy(out, r.rollupOrder)
	return out
}

// FlowBegin opens a per-frame flow context and returns its id (0 on a nil
// recorder). origin is the emitting namespace; desc describes the flow
// (typically the 5-tuple).
func (r *Recorder) FlowBegin(origin, desc string) uint64 {
	if r == nil {
		return 0
	}
	r.flowSeq++
	id := r.flowSeq
	pid := r.tr.Pid(r.key("net"))
	r.emit(Event{Ph: PhaseFlowBegin, Name: desc, Cat: "flow", TS: r.now(), Pid: pid, ID: id, Arg: Arg{Key: "origin", Str: origin}})
	r.reg.Counter("trace/flows").Inc()
	return id
}

// FlowHop marks a flow's arrival at a datapath hop (an interface, a
// bridge port, a virtio queue).
func (r *Recorder) FlowHop(id uint64, hop string) {
	if r == nil || id == 0 {
		return
	}
	r.emit(Event{Ph: PhaseFlowStep, Name: hop, Cat: "flow", TS: r.now(), Pid: r.tr.Pid(r.key("net")), ID: id})
}

// FlowEnd closes a flow context at local delivery.
func (r *Recorder) FlowEnd(id uint64, where string) {
	if r == nil || id == 0 {
		return
	}
	r.emit(Event{Ph: PhaseFlowEnd, Name: where, Cat: "flow", TS: r.now(), Pid: r.tr.Pid(r.key("net")), ID: id})
}

// Instant records a point event on a named process group with one numeric
// annotation.
func (r *Recorder) Instant(group, name, argKey string, argVal float64) {
	if r == nil {
		return
	}
	e := Event{Ph: PhaseInstant, Name: name, Cat: "op", TS: r.now(), Pid: r.tr.Pid(r.key(group))}
	if argKey != "" {
		e.Arg = numArg(argKey, argVal)
	}
	r.emit(e)
}

// Op is an in-flight control-plane operation span opened by OpBegin.
type Op struct {
	rec   *Recorder
	pid   int32
	name  string
	start sim.Time
	done  bool
}

// OpBegin opens an operation span on a named process group (e.g.
// "vmm/vm0" or "cni/brfusion"). Returns nil on a nil recorder; Op.End is
// nil-safe, so call sites need no guards.
func (r *Recorder) OpBegin(group, name string) *Op {
	if r == nil {
		return nil
	}
	return &Op{rec: r, pid: r.tr.Pid(r.key(group)), name: name, start: r.now()}
}

// End closes the operation span, recording its duration and error status.
// Multiple calls are idempotent.
func (o *Op) End(err error) {
	if o == nil || o.done {
		return
	}
	o.done = true
	r := o.rec
	e := Event{Ph: PhaseSpan, Name: o.name, Cat: "op", TS: o.start, Dur: time.Duration(r.now() - o.start), Pid: o.pid}
	if err != nil {
		e.Arg = Arg{Key: "err", Str: err.Error()}
	}
	r.emit(e)
	r.reg.Counter("trace/ops").Inc()
}

// WriteChromeTrace exports the trace as Chrome trace-event JSON.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	if r == nil {
		return nil
	}
	return r.tr.WriteChrome(w)
}

// WriteTextTrace exports the trace in the compact text form.
func (r *Recorder) WriteTextTrace(w io.Writer) error {
	if r == nil {
		return nil
	}
	return r.tr.WriteText(w)
}

// MetricsTables renders the collected metrics: per-station instruments,
// per-entity CPU rollups, and the instrument registry. Rows appear in
// deterministic (first-use) order.
func (r *Recorder) MetricsTables() []*report.Table {
	if r == nil {
		return nil
	}
	stations := report.New("Station metrics",
		"station", "entity", "servers", "completed", "busy_ms", "util", "max_queue", "wakeups", "busy_transitions")
	for _, w := range r.watches {
		stations.AddRow(
			w.label, w.entity, w.st.Servers(), w.st.Completed,
			float64(w.st.BusyTime)/1e6, w.st.Utilization(), w.st.MaxQueue,
			w.st.Wakeups, w.busyT)
	}
	entities := report.New("CPU rollup (per entity)",
		"entity", "usr_ms", "sys_ms", "soft_ms", "guest_ms", "total_ms")
	for _, k := range r.rollupOrder {
		u := r.rollups[k]
		entities.AddRow(k,
			float64(u.Of(cpuacct.Usr))/1e6, float64(u.Of(cpuacct.Sys))/1e6,
			float64(u.Of(cpuacct.Soft))/1e6, float64(u.Of(cpuacct.Guest))/1e6,
			float64(u.Total())/1e6)
	}
	return []*report.Table{stations, entities, r.reg.Table("Telemetry instruments")}
}

// stationWatch implements sim.StationProbe for one instrumented station.
type stationWatch struct {
	rec    *Recorder
	st     *sim.Station
	entity string
	label  string
	pid    int32

	busyT, idleT uint64
	util, wake   *sim.Series
}

// StationQueue records the queue depth after an enqueue or dequeue.
func (w *stationWatch) StationQueue(s *sim.Station, depth int) {
	w.rec.emit(Event{Ph: PhaseCounter, Name: "queue", Cat: "station", TS: w.rec.now(), Pid: w.pid, Arg: numArg("depth", float64(depth))})
}

// StationBusy records an idle→busy transition.
func (w *stationWatch) StationBusy(s *sim.Station) {
	w.busyT++
	w.rec.emit(Event{Ph: PhaseCounter, Name: "busy", Cat: "station", TS: w.rec.now(), Pid: w.pid, Arg: numArg("busy", 1)})
}

// StationIdle records a busy→idle transition.
func (w *stationWatch) StationIdle(s *sim.Station) {
	w.idleT++
	w.rec.emit(Event{Ph: PhaseCounter, Name: "busy", Cat: "station", TS: w.rec.now(), Pid: w.pid, Arg: numArg("busy", 0)})
}

// StationWake records a wake-up penalty being paid.
func (w *stationWatch) StationWake(s *sim.Station, penalty time.Duration) {
	w.wake.AddDuration(penalty)
	w.rec.emit(Event{Ph: PhaseInstant, Name: "wake", Cat: "station", TS: w.rec.now(), Pid: w.pid, Arg: numArg("penalty_us", float64(penalty)/1e3)})
}
