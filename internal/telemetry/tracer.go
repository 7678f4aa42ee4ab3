package telemetry

import (
	"time"

	"nestless/internal/sim"
)

// Event phases, mirroring the Chrome trace-event format: complete spans,
// instant events, counter samples, and nestable async (flow) begin /
// instant / end markers.
const (
	PhaseSpan      byte = 'X'
	PhaseInstant   byte = 'i'
	PhaseCounter   byte = 'C'
	PhaseFlowBegin byte = 'b'
	PhaseFlowStep  byte = 'n'
	PhaseFlowEnd   byte = 'e'
)

// Arg is one optional key/value annotation on an event. Either Str or Num
// is meaningful, never both.
type Arg struct {
	Key   string
	Str   string
	Num   float64
	IsNum bool
}

// numArg builds a numeric annotation.
func numArg(key string, v float64) Arg { return Arg{Key: key, Num: v, IsNum: true} }

// Event is one trace record stamped with virtual time. Pid and Tid are
// interned name handles (see Tracer.Pid/Tid); ID groups the
// begin/step/end events of one async flow.
type Event struct {
	Ph   byte
	Name string
	Cat  string
	TS   sim.Time
	Dur  time.Duration
	Pid  int32
	Tid  int32
	ID   uint64
	Arg  Arg
}

// Tracer accumulates events in emission order. Emission order is the
// simulation's deterministic event order, so two same-seed runs produce
// identical tracers — and identical exports.
type Tracer struct {
	events []Event
	pids   internTable
	tids   internTable
}

type pidTid struct{ pid, tid int32 }

// internTable assigns small stable integer handles to names, first come
// first numbered (starting at 1; 0 means "unset").
type internTable struct {
	names []string
	idx   map[string]int32
}

func (t *internTable) id(name string) int32 {
	if t.idx == nil {
		t.idx = make(map[string]int32)
	}
	if id, ok := t.idx[name]; ok {
		return id
	}
	id := int32(len(t.names)) + 1
	t.names = append(t.names, name)
	t.idx[name] = id
	return id
}

func (t *internTable) name(id int32) string {
	if id < 1 || int(id) > len(t.names) {
		return ""
	}
	return t.names[id-1]
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Len returns the number of recorded events.
func (t *Tracer) Len() int { return len(t.events) }

// Events returns the recorded events in emission order.
func (t *Tracer) Events() []Event { return t.events }

// Pid interns a process-group name and returns its handle.
func (t *Tracer) Pid(name string) int32 { return t.pids.id(name) }

// Tid interns a thread-lane name and returns its handle.
func (t *Tracer) Tid(name string) int32 { return t.tids.id(name) }

// add appends an event.
func (t *Tracer) add(e Event) { t.events = append(t.events, e) }

// threads returns the (pid, tid) pairs of the events that carry both,
// in first-use order, so the exporter can emit thread_name metadata
// under the right process.
func (t *Tracer) threads() []pidTid {
	var out []pidTid
	seen := make(map[pidTid]bool)
	for _, e := range t.events {
		p := pidTid{e.Pid, e.Tid}
		if e.Pid != 0 && e.Tid != 0 && !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// append moves c's events after t's: timestamps shift by shift, flow
// ids by flowBase, and c's process and thread names join t's in c's
// first-use order. c is left empty.
func (t *Tracer) append(c *Tracer, shift sim.Time, flowBase uint64) {
	pids, tids := reintern(&t.pids, &c.pids), reintern(&t.tids, &c.tids)
	for i := range c.events {
		e := &c.events[i]
		e.TS += shift
		e.Pid, e.Tid = pids[e.Pid], tids[e.Tid]
		if e.ID != 0 {
			e.ID += flowBase
		}
	}
	t.events = append(t.events, c.events...)
	*c = Tracer{}
}

// reintern interns every name of from into to, in from's numbering
// order, and returns the handle map: out[old] is the name's handle in
// to (out[0] stays 0, "unset").
func reintern(to, from *internTable) []int32 {
	out := make([]int32, len(from.names)+1)
	for i, name := range from.names {
		out[i+1] = to.id(name)
	}
	return out
}
