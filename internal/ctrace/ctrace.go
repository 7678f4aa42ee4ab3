// Package ctrace is the streaming cluster-trace loader: an
// iterator-style reader over Google cluster-trace files (optionally
// gzip-compressed) that yields normalized pod lifecycle events for the
// cluster lifecycle simulator.
//
// It is deliberately distinct from two similarly named things:
//
//   - internal/trace is the synthetic-marginals *generator*: it samples
//     populations with the documented shape of the Google traces
//     (heavy-tailed task counts and request sizes) from a seed.
//   - internal/telemetry's trace export is the Chrome trace-event
//     *output* of a simulation run (the -trace flag on the cmds).
//
// ctrace is the third leg: *input* — replaying a recorded trace file
// instead of synthesizing churn. The three never mix: a file on disk is
// ctrace's problem, a seed is trace's, a chrome://tracing JSON is
// telemetry's.
//
// The reader is streaming by contract: it holds the open-pod table (one
// small entry per live job) and the current-timestamp submit groups,
// never the file. Replaying a multi-day, multi-million-pod trace costs
// memory proportional to the number of *concurrently live* pods, not to
// the file size.
//
// Google published its traces in two schemas, and the reader accepts
// both, sniffed from the first byte:
//
// CSV — the 2011 task_events schema, one row per task event:
//
//	time_us,event,job,task,user,cpu,mem
//	0,0,j1,0,alice,0.01,0.02
//	0,0,j1,1,alice,0.03,0.01
//	3600000000,4,j1,0,alice,0,0
//	3600000000,4,j1,1,alice,0,0
//
// time_us is microseconds since trace start; event is the Google event
// code (0 SUBMIT, 2 EVICT, 3 FAIL, 4 FINISH, 5 KILL, 6 LOST; 1/7/8 are
// ignored) or one of the names submit/finish/kill; cpu and mem are
// requests relative to the largest machine ([0,1]). Consecutive-in-time
// SUBMIT rows of one job coalesce into a single pod Submit event whose
// containers are the tasks in row order; a pod ends when its last live
// task ends, with Kind Finish for FINISH and Kill for everything else.
// Lines starting with '#', blank lines and the canonical header line
// are skipped.
//
// instance_events — the 2019 v3 schema's BigQuery JSON export, one
// object per line, selected by a first byte of '{'. Its rows feed the
// same task-level state machine as the CSV (see instance_events.go):
//
//	{"time":"0","type":"0","collection_id":"1","instance_index":"0","user":"alice","resource_request":{"cpus":0.01,"memory":0.02}}
//	{"time":"3600000000","type":"6","collection_id":"1","instance_index":"0"}
//
// Validation is strict by default — malformed rows, NaN/negative/>1
// requests, decreasing timestamps, duplicate submits and ends for
// unknown jobs are errors naming the line — because a trace driving a
// cost experiment must not be silently reinterpreted. Options.Lenient
// downgrades all of those to counted skips for tolerant ingestion of
// scruffy real-world files.
package ctrace

import (
	"fmt"
	"io"
	"time"

	"nestless/internal/trace"
)

// EventKind classifies a normalized pod lifecycle event.
type EventKind uint8

const (
	// Submit is a pod entering the cluster with its container requests.
	Submit EventKind = iota
	// Finish is a pod ending normally (Google FINISH).
	Finish
	// Kill is a pod ending abnormally (Google EVICT/FAIL/KILL/LOST).
	Kill
)

// String names the kind the way the CSV's symbolic event column
// spells it.
func (k EventKind) String() string {
	switch k {
	case Submit:
		return "submit"
	case Finish:
		return "finish"
	case Kill:
		return "kill"
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Event is one normalized pod lifecycle event. Times are durations
// since trace start (the simulator's virtual epoch), quantized to the
// trace formats' microsecond resolution.
type Event struct {
	Time time.Duration
	Kind EventKind
	Pod  string // job/pod identifier, unique per trace
	User string // owning tenant; the shard partition key ("" falls back to Pod)
	// Containers carries the per-task requests relative to the largest
	// machine. Set on Submit events only.
	Containers []trace.Container
}

// Key is the partition key: the user when present (all of a tenant's
// pods land in one shard world), otherwise the pod ID.
func (e Event) Key() string {
	if e.User != "" {
		return e.User
	}
	return e.Pod
}

// FNV-1a, the repository's standard content hash for anything that
// must stay stable across releases: world and replay digests, golden
// lines and this partition, whose shard assignment is observable.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Partition maps an event to one of n shard worlds by FNV-1a hash of
// its key — the deterministic hash-partition of the trace stream. The
// mapping depends only on the event and n, never on shard count or
// scheduling.
func Partition(e Event, n int) int {
	return PartitionKey(e.Key(), n)
}

// PartitionKey maps a raw partition key (a user, or a pod ID for
// userless pods) to one of n shard worlds — the same FNV-1a mapping
// Partition applies to an event's key. Exported so migration policies
// can recover a transferred pod's home world from the key it was
// partitioned by.
func PartitionKey(key string, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint64(fnvOffset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime
	}
	return int(h % uint64(n))
}

// Source is the one interface the cluster simulator consumes a workload
// stream through — a file-backed Reader, a synthetic population adapter
// (NewSynth), or anything else that yields time-ordered events. Next
// returns io.EOF after the last event.
type Source interface {
	Next() (Event, error)
}

// Stats counts what a Reader consumed.
type Stats struct {
	Rows    int // physical rows/lines parsed (excluding blanks/comments/header)
	Ignored int // rows with event codes outside the lifecycle set (1/7/8)
	Skipped int // rows dropped in lenient mode that strict mode would reject
	Pods    int // Submit events emitted
	Ends    int // Finish/Kill events emitted
}

// Slice is a Source over an in-memory event slice — the adapter for
// synthetic populations and for tests/benchmarks that want to replay
// without file I/O.
type Slice struct {
	events []Event
	pos    int
}

// NewSlice wraps evs (already time-ordered) as a Source.
func NewSlice(evs []Event) *Slice {
	return &Slice{events: evs}
}

// Next yields the next event or io.EOF.
func (s *Slice) Next() (Event, error) {
	if s.pos >= len(s.events) {
		return Event{}, io.EOF
	}
	ev := s.events[s.pos]
	s.pos++
	return ev, nil
}

// Len reports the total number of events in the slice.
func (s *Slice) Len() int { return len(s.events) }

// Rewind resets the cursor so the slice can be replayed again.
func (s *Slice) Rewind() { s.pos = 0 }
