package ctrace

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"time"
	"unicode/utf8"
	"unsafe"

	"nestless/internal/trace"
)

// Options configures a Reader.
type Options struct {
	// Lenient downgrades validation errors (malformed rows, bad
	// requests, out-of-order timestamps, duplicate submits, ends for
	// unknown jobs) to counted skips. The default is strict: the first
	// bad row is an error naming the line.
	Lenient bool
}

// header is the canonical CSV header line, skipped when present.
const header = "time_us,event,job,task,user,cpu,mem"

// maxLine bounds one physical line (an instance_events row carrying
// very many columns); beyond it the file is malformed.
const maxLine = 4 << 20

// Input mode, sniffed from the first byte: '{' or '[' means a 2019 v3
// instance_events export (see instance_events.go), anything else the
// task_events CSV.
const (
	modeCSV = iota
	modeInstance
)

// jobState is one open-pod table entry: a job accumulating SUBMIT rows
// at the current instant (building) or live awaiting its end (open task
// count). Entries are pooled across jobs — ending a job recycles its
// state, but never its containers slice, which escapes into the Submit
// event the consumer keeps.
type jobState struct {
	id       string
	user     string
	ctrs     []trace.Container
	open     int
	building bool
}

// Reader streams normalized events out of a trace file. Memory is
// bounded by the number of concurrently live pods (the open-pod table
// and the current-timestamp submit groups), never by file size. The
// row loop is allocation-free outside the data that escapes into
// events: parsing works on the scanner's byte buffer in place, job
// states are pooled, user names are interned once per tenant, and the
// emission queue's backing array is reused across flushes.
type Reader struct {
	opts    Options
	sc      *bufio.Scanner
	mode    int
	line    int
	lastUS  int64 // last accepted row timestamp (order validation)
	started bool

	// CSV submit coalescing: jobs whose SUBMIT rows are accumulating at
	// curUS, flushed in first-seen order when time advances. jobs holds
	// every building or live job; free recycles ended entries.
	curUS int64
	order []*jobState
	jobs  map[string]*jobState
	free  []*jobState
	users map[string]string // interned tenant names

	// ready is the emission queue (flushes can release several events at
	// once), drained head-first and reset in place when it empties.
	ready     []Event
	readyHead int

	scratch []byte // per-row key formatting (instance_events)
	stats   Stats
	err     error // sticky terminal error
	closers []io.Closer
}

// Open opens a trace file for streaming. Gzip compression and the
// CSV/instance_events format are sniffed from the content, not the
// name.
func Open(path string, opts Options) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r, err := NewReader(f, opts)
	if err != nil {
		f.Close()
		return nil, err
	}
	r.closers = append(r.closers, f)
	return r, nil
}

// NewReader wraps an arbitrary stream. See Open for file paths.
func NewReader(src io.Reader, opts Options) (*Reader, error) {
	br := bufio.NewReader(src)
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("ctrace: gzip: %w", err)
		}
		br = bufio.NewReader(gz)
	}
	r := &Reader{
		opts:  opts,
		mode:  modeCSV,
		jobs:  map[string]*jobState{},
		users: map[string]string{},
	}
	// Format sniff: an instance_events export is JSON, so its first
	// byte is '{' (or '[' for a malformed one the row decoder rejects).
	if first, err := br.Peek(1); err == nil && (first[0] == '{' || first[0] == '[') {
		r.mode = modeInstance
	}
	r.sc = bufio.NewScanner(br)
	r.sc.Buffer(make([]byte, 0, 64<<10), maxLine)
	return r, nil
}

// Close releases the underlying file (if Open was used).
func (r *Reader) Close() error {
	var err error
	for i := len(r.closers) - 1; i >= 0; i-- {
		if cerr := r.closers[i].Close(); err == nil {
			err = cerr
		}
	}
	r.closers = nil
	return err
}

// Stats reports consumption counters (complete once Next returned
// io.EOF).
func (r *Reader) Stats() Stats { return r.stats }

// Next yields the next normalized event in time order, io.EOF at the
// end, or the first validation error in strict mode.
func (r *Reader) Next() (Event, error) {
	for {
		if r.readyHead < len(r.ready) {
			ev := r.ready[r.readyHead]
			r.ready[r.readyHead] = Event{} // release escaped references
			r.readyHead++
			if r.readyHead == len(r.ready) {
				r.ready = r.ready[:0]
				r.readyHead = 0
			}
			return ev, nil
		}
		if r.err != nil {
			return Event{}, r.err
		}
		if !r.sc.Scan() {
			if err := r.sc.Err(); err != nil {
				r.err = fmt.Errorf("ctrace: line %d: %w", r.line+1, err)
			} else {
				r.flushSubmits()
				r.err = io.EOF
			}
			continue
		}
		r.line++
		line := bytes.TrimSpace(r.sc.Bytes())
		if len(line) == 0 || line[0] == '#' || (r.mode == modeCSV && string(line) == header) {
			continue
		}
		r.stats.Rows++
		if err := r.consume(line); err != nil {
			if r.opts.Lenient {
				r.stats.Skipped++
				continue
			}
			r.err = fmt.Errorf("ctrace: line %d: %w", r.line, err)
		}
	}
}

// consume parses and applies one physical line. line aliases the
// scanner's buffer and is only valid for this call.
func (r *Reader) consume(line []byte) error {
	if r.mode == modeInstance {
		return r.consumeInstance(line)
	}
	row, err := parseCSVRow(line)
	if err != nil {
		return err
	}
	return r.apply(row)
}

// badf builds a row-level validation error.
func badf(format string, args ...interface{}) error {
	return fmt.Errorf(format, args...)
}

// bstr views b as a string without copying. Only for callees that do
// not retain their argument — the strconv parsers qualify (they clone
// the input into any error they build).
func bstr(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// checkRequest validates one resource request (relative to the largest
// machine, so [0,1] and finite).
func checkRequest(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return badf("%s request is not finite", name)
	}
	if v < 0 || v > 1 {
		return badf("%s request %v outside [0,1]", name, v)
	}
	return nil
}

// maxTimeUS is the latest timestamp an Event's time.Duration holds.
const maxTimeUS = math.MaxInt64 / int64(time.Microsecond)

// checkTime validates and registers a row timestamp: non-negative,
// within the Event time range and non-decreasing across the file.
func (r *Reader) checkTime(us int64) error {
	if us < 0 {
		return badf("negative timestamp %d", us)
	}
	if us > maxTimeUS {
		return badf("timestamp %dus past the latest representable %dus", us, maxTimeUS)
	}
	if r.started && us < r.lastUS {
		return badf("timestamp %dus before previous row at %dus (trace must be time-ordered)", us, r.lastUS)
	}
	return nil
}

// accept commits a validated row timestamp, flushing submit groups from
// earlier instants first.
func (r *Reader) accept(us int64) {
	if !r.started || us > r.curUS {
		r.flushSubmits()
		r.curUS = us
	}
	r.started = true
	r.lastUS = us
}

// intern returns the canonical copy of a tenant name so every event of
// one user shares a single string.
func (r *Reader) intern(user []byte) string {
	if len(user) == 0 {
		return ""
	}
	if u, ok := r.users[string(user)]; ok { // no-alloc map probe
		return u
	}
	u := string(user)
	r.users[u] = u
	return u
}

// takeJob pops a pooled entry (zeroed by emitEnd when recycled).
func (r *Reader) takeJob() *jobState {
	if n := len(r.free); n > 0 {
		js := r.free[n-1]
		r.free = r.free[:n-1]
		return js
	}
	return &jobState{}
}

// newJob materializes an entry for a job starting to build.
func (r *Reader) newJob(job, user []byte) *jobState {
	js := r.takeJob()
	js.id = string(job)
	js.user = r.intern(user)
	js.building = true
	return js
}

// csvRow is one parsed CSV line with its strings materialized — the
// fuzz surface's view (the hot path uses rawRow and never copies).
type csvRow struct {
	us       int64
	code     int
	job      string
	task     int
	user     string
	cpu, mem float64
}

// rawRow is the zero-copy parse of one task-level row. job and user
// alias the scanner's buffer: copy or intern them before the next line.
type rawRow struct {
	us       int64
	code     int
	job      []byte
	task     int
	user     []byte
	cpu, mem float64
}

// Symbolic CSV event names (folded case, no per-row conversion).
var (
	evSubmit = []byte("submit")
	evFinish = []byte("finish")
	evKill   = []byte("kill")
)

// parseCSVLine parses (without applying) one CSV row. It is the CSV
// half of the fuzz surface.
func parseCSVLine(line string) (csvRow, error) {
	raw, err := parseCSVRow([]byte(line))
	if err != nil {
		return csvRow{}, err
	}
	return csvRow{
		us: raw.us, code: raw.code, job: string(raw.job),
		task: raw.task, user: string(raw.user), cpu: raw.cpu, mem: raw.mem,
	}, nil
}

// parseCSVRow parses one CSV row in place over the scanner's buffer.
func parseCSVRow(line []byte) (rawRow, error) {
	var row rawRow
	var f [7][]byte
	rest := line
	for i := 0; i < 6; i++ {
		j := bytes.IndexByte(rest, ',')
		if j < 0 {
			return row, badf("want 7 fields time_us,event,job,task,user,cpu,mem; got %d", i+1)
		}
		f[i] = trimField(rest[:j])
		rest = rest[j+1:]
	}
	if bytes.IndexByte(rest, ',') >= 0 {
		// Six commas are behind us; each one left adds a field.
		return row, badf("want 7 fields time_us,event,job,task,user,cpu,mem; got %d", 7+bytes.Count(rest, []byte{','}))
	}
	f[6] = trimField(rest)

	us, err := parseInt(f[0])
	if err != nil {
		return row, badf("time_us: %v", err)
	}
	row.us = us
	switch {
	case bytes.EqualFold(f[1], evSubmit):
		row.code = 0
	case bytes.EqualFold(f[1], evFinish):
		row.code = 4
	case bytes.EqualFold(f[1], evKill):
		row.code = 5
	default:
		code, err := parseInt(f[1])
		if err != nil || code < 0 || code > 8 {
			return row, badf("event %q is neither a Google code 0-8 nor submit/finish/kill", f[1])
		}
		row.code = int(code)
	}
	row.job = f[2]
	if len(row.job) == 0 {
		return row, badf("empty job id")
	}
	task, err := parseInt(f[3])
	if err != nil || task < 0 || int64(int(task)) != task {
		return row, badf("task index %q is not a non-negative integer", f[3])
	}
	row.task = int(task)
	row.user = f[4]
	if row.cpu, err = parseFloat(f[5]); err != nil {
		return row, badf("cpu: %v", err)
	}
	if row.mem, err = parseFloat(f[6]); err != nil {
		return row, badf("mem: %v", err)
	}
	return row, nil
}

// trimField is bytes.TrimSpace, skipping the call for the usual field:
// one whose end bytes are both ASCII above ' ' cannot start or end in
// white space.
func trimField(b []byte) []byte {
	if len(b) > 0 && b[0] > ' ' && b[0] < utf8.RuneSelf && b[len(b)-1] > ' ' && b[len(b)-1] < utf8.RuneSelf {
		return b
	}
	return bytes.TrimSpace(b)
}

// Number fields. The trace's numbers are short — `113715`, `0.0041` —
// so parseInt and parseFloat decode the plain forms directly and hand
// everything else (signs, exponents, inf/nan, hex, underscores,
// overlong digit runs) to strconv, whose results and error texts they
// therefore share exactly.

// maxFastDigits is the longest all-digit field parseInt accumulates
// itself: 18 digits stay below 10^18 < 2^63, so the sum cannot
// overflow.
const maxFastDigits = 18

// parseInt is strconv.ParseInt(b, 10, 64) with a fast path for a field
// of 1 to 18 ASCII digits.
func parseInt(b []byte) (int64, error) {
	if len(b) > 0 && len(b) <= maxFastDigits {
		var n int64
		for _, c := range b {
			c -= '0'
			if c > 9 {
				return strconv.ParseInt(bstr(b), 10, 64)
			}
			n = n*10 + int64(c)
		}
		return n, nil
	}
	return strconv.ParseInt(bstr(b), 10, 64)
}

// pow10 holds the powers of ten float64 represents exactly.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// parseFloat is strconv.ParseFloat(b, 64) with an exact fast path for
// plain decimals.
func parseFloat(b []byte) (float64, error) {
	if v, ok := parseDecimal(b); ok {
		return v, nil
	}
	return strconv.ParseFloat(bstr(b), 64)
}

// parseDecimal decodes a field of the form [0-9]*(\.[0-9]*)? with at
// least one digit, whose digits read as one integer m ≤ 2^53 with k ≤
// 22 of them after the point, as float64(m) / 10^k. Both operands are
// exact and IEEE division rounds correctly, so the result is the
// correctly rounded value of the decimal — bit for bit what
// strconv.ParseFloat returns (Clinger, PLDI 1990). Leading zeros add
// nothing to m, so they cost nothing against the limit. ok is false
// for any other field.
func parseDecimal(b []byte) (v float64, ok bool) {
	var m uint64
	digits, k := 0, 0
	dot := false
	for _, c := range b {
		if c == '.' {
			if dot {
				return 0, false
			}
			dot = true
			continue
		}
		c -= '0'
		if c > 9 {
			return 0, false
		}
		// m ≤ 2^53 here, so m*10+9 cannot overflow uint64.
		if m = m*10 + uint64(c); m > 1<<53 {
			return 0, false
		}
		digits++
		if dot {
			k++
		}
	}
	if digits == 0 || k >= len(pow10) {
		return 0, false
	}
	return float64(m) / pow10[k], true
}

// apply is the task-level lifecycle state machine shared by the CSV
// format and the instance_events adapter: submits coalesce into pod
// submit groups, task ends decrement the job's live count and emit the
// pod end when it empties.
func (r *Reader) apply(row rawRow) error {
	if err := r.checkTime(row.us); err != nil {
		return err
	}
	switch row.code {
	case 1, 7, 8: // SCHEDULE / UPDATE_PENDING / UPDATE_RUNNING: not lifecycle
		r.stats.Ignored++
		r.accept(row.us)
		return nil
	case 0: // SUBMIT
		if err := checkRequest("cpu", row.cpu); err != nil {
			return err
		}
		if err := checkRequest("mem", row.mem); err != nil {
			return err
		}
		js := r.jobs[string(row.job)] // no-alloc map probe
		if js != nil && !js.building {
			return badf("job %s submitted while already live", row.job)
		}
		r.accept(row.us)
		if js != nil && !js.building {
			// accept flushed the job's earlier-instant group: this row is
			// a duplicate submit of a now-live job.
			return badf("job %s submitted while already live", row.job)
		}
		if js == nil {
			js = r.newJob(row.job, row.user)
			r.jobs[js.id] = js
			r.order = append(r.order, js)
		}
		js.ctrs = append(js.ctrs, trace.Container{CPU: row.cpu, Mem: row.mem})
		return nil
	case 2, 3, 4, 5, 6: // EVICT / FAIL / FINISH / KILL / LOST: task ends
		// accept flushes groups from earlier instants; an end at the
		// submit instant itself closes the same-instant groups explicitly
		// so the submit event precedes its own end.
		r.accept(row.us)
		js := r.jobs[string(row.job)]
		if js == nil {
			return badf("end event for unknown job %s", row.job)
		}
		if js.building {
			r.flushSubmits()
		}
		if js.open--; js.open > 0 {
			return nil
		}
		kind := Kill
		if row.code == 4 {
			kind = Finish
		}
		r.emitEnd(row.us, kind, js)
		return nil
	}
	// code 0-8 was validated by the parsers; anything else is unreachable.
	return badf("unhandled event code %d", row.code)
}

// flushSubmits releases the submit groups built at the current
// timestamp, in first-seen job order, and registers their live task
// counts. The per-job state survives until the job ends, so end events
// partition to the same world as their submit.
func (r *Reader) flushSubmits() {
	for _, js := range r.order {
		js.open = len(js.ctrs)
		js.building = false
		r.stats.Pods++
		r.ready = append(r.ready, Event{
			Time: time.Duration(r.curUS) * time.Microsecond, Kind: Submit,
			Pod: js.id, User: js.user, Containers: js.ctrs,
		})
	}
	r.order = r.order[:0]
}

// emitEnd queues a pod end event and recycles the job's state. The
// containers slice escaped into the Submit event, so it never returns
// to the pool.
func (r *Reader) emitEnd(us int64, kind EventKind, js *jobState) {
	r.stats.Ends++
	r.ready = append(r.ready, Event{
		Time: time.Duration(us) * time.Microsecond, Kind: kind, Pod: js.id, User: js.user,
	})
	delete(r.jobs, js.id)
	*js = jobState{}
	r.free = append(r.free, js)
}
