package ctrace

import (
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// FuzzParseTraceLine drives the CSV task-row parser plus whole
// strict-mode reader passes over the input as a two-line document (a
// line starting with '{' reads as an instance_events export, so the
// JSON seeds exercise that decoder and its rejections), once bare and
// once behind a '#' comment line. Properties: no panics ever; anything
// the CSV parser accepts satisfies the row invariants the consumers
// rely on; the reader never yields an event that violates the
// normalized-event contract (non-negative time, known kind, non-empty
// pod id, finite in-range requests); and the comment line changes
// neither the events nor whether the document reads to the end.
func FuzzParseTraceLine(f *testing.F) {
	seeds := []string{
		"1000,0,j1,0,alice,0.25,0.5",
		"1000,4,j1,0,alice,0,0",
		"1000,kill,j1,0,alice,0,0",
		"1000,SUBMIT,j1,1,alice,0.0625,0.125",
		"1000, 0 ,\tj1 ,0,\u00a0alice\u0085, 0.25\r,0.5 ", // white space around fields
		// Pod-level JSON rows: instance_events rows without a
		// collection_id, so the reader rejects them.
		`{"t_us":1000,"ev":"submit","pod":"p1","user":"a","containers":[{"cpu":0.25,"mem":0.5}]}`,
		`{"t_us":9000,"ev":"finish","pod":"p1"}`,
		// Malformed shapes the parser must reject without panicking.
		"1000,0,j1,0,alice,0.25",            // missing field
		"xx,0,j1,0,alice,0.25,0.5",          // bad time
		"-7,0,j1,0,alice,0.25,0.5",          // negative time
		"1000,0,j1,0,alice,NaN,0.5",         // NaN request
		"1000,0,j1,0,alice,-0.25,0.5",       // negative request
		"1000,0,j1,0,alice,1e308,0.5",       // out-of-range request
		"1000,0,,0,alice,0.25,0.5",          // empty job
		"1000,99,j1,0,alice,0.25,0.5",       // unknown code
		"1000,0,j1,-1,alice,0.25,0.5",       // negative task
		`{"t_us":1000,"ev":"submit"}`,       // no pod, no containers
		`{"t_us":-1,"ev":"kill","pod":"p"}`, // negative time
		`{"bogus":true}`,                    // unknown field soup
		"\x00\xff,",                         // binary garbage
		// 2019 instance_events shapes (the whole-reader pass sniffs
		// these into the adapter by their first byte).
		`{"time":"1000","type":"0","collection_id":"389","instance_index":"0","user":"a","resource_request":{"cpus":"0.25","memory":0.5}}`,
		`{"time":"9000","type":"7","collection_id":"389","instance_index":"0"}`,
		`{"time":"1000","type":"11","collection_id":"1","instance_index":"0"}`, // unknown type
		`{"time":"1000","type":"0","collection_id":"0","instance_index":"0"}`,  // missing collection
		`{"time":"xx","type":"0","collection_id":"1","instance_index":"0"}`,    // bad INT64 string
	}
	for _, s := range seeds {
		f.Add(s)
	}
	// The number fast paths' edges, once in each numeric column.
	for _, n := range numberEdges {
		f.Add(n + ",0,j1,0,alice,0.25,0.5")
		f.Add("1000,0,j1," + n + ",alice,0.25,0.5")
		f.Add("1000,0,j1,0,alice," + n + ",0.5")
		f.Add("1000,0,j1,0,alice,0.25," + n)
	}
	f.Fuzz(func(t *testing.T, line string) {
		row, err := parseCSVLine(line)
		if err == nil {
			if row.code < 0 || row.code > 8 {
				t.Fatalf("accepted code %d", row.code)
			}
			if row.job == "" {
				t.Fatal("accepted empty job")
			}
			if row.task < 0 {
				t.Fatalf("accepted task %d", row.task)
			}
		}
		checkRowMatchesStrconv(t, line, row, err)

		// Whole-reader passes: the line as a document body (with the
		// CSV header when it does not sniff as JSON), bare and behind a
		// comment. Strict mode may error; it must not panic, and yielded
		// events must be well-formed.
		body := line + "\n"
		if !strings.HasPrefix(strings.TrimLeft(line, " \t"), "{") {
			body = header + "\n" + body
		}
		evs, complete := readAll(t, body)
		cevs, ccomplete := readAll(t, "# exported\n"+body)
		if complete != ccomplete || !reflect.DeepEqual(evs, cevs) {
			t.Fatalf("comment line changed the read: %d events (complete %v), bare %d (complete %v)",
				len(cevs), ccomplete, len(evs), complete)
		}
	})
}

// readAll reads body with a strict reader, checking every event it
// yields against the normalized-event contract. It returns the events
// and whether the reader got to the end without an error.
func readAll(t *testing.T, body string) ([]Event, bool) {
	r, err := NewReader(strings.NewReader(body), Options{})
	if err != nil {
		return nil, false
	}
	var evs []Event
	for {
		ev, err := r.Next()
		if err != nil {
			return evs, err == io.EOF
		}
		if ev.Time < 0 {
			t.Fatalf("yielded negative time %v", ev.Time)
		}
		if ev.Kind != Submit && ev.Kind != Finish && ev.Kind != Kill {
			t.Fatalf("yielded kind %v", ev.Kind)
		}
		if ev.Pod == "" {
			t.Fatal("yielded empty pod id")
		}
		for _, c := range ev.Containers {
			if math.IsNaN(c.CPU) || c.CPU < 0 || c.CPU > 1 ||
				math.IsNaN(c.Mem) || c.Mem < 0 || c.Mem > 1 {
				t.Fatalf("yielded out-of-range request %+v", c)
			}
		}
		evs = append(evs, ev)
	}
}

// checkRowMatchesStrconv is the differential half of the fuzz: split
// at commas and trimmed with strings.TrimSpace, the line's fields equal
// the parsed row's, the numeric ones decoded through strconv, and a
// field strconv rejects gets the row rejected.
func checkRowMatchesStrconv(t *testing.T, line string, row csvRow, err error) {
	f := strings.Split(line, ",")
	if len(f) != 7 {
		return
	}
	for i := range f {
		f[i] = strings.TrimSpace(f[i])
	}
	us, uerr := strconv.ParseInt(f[0], 10, 64)
	task, terr := strconv.Atoi(f[3])
	cpu, cerr := strconv.ParseFloat(f[5], 64)
	mem, merr := strconv.ParseFloat(f[6], 64)
	if uerr != nil || terr != nil || cerr != nil || merr != nil {
		if err == nil {
			t.Fatalf("accepted %q, which strconv rejects", line)
		}
		return
	}
	if err != nil {
		return // rejected for another reason (event, job, task sign)
	}
	if row.us != us || row.task != task {
		t.Fatalf("%q: time %d task %d, strconv %d %d", line, row.us, row.task, us, task)
	}
	if row.job != f[2] || row.user != f[4] {
		t.Fatalf("%q: job %q user %q, trimmed %q %q", line, row.job, row.user, f[2], f[4])
	}
	if math.Float64bits(row.cpu) != math.Float64bits(cpu) || math.Float64bits(row.mem) != math.Float64bits(mem) {
		t.Fatalf("%q: cpu %v mem %v, strconv %v %v", line, row.cpu, row.mem, cpu, mem)
	}
}
