package ctrace

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"nestless/internal/trace"
)

// drain pulls every event out of a source.
func drain(t *testing.T, src Source) []Event {
	t.Helper()
	var out []Event
	for {
		ev, err := src.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		out = append(out, ev)
	}
}

// mustReader wraps a literal trace body.
func mustReader(t *testing.T, src io.Reader, opts Options) *Reader {
	t.Helper()
	r, err := NewReader(src, opts)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	return r
}

// read parses a literal trace body.
func read(t *testing.T, body string, opts Options) ([]Event, Stats) {
	t.Helper()
	r := mustReader(t, strings.NewReader(body), opts)
	evs := drain(t, r)
	return evs, r.Stats()
}

func TestCSVSubmitCoalescing(t *testing.T) {
	// Two tasks of one job at one instant are one two-container pod;
	// the third task at a later instant would be a schema violation in
	// a real trace, so keep it a separate job here.
	body := `time_us,event,job,task,user,cpu,mem
1000,0,j1,0,alice,0.25,0.5
1000,0,j1,1,alice,0.125,0.25
2000,0,j2,0,bob,0.0625,0.0625
`
	evs, stats := read(t, body, Options{})
	want := []Event{
		{Time: 1000 * time.Microsecond, Kind: Submit, Pod: "j1", User: "alice",
			Containers: []trace.Container{{CPU: 0.25, Mem: 0.5}, {CPU: 0.125, Mem: 0.25}}},
		{Time: 2000 * time.Microsecond, Kind: Submit, Pod: "j2", User: "bob",
			Containers: []trace.Container{{CPU: 0.0625, Mem: 0.0625}}},
	}
	if !reflect.DeepEqual(evs, want) {
		t.Fatalf("events:\n got %+v\nwant %+v", evs, want)
	}
	if stats.Rows != 3 || stats.Pods != 2 || stats.Ends != 0 {
		t.Fatalf("stats: %+v", stats)
	}
}

func TestCSVEndPairing(t *testing.T) {
	// The pod ends when its LAST task ends; the end kind follows the
	// last task's code (4 = finish, else kill).
	body := `time_us,event,job,task,user,cpu,mem
1000,0,j1,0,alice,0.25,0.5
1000,0,j1,1,alice,0.125,0.25
5000,4,j1,0,alice,0,0
9000,4,j1,1,alice,0,0
9000,0,j2,0,bob,0.0625,0.0625
9000,5,j2,0,bob,0,0
`
	evs, _ := read(t, body, Options{})
	want := []Event{
		{Time: 1000 * time.Microsecond, Kind: Submit, Pod: "j1", User: "alice",
			Containers: []trace.Container{{CPU: 0.25, Mem: 0.5}, {CPU: 0.125, Mem: 0.25}}},
		{Time: 9000 * time.Microsecond, Kind: Finish, Pod: "j1", User: "alice"},
		{Time: 9000 * time.Microsecond, Kind: Submit, Pod: "j2", User: "bob",
			Containers: []trace.Container{{CPU: 0.0625, Mem: 0.0625}}},
		{Time: 9000 * time.Microsecond, Kind: Kill, Pod: "j2", User: "bob"},
	}
	if !reflect.DeepEqual(evs, want) {
		t.Fatalf("events:\n got %+v\nwant %+v", evs, want)
	}
}

func TestCSVEventNames(t *testing.T) {
	// Symbolic submit/finish/kill names parse the same as numeric
	// codes; SCHEDULE (1) and UPDATE_RUNNING (8) rows are ignored.
	body := `time_us,event,job,task,user,cpu,mem
1000,SUBMIT,j1,0,alice,0.25,0.5
2000,1,j1,0,alice,0,0
3000,8,j1,0,alice,0.5,0.5
9000,KILL,j1,0,alice,0,0
`
	evs, stats := read(t, body, Options{})
	want := []Event{
		{Time: 1000 * time.Microsecond, Kind: Submit, Pod: "j1", User: "alice",
			Containers: []trace.Container{{CPU: 0.25, Mem: 0.5}}},
		{Time: 9000 * time.Microsecond, Kind: Kill, Pod: "j1", User: "alice"},
	}
	if !reflect.DeepEqual(evs, want) {
		t.Fatalf("events:\n got %+v\nwant %+v", evs, want)
	}
	if stats.Ignored != 2 {
		t.Fatalf("Ignored = %d, want 2", stats.Ignored)
	}
}

func TestEndUsesSubmitUser(t *testing.T) {
	// The submit's recorded user wins even when the end row names
	// another (or no) user — end events must hash to the submit's world.
	body := `time_us,event,job,task,user,cpu,mem
1000,0,j1,0,alice,0.25,0.5
9000,4,j1,0,,0,0
`
	evs, _ := read(t, body, Options{})
	if len(evs) != 2 || evs[1].User != "alice" {
		t.Fatalf("end user = %+v, want submit user alice", evs)
	}
}

func TestStrictRejections(t *testing.T) {
	cases := []struct{ name, body string }{
		{"fields", "time_us,event,job,task,user,cpu,mem\n1000,0,j1,0,alice,0.25\n"},
		{"badtime", "time_us,event,job,task,user,cpu,mem\nxx,0,j1,0,alice,0.25,0.5\n"},
		{"negative_time", "time_us,event,job,task,user,cpu,mem\n-5,0,j1,0,alice,0.25,0.5\n"},
		{"time_overflow", "time_us,event,job,task,user,cpu,mem\n9223372036854775807,0,j1,0,alice,0.25,0.5\n"},
		{"out_of_order", "time_us,event,job,task,user,cpu,mem\n2000,0,j1,0,alice,0.25,0.5\n1000,0,j2,0,bob,0.25,0.5\n"},
		{"nan_request", "time_us,event,job,task,user,cpu,mem\n1000,0,j1,0,alice,NaN,0.5\n"},
		{"negative_request", "time_us,event,job,task,user,cpu,mem\n1000,0,j1,0,alice,-0.25,0.5\n"},
		{"over_unit", "time_us,event,job,task,user,cpu,mem\n1000,0,j1,0,alice,1.5,0.5\n"},
		{"empty_job", "time_us,event,job,task,user,cpu,mem\n1000,0,,0,alice,0.25,0.5\n"},
		{"bad_event", "time_us,event,job,task,user,cpu,mem\n1000,99,j1,0,alice,0.25,0.5\n"},
		{"unknown_end", "time_us,event,job,task,user,cpu,mem\n1000,4,j1,0,alice,0,0\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := mustReader(t, strings.NewReader(tc.body), Options{})
			var err error
			for err == nil {
				_, err = r.Next()
			}
			if err == io.EOF {
				t.Fatalf("strict reader accepted %s", tc.name)
			}
		})
	}
}

func TestLenientSkips(t *testing.T) {
	// Lenient mode drops malformed rows and keeps going.
	body := `time_us,event,job,task,user,cpu,mem
1000,0,j1,0,alice,0.25,0.5
garbage line
2000,0,j2,0,bob,NaN,0.5
3000,0,j3,0,carol,0.0625,0.0625
`
	evs, stats := read(t, body, Options{Lenient: true})
	if len(evs) != 2 || evs[0].Pod != "j1" || evs[1].Pod != "j3" {
		t.Fatalf("events: %+v", evs)
	}
	if stats.Skipped != 2 {
		t.Fatalf("Skipped = %d, want 2", stats.Skipped)
	}
}

func TestJSONL(t *testing.T) {
	body := `{"t_us":1000,"ev":"submit","pod":"p1","user":"alice","containers":[{"cpu":0.25,"mem":0.5}]}
{"t_us":9000,"ev":"finish","pod":"p1"}
`
	evs, _ := read(t, body, Options{})
	want := []Event{
		{Time: 1000 * time.Microsecond, Kind: Submit, Pod: "p1", User: "alice",
			Containers: []trace.Container{{CPU: 0.25, Mem: 0.5}}},
		{Time: 9000 * time.Microsecond, Kind: Finish, Pod: "p1", User: "alice"},
	}
	if !reflect.DeepEqual(evs, want) {
		t.Fatalf("events:\n got %+v\nwant %+v", evs, want)
	}
}

func TestJSONLStrictUnknownField(t *testing.T) {
	body := `{"t_us":1000,"ev":"submit","pod":"p1","user":"a","containers":[{"cpu":0.25,"mem":0.5}],"bogus":1}` + "\n"
	r := mustReader(t, strings.NewReader(body), Options{})
	if _, err := r.Next(); err == nil || err == io.EOF {
		t.Fatalf("strict reader accepted unknown field: %v", err)
	}
}

func TestGzipSniff(t *testing.T) {
	plain := "time_us,event,job,task,user,cpu,mem\n1000,0,j1,0,alice,0.25,0.5\n"
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if _, err := gz.Write([]byte(plain)); err != nil {
		t.Fatal(err)
	}
	gz.Close()
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv.gz")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	evs := drain(t, r)
	if len(evs) != 1 || evs[0].Pod != "j1" {
		t.Fatalf("events: %+v", evs)
	}
}

// TestRoundTrip pins Write∘Read as the identity on the synthetic
// stream, in both formats — the contract ctracegen and every replay
// test lean on.
func TestRoundTrip(t *testing.T) {
	gcfg := trace.DefaultConfig(11)
	gcfg.Users = 40
	gcfg.MeanArrivalGap = 2 * time.Minute
	gcfg.MeanLifetime = 45 * time.Minute
	users := trace.Generate(gcfg)
	want := drainAll(t, NewSynth(users))
	for _, f := range []Format{CSV, JSONL} {
		var buf bytes.Buffer
		if err := Write(&buf, NewSynth(users), f); err != nil {
			t.Fatal(err)
		}
		r := mustReader(t, bytes.NewReader(buf.Bytes()), Options{})
		got := drain(t, r)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("format %v: round-trip diverged (%d vs %d events)", f, len(got), len(want))
		}
	}
}

func drainAll(t *testing.T, s *Slice) []Event {
	t.Helper()
	return drain(t, s)
}

func TestPartitionStable(t *testing.T) {
	// Same key → same world; the user (not the pod) keys the partition
	// when present.
	a := Event{Pod: "p1", User: "alice"}
	b := Event{Pod: "p2", User: "alice"}
	if Partition(a, 8) != Partition(b, 8) {
		t.Fatal("same user landed in different worlds")
	}
	c := Event{Pod: "p1"}
	if got := Partition(c, 1); got != 0 {
		t.Fatalf("Partition(n=1) = %d", got)
	}
}
