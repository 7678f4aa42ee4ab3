package ctrace

import (
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"nestless/internal/trace"
)

// A hand-written slice of a 2019 instance_events BigQuery export:
// INT64 columns appear both as JSON strings (the export's spelling)
// and bare numbers, extra columns ride along, and a SCHEDULE row (type
// 3) interleaves. Collection 389 has two instances whose same-time
// SUBMIT rows coalesce into one two-container pod; instance 0 FINISHes
// first, so the pod's end follows instance 1's KILL.
const instanceBody = `{"time":"1000","type":"0","collection_id":"389","instance_index":"0","user":"alice","resource_request":{"cpus":"0.25","memory":0.5},"priority":"200","machine_id":"51447"}
{"time":"1000","type":0,"collection_id":389,"instance_index":1,"user":"alice","resource_request":{"cpus":0.125,"memory":"0.25"},"alloc_collection_id":"0"}
{"time":"2000","type":"3","collection_id":"389","instance_index":"0","machine_id":"51447"}
{"time":"5000","type":"6","collection_id":"389","instance_index":"0"}
{"time":"9000","type":"7","collection_id":"389","instance_index":"1"}
{"time":"9000","type":"0","collection_id":"77","instance_index":"0","user":"bob","resource_request":{"cpus":"0.0625","memory":"0.0625"}}
{"time":"9500","type":"6","collection_id":"77","instance_index":"0"}
`

func TestInstanceEvents(t *testing.T) {
	evs, stats := read(t, instanceBody, Options{})
	want := []Event{
		{Time: 1000 * time.Microsecond, Kind: Submit, Pod: "389", User: "alice",
			Containers: []trace.Container{{CPU: 0.25, Mem: 0.5}, {CPU: 0.125, Mem: 0.25}}},
		{Time: 9000 * time.Microsecond, Kind: Kill, Pod: "389", User: "alice"},
		{Time: 9000 * time.Microsecond, Kind: Submit, Pod: "77", User: "bob",
			Containers: []trace.Container{{CPU: 0.0625, Mem: 0.0625}}},
		{Time: 9500 * time.Microsecond, Kind: Finish, Pod: "77", User: "bob"},
	}
	if !reflect.DeepEqual(evs, want) {
		t.Fatalf("events:\n got %+v\nwant %+v", evs, want)
	}
	if stats.Rows != 7 || stats.Ignored != 1 || stats.Pods != 2 || stats.Ends != 2 {
		t.Fatalf("stats: %+v", stats)
	}
}

// TestInstanceEventsMatchCSV pins that the adapter and the 2011 CSV
// reader are the same state machine: the instance_events slice above,
// transliterated row for row into task_events CSV, yields the
// identical event stream.
func TestInstanceEventsMatchCSV(t *testing.T) {
	csv := header + `
1000,0,389,0,alice,0.25,0.5
1000,0,389,1,alice,0.125,0.25
2000,1,389,0,alice,0,0
5000,4,389,0,alice,0,0
9000,5,389,1,alice,0,0
9000,0,77,0,bob,0.0625,0.0625
9500,4,77,0,bob,0,0
`
	fromInstance, _ := read(t, instanceBody, Options{})
	fromCSV, _ := read(t, csv, Options{})
	if !reflect.DeepEqual(fromInstance, fromCSV) {
		t.Fatalf("adapter diverged from the CSV state machine:\n got %+v\nwant %+v", fromInstance, fromCSV)
	}
}

// TestInstanceSniff pins the mode decision: a first byte of '{' reads
// the whole file as instance_events. A pod-level JSON line is then a
// row with no collection_id: strict mode names its line, lenient mode
// counts it as skipped.
func TestInstanceSniff(t *testing.T) {
	pod := `{"t_us":1000,"ev":"submit","pod":"p1","user":"a","containers":[{"cpu":0.25,"mem":0.5}]}` + "\n"
	r := mustReader(t, strings.NewReader(pod), Options{})
	_, err := r.Next()
	if err == nil || err == io.EOF || !strings.Contains(err.Error(), "line 1:") ||
		!strings.Contains(err.Error(), "missing collection_id") {
		t.Fatalf("strict reader on a pod-level line: err = %v, want line 1 missing collection_id", err)
	}
	if evs, stats := read(t, pod, Options{Lenient: true}); len(evs) != 0 || stats.Rows != 1 || stats.Skipped != 1 {
		t.Fatalf("lenient reader on a pod-level line: events %+v, stats %+v", evs, stats)
	}
	// Comment and blank lines inside an export are skipped like
	// everywhere else (the format sniff itself needs '{' first).
	lines := strings.SplitAfterN(instanceBody, "\n", 2)
	commented := lines[0] + "# re-sorted 2019-05-01\n\n" + lines[1]
	if evs, _ := read(t, commented, Options{}); len(evs) != 4 {
		t.Fatalf("commented export misrouted: %+v", evs)
	}
}

func TestInstanceStrictRejections(t *testing.T) {
	cases := []struct{ name, body string }{
		{"unknown_type", `{"time":"1000","type":"11","collection_id":"1","instance_index":"0"}`},
		{"missing_collection", `{"time":"1000","type":"0","collection_id":"0","instance_index":"0","resource_request":{"cpus":"0.1","memory":"0.1"}}`},
		{"negative_instance", `{"time":"1000","type":"0","collection_id":"1","instance_index":"-1","resource_request":{"cpus":"0.1","memory":"0.1"}}`},
		{"nan_request", `{"time":"1000","type":"0","collection_id":"1","instance_index":"0","resource_request":{"cpus":"NaN","memory":"0.1"}}`},
		{"over_unit", `{"time":"1000","type":"0","collection_id":"1","instance_index":"0","resource_request":{"cpus":"1.5","memory":"0.1"}}`},
		{"negative_time", `{"time":"-5","type":"0","collection_id":"1","instance_index":"0","resource_request":{"cpus":"0.1","memory":"0.1"}}`},
		{"unknown_end", `{"time":"1000","type":"6","collection_id":"1","instance_index":"0"}`},
		{"bad_int", `{"time":"xx","type":"0","collection_id":"1","instance_index":"0"}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The sniff needs the collection_id field on the first line,
			// which every case carries.
			r := mustReader(t, strings.NewReader(tc.body+"\n"), Options{})
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

func TestInstanceLenientSkips(t *testing.T) {
	body := `{"time":"1000","type":"0","collection_id":"1","instance_index":"0","user":"a","resource_request":{"cpus":"0.1","memory":"0.1"}}
{"time":"2000","type":"99","collection_id":"2","instance_index":"0"}
{"time":"3000","type":"6","collection_id":"1","instance_index":"0"}
`
	evs, stats := read(t, body, Options{Lenient: true})
	if len(evs) != 2 || evs[1].Kind != Finish {
		t.Fatalf("events: %+v", evs)
	}
	if stats.Skipped != 1 {
		t.Fatalf("Skipped = %d, want 1", stats.Skipped)
	}
}
