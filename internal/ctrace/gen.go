package ctrace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"time"
)

// The trace writer: serializes an event Source as task_events CSV.
// ctracegen (cmd/ctracegen) pairs it with NewSynth to emit seeded
// sample traces for tests, benchmarks and worked examples; the
// golden-file round-trip test pins that Write∘Read is the identity.

// Format selects the on-disk encoding. CSV is its only value; Write
// keeps the argument for the callers that pass it.
type Format int

// CSV is the Google task_events-compatible per-task form.
const CSV Format = 0

// Write drains src into w as CSV. Events must be time-ordered (every
// Source in this package is). Each pod event expands into per-task
// rows — submit rows carry the container requests, end rows close
// every task — so the output is also a valid corpus for
// schema-compatible external tools.
func Write(w io.Writer, src Source, _ Format) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, header); err != nil {
		return err
	}
	// Open-pod container counts: CSV end rows must close each task.
	tasks := map[string]int{}
	for {
		ev, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := writeEvent(bw, ev, tasks); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeEvent emits one normalized event as its task rows.
func writeEvent(bw *bufio.Writer, ev Event, tasks map[string]int) error {
	us := int64(ev.Time / time.Microsecond)
	switch ev.Kind {
	case Submit:
		tasks[ev.Pod] = len(ev.Containers)
		for i, c := range ev.Containers {
			if _, err := fmt.Fprintf(bw, "%d,0,%s,%d,%s,%s,%s\n",
				us, ev.Pod, i, ev.User, fmtFloat(c.CPU), fmtFloat(c.Mem)); err != nil {
				return err
			}
		}
	default:
		code := 5 // KILL
		if ev.Kind == Finish {
			code = 4
		}
		n := tasks[ev.Pod]
		delete(tasks, ev.Pod)
		for i := 0; i < n; i++ {
			if _, err := fmt.Fprintf(bw, "%d,%d,%s,%d,%s,0,0\n",
				us, code, ev.Pod, i, ev.User); err != nil {
				return err
			}
		}
	}
	return nil
}

// fmtFloat renders a request with exact round-trip precision.
func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
