// Command perfbench is the repository benchmark. One process runs one
// workload, generated from --seed, for about --seconds seconds, checks
// the program's outputs, and prints its metrics as the last line of
// standard output:
//
//	go run . --workload replay --seed 42 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs the workload once more with a span around every call into the
// program's layers and prints the per-layer metrics instead. The
// workloads, metrics and their bounds are listed in BENCHMARK.json at
// the repository root; NOTES.md explains them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// defaultSeed is the seed whose outputs expected.go records; other
// seeds run the invariant checks only.
const defaultSeed = 42

// run is one workload run in progress: its checks and metrics.
type run struct {
	workload  string
	seed      int64
	seconds   time.Duration
	shards    int
	attempted int
	failed    int
	broken    bool // a check outside any operation failed
	notes     []string
	metrics   map[string]float64
}

// op books one attempted operation; errs are its failed checks.
func (r *run) op(errs ...error) {
	r.attempted++
	bad := false
	for _, err := range errs {
		if err != nil {
			bad = true
			r.notef("check failed: %v", err)
		}
	}
	if bad {
		r.failed++
	}
}

// notef prints an informational line before the result (sample counts,
// failed checks).
func (r *run) notef(format string, args ...interface{}) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail books a failed check that belongs to no single operation.
func (r *run) fail(err error) {
	r.broken = true
	r.notef("check failed: %v", err)
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

// deadline is when the timed part of a run that started at t0 ends.
func (r *run) deadline(t0 time.Time) time.Time { return t0.Add(r.seconds) }

// workload is one workload's three entry points: probe times the
// set-up, does one operation and returns the set-up seconds and a
// digest of what the set-up built (run in fresh processes by
// runProbes), untraced measures the end-to-end metrics and traced the
// per-layer ones.
type workload struct {
	probe    func(seed int64, shards int) (float64, uint64, error)
	untraced func(*run) error
	traced   func(*run) error
}

var workloads = map[string]workload{
	"replay":   {replayProbe, replayUntraced, replayTraced},
	"whatif":   {whatifProbe, whatifUntraced, whatifTraced},
	"datapath": {datapathProbe, datapathUntraced, datapathTraced},
}

func main() {
	name := flag.String("workload", "", "workload: replay, whatif or datapath")
	seed := flag.Int64("seed", defaultSeed, "workload seed")
	seconds := flag.Int("seconds", 30, "how long the timed part of the run lasts")
	traceOn := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	shards := flag.Int("shards", runtime.NumCPU(), "replay: shard.Config.Shards (goroutines advancing worlds)")
	probe := flag.Bool("probe", false, "time the workload's set-up, do one operation, and print the set-up seconds, a digest and the peak RSS (a run starts these processes itself)")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) || *shards < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: want --workload replay|whatif|datapath, --seconds >= 1, --trace 0|1, --shards >= 1")
		os.Exit(2)
	}
	if ok && *probe {
		if err := probeOnly(w, *seed, *shards); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s probe: %v\n", *name, err)
			os.Exit(1)
		}
		return
	}
	r := &run{workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second, shards: *shards, metrics: map[string]float64{}}
	var err error
	if *traceOn == 1 {
		for m := range perLayer {
			r.metrics[m] = 0 // a layer that does no work on this workload reads 0
		}
		err = w.traced(r)
	} else {
		err = w.untraced(r)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	want := endToEnd
	if *traceOn == 1 {
		want = perLayer
	}
	if err := emit(r, want); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// emit prints the notes, a metric table and the result line. Every
// metric of want must have been measured, and nothing else.
func emit(r *run, want map[string]unit) error {
	out := resultOut{Correct: r.failed == 0 && !r.broken && r.attempted > 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metricOut{}}
	var names []string
	for name, v := range r.metrics {
		u, ok := want[name]
		if !ok || !validName(name) {
			return fmt.Errorf("metric %q is not declared or breaks the name grammar", name)
		}
		out.Metrics[name] = metricOut{Value: v, Unit: u.unit}
		names = append(names, name)
	}
	if len(out.Metrics) != len(want) {
		for name := range want {
			if _, ok := out.Metrics[name]; !ok {
				return fmt.Errorf("metric %q was not measured", name)
			}
		}
	}
	sort.Strings(names)
	for _, n := range r.notes {
		fmt.Println("#", n)
	}
	for _, name := range names {
		fmt.Printf("%-36s %14.6g %s\n", name, out.Metrics[name].Value, out.Metrics[name].Unit)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
