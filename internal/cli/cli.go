// Package cli holds the shared plumbing of the cmd/ tools: unified
// bad-flag handling (message + usage to stderr, exit 2, matching what
// the flag package does for unknown flags), the -trace/-metrics
// telemetry flags, the -faults injection flag and the
// -cpuprofile/-memprofile pprof flags every tool offers.
package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"nestless/internal/faults"
	"nestless/internal/telemetry"
)

// BadFlag reports an invalid flag value the way the flag package itself
// reports an unknown flag: the message and the usage text go to stderr
// and the process exits 2.
func BadFlag(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

// Positive reports a duration flag that is zero or negative.
func Positive(name string, v time.Duration) error {
	if v <= 0 {
		return fmt.Errorf("-%s must be positive, got %v", name, v)
	}
	return nil
}

// NonNegative reports a duration flag that is negative.
func NonNegative(name string, v time.Duration) error {
	if v < 0 {
		return fmt.Errorf("-%s must not be negative, got %v", name, v)
	}
	return nil
}

// Fatal reports a runtime (post-flag-parsing) failure and exits 1. A
// profile Start began is stopped first: os.Exit skips the caller's
// deferred Stop, which would leave an empty CPU profile behind.
func Fatal(tool string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	if active != nil {
		active.Stop(tool)
	}
	os.Exit(1)
}

// ParallelFlag registers -parallel on the default flag set; call it
// before flag.Parse. The returned pointer holds the requested worker
// count after parsing. Every tool validates it with CheckParallel.
func ParallelFlag() *int {
	return flag.Int("parallel", 1,
		"fan independent simulation runs out across N workers (results, -trace and -metrics output are byte-identical to -parallel 1)")
}

// CheckParallel rejects nonsensical worker counts via BadFlag.
func CheckParallel(n int) {
	if n < 1 {
		BadFlag("-parallel must be >= 1 (got %d)", n)
	}
}

// FaultsFlag registers -faults on the default flag set; call it before
// flag.Parse. The returned pointer holds the raw spec after parsing;
// resolve it with ParseFaults.
func FaultsFlag() *string {
	return flag.String("faults", "",
		"inject deterministic faults, e.g. 'qmp/device_add:fail:n=2;frame/*:drop:p=0.01' (see internal/faults for the grammar)")
}

// ParseFaults resolves a -faults value: empty means injection off
// (nil schedule), an invalid spec is a flag error (exit 2).
func ParseFaults(spec string) *faults.Schedule {
	if spec == "" {
		return nil
	}
	s, err := faults.ParseSpec(spec)
	if err != nil {
		BadFlag("-faults: %v", err)
	}
	return s
}

// Profile carries the -cpuprofile/-memprofile flag values of one tool.
type Profile struct {
	CPUPath string
	MemPath string
	cpuFile *os.File
}

// ProfileFlags registers -cpuprofile and -memprofile on the default
// flag set; call it before flag.Parse. The profiles are the raw
// material behind the indexed-scheduler optimisation work: run any
// tool with -cpuprofile and feed the output to `go tool pprof`.
func ProfileFlags() *Profile {
	p := &Profile{}
	flag.StringVar(&p.CPUPath, "cpuprofile", "",
		"write a pprof CPU profile of the run here (inspect with `go tool pprof`)")
	flag.StringVar(&p.MemPath, "memprofile", "",
		"write a pprof heap profile at exit here (inspect with `go tool pprof`)")
	return p
}

// active is the profile Start began and Stop has not ended yet.
var active *Profile

// Start begins CPU profiling if requested. Call it right after
// flag.Parse; pair with a deferred Stop.
func (p *Profile) Start(tool string) {
	active = p
	if p.CPUPath == "" {
		return
	}
	f, err := os.Create(p.CPUPath)
	if err != nil {
		Fatal(tool, err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		Fatal(tool, err)
	}
	p.cpuFile = f
}

// Stop ends CPU profiling and, if requested, writes the heap profile.
// Errors are reported but do not change the exit status: the simulation
// results already printed are valid whether or not the profile landed.
func (p *Profile) Stop(tool string) {
	active = nil
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := p.cpuFile.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: -cpuprofile: %v\n", tool, err)
		}
		p.cpuFile = nil
	}
	if p.MemPath != "" {
		f, err := os.Create(p.MemPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: -memprofile: %v\n", tool, err)
			return
		}
		runtime.GC() // settle the heap so the profile shows live data
		werr := pprof.WriteHeapProfile(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(os.Stderr, "%s: -memprofile: %v\n", tool, werr)
		}
	}
}

// Telemetry carries the -trace/-metrics flag values of one tool.
type Telemetry struct {
	TracePath string
	Metrics   bool
	rec       *telemetry.Recorder
}

// TelemetryFlags registers -trace and -metrics on the default flag set;
// call it before flag.Parse.
func TelemetryFlags() *Telemetry {
	t := &Telemetry{}
	flag.StringVar(&t.TracePath, "trace", "",
		"write the run's trace here (.txt = compact text, otherwise Chrome trace-event JSON for chrome://tracing)")
	flag.BoolVar(&t.Metrics, "metrics", false,
		"print telemetry metrics tables after the run")
	return t
}

// Recorder returns the recorder backing the requested outputs, or nil
// when neither -trace nor -metrics was given — the zero-overhead
// telemetry-off path.
func (t *Telemetry) Recorder() *telemetry.Recorder {
	if t.TracePath == "" && !t.Metrics {
		return nil
	}
	if t.rec == nil {
		t.rec = telemetry.New()
	}
	return t.rec
}

// Emit writes whatever was requested: the trace file and/or the metrics
// tables (stdout, each preceded by a blank line).
func (t *Telemetry) Emit() error {
	if t.rec == nil {
		return nil
	}
	if t.TracePath != "" {
		f, err := os.Create(t.TracePath)
		if err != nil {
			return err
		}
		var werr error
		if strings.HasSuffix(t.TracePath, ".txt") {
			werr = t.rec.WriteTextTrace(f)
		} else {
			werr = t.rec.WriteChromeTrace(f)
		}
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
	}
	if t.Metrics {
		for _, tb := range t.rec.MetricsTables() {
			fmt.Println()
			tb.WriteText(os.Stdout)
		}
	}
	return nil
}

// EmitOrDie is Emit with Fatal error handling.
func (t *Telemetry) EmitOrDie(tool string) {
	if err := t.Emit(); err != nil {
		Fatal(tool, err)
	}
}
