package main

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nestless/internal/cli/clitest"
	"nestless/internal/ctrace"
	"nestless/internal/figures"
	"nestless/internal/trace"
)

// TestCheckStaticRejectsClusterFlags pins the static path's flag gate:
// every cluster-simulation flag is an error there (exit 2 in main),
// while the static snapshot's own flags pass.
func TestCheckStaticRejectsClusterFlags(t *testing.T) {
	for _, name := range []string{
		"spot-frac", "zones",
		"horizon", "gap", "life", "boot",
	} {
		err := checkStatic(map[string]bool{name: true})
		if err == nil || !strings.Contains(err.Error(), "-"+name+" ") {
			t.Errorf("-%s on the static path: got %v, want an error naming it", name, err)
		}
	}
	static := map[string]bool{"users": true, "seed": true, "csv": true, "top": true, "cloud": true, "table": true}
	if err := checkStatic(static); err != nil {
		t.Errorf("static flags rejected: %v", err)
	}
}

// durations names checkDurations' arguments for the table below.
type durations struct {
	horizon, barrier, boot, gap, life, migrateAfter time.Duration
}

func (d durations) check() error {
	return checkDurations(d.horizon, d.barrier, d.boot, d.gap, d.life, d.migrateAfter)
}

// TestCheckDurations pins the duration gate: each flag's out-of-range
// values are an error naming the flag (exit 2 in main), the defaults
// and the zeros that mean something pass.
func TestCheckDurations(t *testing.T) {
	def := durations{
		horizon: 8 * time.Hour, barrier: 15 * time.Minute, boot: 45 * time.Second,
		gap: 2 * time.Minute, life: 45 * time.Minute,
	}
	if err := def.check(); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	zeros := def
	zeros.boot, zeros.gap, zeros.life, zeros.migrateAfter = 0, 0, 0, 0
	if err := zeros.check(); err != nil {
		t.Errorf("zero boot/gap/life/migrate-after rejected: %v", err)
	}
	for _, c := range []struct {
		flag string
		set  func(*durations)
	}{
		{"horizon", func(d *durations) { d.horizon = -time.Hour }},
		{"horizon", func(d *durations) { d.horizon = 0 }},
		{"barrier", func(d *durations) { d.barrier = -5 * time.Minute }},
		{"barrier", func(d *durations) { d.barrier = 0 }},
		{"boot", func(d *durations) { d.boot = -time.Minute }},
		{"gap", func(d *durations) { d.gap = -time.Minute }},
		{"life", func(d *durations) { d.life = -time.Nanosecond }},
		{"migrate-after", func(d *durations) { d.migrateAfter = -time.Minute }},
	} {
		d := def
		c.set(&d)
		err := d.check()
		if err == nil || !strings.Contains(err.Error(), "-"+c.flag+" ") {
			t.Errorf("%+v: got %v, want an error naming -%s", d, err, c.flag)
		}
	}
}

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestSampleCapFlagRetired pins that -sample-cap is no longer a flag:
// trajectories are a fixed 12 points, so the flag package rejects it as
// undefined, with exit status 2.
func TestSampleCapFlagRetired(t *testing.T) {
	_, stderr, code := clitest.Run("-sample-cap 4")
	if code != 2 || !strings.Contains(stderr, "flag provided but not defined: -sample-cap") {
		t.Errorf("costsim -sample-cap 4: exit status %d, want 2 naming the undefined flag:\n%s", code, stderr)
	}
}

// TestOneSpellingPerSetting pins the flag gate around the settings that
// have exactly one spelling: -parallel drives replay workers (there is
// no -shards), -cloud names a catalog and nothing else (zone count and
// spot fraction are -zones and -spot-frac), and -zones below 1, which
// cloud.Resolve would read as one zone, is rejected. Each exits 2 and
// names the problem.
func TestOneSpellingPerSetting(t *testing.T) {
	for _, c := range []struct{ args, want string }{
		{"-shards 4", "flag provided but not defined: -shards"},
		{"-lifecycle -cloud gcp:n2:zone=3", `unknown catalog "gcp:n2:zone=3"`},
		{"-lifecycle -cloud gcp:n2:spot=0.5", `unknown catalog "gcp:n2:spot=0.5"`},
		{"-lifecycle -zones 0", "-zones must be >= 1, got 0"},
		{"-lifecycle -zones -2", "-zones must be >= 1, got -2"},
	} {
		t.Run(c.args, func(t *testing.T) {
			_, stderr, code := clitest.Run(c.args)
			if code != 2 || !strings.Contains(stderr, c.want) {
				t.Errorf("costsim %s: exit status %d, want 2 with %q:\n%s", c.args, code, c.want, stderr)
			}
		})
	}
}

// TestBadFlagLeavesNoProfile pins that flag values are checked before
// -cpuprofile creates its file: a rejected run exits 2 and leaves no
// truncated profile behind.
func TestBadFlagLeavesNoProfile(t *testing.T) {
	for _, bad := range []string{"-table 3", "-users 0"} {
		prof := filepath.Join(t.TempDir(), "cpu.prof")
		_, stderr, code := clitest.Run(bad + " -cpuprofile " + prof)
		if _, err := os.Stat(prof); code != 2 || !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("costsim %s: exit status %d, profile stat %v\n%s", bad, code, err, stderr)
		}
	}
}

// TestRepackCacheFlagRetired pins that -repack-cache is no longer a
// flag: the packing cache has a constant capacity, so the flag package
// rejects it as undefined, with exit status 2.
func TestRepackCacheFlagRetired(t *testing.T) {
	_, stderr, code := clitest.Run("-lifecycle -repack-cache 8")
	if code != 2 || !strings.Contains(stderr, "flag provided but not defined: -repack-cache") {
		t.Errorf("costsim -repack-cache 8: exit status %d, want 2 naming the undefined flag:\n%s", code, stderr)
	}
}

// TestFatalKeepsProfile pins that a run failing after -cpuprofile
// started still leaves a complete profile: a malformed replay trace
// exits 1, and the profile is a gzip stream pprof can read.
func TestFatalKeepsProfile(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.csv")
	if err := os.WriteFile(bad, []byte("1,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	prof := filepath.Join(dir, "bad.prof")
	_, stderr, code := clitest.Run("-replay " + bad + " -cpuprofile " + prof)
	if code != 1 {
		t.Fatalf("costsim -replay bad.csv: exit status %d, want 1:\n%s", code, stderr)
	}
	b, err := os.ReadFile(prof)
	if err != nil || len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
		t.Errorf("profile after a failed run: %d bytes, err %v; want a gzip stream", len(b), err)
	}
}

// TestStaticTelemetryParallel pins that the static path's fan-out is
// independent of telemetry: with -metrics, -parallel 4 prints exactly
// what -parallel 1 does (the recorder instruments the merged result
// after the fan-out, in user order).
func TestStaticTelemetryParallel(t *testing.T) {
	serial, stderr, code := clitest.Run("-users 60 -metrics -parallel 1")
	if code != 0 {
		t.Fatalf("-parallel 1: exit status %d:\n%s", code, stderr)
	}
	par, stderr, code := clitest.Run("-users 60 -metrics -parallel 4")
	if code != 0 {
		t.Fatalf("-parallel 4: exit status %d:\n%s", code, stderr)
	}
	if !strings.Contains(serial, "costsim/users") || par != serial {
		t.Errorf("-parallel 4 output differs from -parallel 1 (or lacks the metrics):\n%s\nvs\n%s", par, serial)
	}
}

// TestReplayRecordsEachPolicyApart pins the replay's recording: each
// policy's worlds carry the policy's label (kubernetes/world-0, ...,
// hostlo/world-0, ...), no world is recorded unlabeled, and -parallel 4
// exports the trace byte-identical to -parallel 1.
func TestReplayRecordsEachPolicyApart(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "small.csv")
	f, err := os.Create(src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.DefaultConfig(3)
	cfg.Users = 12
	if err := ctrace.Write(f, ctrace.NewSynth(trace.Generate(cfg)), ctrace.CSV); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	export := func(workers string) string {
		out := filepath.Join(dir, "p"+workers+".txt")
		_, stderr, code := clitest.Run("-replay " + src + " -worlds 4 -parallel " + workers + " -trace " + out)
		if code != 0 {
			t.Fatalf("costsim -replay -parallel %s: exit status %d:\n%s", workers, code, stderr)
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	serial := export("1")
	for _, group := range []string{" kubernetes/world-0/", " kubernetes/world-3/", " hostlo/world-0/", " hostlo/world-3/"} {
		if !strings.Contains(serial, group) {
			t.Errorf("replay trace has no %q process group", group)
		}
	}
	if strings.Contains(serial, " world-0/") {
		t.Error("replay trace records a world without its policy label")
	}
	if export("4") != serial {
		t.Error("-parallel 4 exported a different trace from -parallel 1")
	}
}

// TestDefaultRunIsFig9 pins that the default static run prints exactly
// Fig. 9, rendered from the population result it already simulated:
// the default catalog and population are Fig. 9's own.
func TestDefaultRunIsFig9(t *testing.T) {
	stdout, stderr, code := clitest.Run("-parallel 2")
	if code != 0 {
		t.Fatalf("costsim: exit status %d:\n%s", code, stderr)
	}
	hist, stats := figures.Fig9(figures.Opts{Seed: 42, Workers: 2})
	var want strings.Builder
	hist.WriteText(&want)
	want.WriteString("\n")
	stats.WriteText(&want)
	if stdout != want.String() {
		t.Errorf("default run differs from Fig. 9:\n%s\nvs\n%s", stdout, want.String())
	}
}
