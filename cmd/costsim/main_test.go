package main

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nestless/internal/cli/clitest"
	"nestless/internal/cloud"
	"nestless/internal/ctrace"
	"nestless/internal/figures"
	"nestless/internal/trace"
)

// fixture is the committed 2019-schema trace the replay tests read.
const fixture = "../../internal/ctrace/testdata/instance_events.json"

// TestCheckDurations pins the duration gate: each flag's out-of-range
// values exit 2 naming the flag, in the mode that reads it, while the
// zeros that mean something run.
func TestCheckDurations(t *testing.T) {
	for _, c := range []struct{ args, flag string }{
		{"lifecycle -horizon -1h", "horizon"},
		{"replay -horizon 0 " + fixture, "horizon"},
		{"replay -barrier -5m " + fixture, "barrier"},
		{"replay -barrier 0 " + fixture, "barrier"},
		{"lifecycle -boot -1m", "boot"},
		{"lifecycle -gap -1m", "gap"},
		{"lifecycle -life -1ns", "life"},
		{"replay -migrate-after -1m " + fixture, "migrate-after"},
	} {
		if _, stderr, code := clitest.Run(c.args); code != 2 || !strings.Contains(stderr, "-"+c.flag+" ") {
			t.Errorf("costsim %s: exit status %d, want 2 naming -%s:\n%s", c.args, code, c.flag, stderr)
		}
	}
	for _, args := range []string{
		"lifecycle -users 2 -boot 0 -gap 0 -life 0",
		"replay -boot 0 -migrate-after 0 " + fixture,
	} {
		if _, stderr, code := clitest.Run(args); code != 0 {
			t.Errorf("costsim %s: exit status %d, want 0:\n%s", args, code, stderr)
		}
	}
}

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestOneSpellingPerSetting pins the flag gate around the settings that
// have exactly one spelling: -parallel drives replay workers (there is
// no -shards), -cloud names a catalog and nothing else (zone count and
// spot fraction are -zones and -spot-frac), and -zones below 1, which
// cloud.Resolve would read as one zone, is rejected. Retired knobs are
// no flags at all: trajectories are a fixed 12 points (no -sample-cap)
// and the packing cache has a constant capacity (no -repack-cache).
// Each exits 2 and names the problem.
func TestOneSpellingPerSetting(t *testing.T) {
	for _, c := range []struct{ args, want string }{
		{"-shards 4", "flag provided but not defined: -shards"},
		{"-sample-cap 4", "flag provided but not defined: -sample-cap"},
		{"lifecycle -repack-cache 8", "flag provided but not defined: -repack-cache"},
		{"lifecycle -cloud gcp:n2:zone=3", `unknown catalog "gcp:n2:zone=3"`},
		{"lifecycle -cloud gcp:n2:spot=0.5", `unknown catalog "gcp:n2:spot=0.5"`},
		{"lifecycle -zones 0", "-zones must be >= 1, got 0"},
		{"lifecycle -zones -2", "-zones must be >= 1, got -2"},
	} {
		t.Run(c.args, func(t *testing.T) {
			_, stderr, code := clitest.Run(c.args)
			if code != 2 || !strings.Contains(stderr, c.want) {
				t.Errorf("costsim %s: exit status %d, want 2 with %q:\n%s", c.args, code, c.want, stderr)
			}
		})
	}
}

// TestModeRejectsIgnoredFlags pins that no flag is accepted and then
// dropped: each mode defines only the flags it reads, so a flag another
// mode reads exits 2 as undefined. The static snapshot takes no cluster
// or replay flag (-faults included: it has no datapath to fault), only
// it prints -top, and Table 2 is no costsim output (-table). The modes
// are no flags: the former -lifecycle and -replay command lines exit 2
// naming the retired flag, so an old script fails instead of running
// the static snapshot.
func TestModeRejectsIgnoredFlags(t *testing.T) {
	for _, c := range []struct{ args, flag string }{
		{"-spot-frac 0.5", "spot-frac"},
		{"-zones 2", "zones"},
		{"-horizon 1h", "horizon"},
		{"-gap 1m", "gap"},
		{"-life 1m", "life"},
		{"-boot 1s", "boot"},
		{"-faults node/*:crash:p=0.01", "faults"},
		{"-worlds 4", "worlds"},
		{"-barrier 5m", "barrier"},
		{"-migrate-after 20m", "migrate-after"},
		{"-lenient", "lenient"},
		{"-migrate-policy locality", "migrate-policy"},
		{"lifecycle -top 3", "top"},
		{"replay -top 3 " + fixture, "top"},
		{"lifecycle -table 2", "table"},
		{"replay -table 2 " + fixture, "table"},
		{"-users 10 -faults node/*:crash:p=0.01", "faults"},
		{"lifecycle -replay " + fixture, "replay"},
		{"lifecycle -worlds 4", "worlds"},
		{"replay -users 7 " + fixture, "users"},
		{"-table 2 -top 3 -users 7", "table"},
		{"-table 2 -cloud gcp:n2", "table"},
		{"-table 2 -trace " + os.DevNull, "table"},
		{"-lifecycle -top 3", "lifecycle"},
		{"-replay " + fixture + " -top 3", "replay"},
		{"-lifecycle -table 2", "lifecycle"},
		{"-replay " + fixture + " -table 2", "replay"},
		{"-lifecycle -replay " + fixture, "lifecycle"},
	} {
		t.Run(c.args, func(t *testing.T) {
			want := "flag provided but not defined: -" + c.flag
			_, stderr, code := clitest.Run(c.args)
			if code != 2 || !strings.Contains(stderr, want) {
				t.Errorf("costsim %s: exit status %d, want 2 with %q:\n%s", c.args, code, want, stderr)
			}
		})
	}
}

// TestStrayArgument pins that flag parsing never stops early and drops
// what follows: an argument a mode does not take exits 2 naming it,
// replay takes exactly one FILE with every flag before it, and an
// unknown mode lists the modes. A bad flag's usage text lists the
// mode's own flags only.
func TestStrayArgument(t *testing.T) {
	for _, c := range []struct{ args, want string }{
		{"-users 10 stray -top 3", `costsim: unexpected argument "stray"`},
		{"lifecycle -users 8 stray", `costsim lifecycle: unexpected argument "stray"`},
		{"replay " + fixture + " -parallel 4", `costsim replay: unexpected argument "-parallel"`},
		{"replay -parallel 4", "costsim replay: missing trace FILE"},
		{"stray -users 10", `costsim: unknown mode "stray"`},
		{"stray -users 10", "costsim replay [flags] FILE"},
		{"lifecycle -top 3", "flags of costsim lifecycle:"},
		{"lifecycle -top 3", "  -gap duration"},
	} {
		_, stderr, code := clitest.Run(c.args)
		if code != 2 || !strings.Contains(stderr, c.want) {
			t.Errorf("costsim %s: exit status %d, want 2 with %q:\n%s", c.args, code, c.want, stderr)
		}
	}
	if _, stderr, _ := clitest.Run("lifecycle -top 3"); strings.Contains(stderr, "-worlds") {
		t.Errorf("costsim lifecycle usage lists replay's -worlds:\n%s", stderr)
	}
}

// TestDefaultCatalogIsNotCrossCloud pins that the cross-cloud comparison
// follows the catalog value: naming the default catalog prints exactly
// what the bare command prints.
func TestDefaultCatalogIsNotCrossCloud(t *testing.T) {
	bare, stderr, code := clitest.Run("-users 10 -top 2")
	if code != 0 {
		t.Fatalf("costsim -users 10: exit status %d:\n%s", code, stderr)
	}
	named, stderr, code := clitest.Run("-users 10 -top 2 -cloud " + cloud.DefaultName)
	if code != 0 || named != bare {
		t.Errorf("costsim -cloud %s: exit status %d, output differs from the bare run:\n%s\nvs\n%s\n%s",
			cloud.DefaultName, code, named, bare, stderr)
	}
}

// TestBadFlagLeavesNoProfile pins that flag values are checked before
// -cpuprofile creates its file: a rejected run, in each mode, exits 2
// and leaves no truncated profile behind.
func TestBadFlagLeavesNoProfile(t *testing.T) {
	for _, bad := range []string{"-users 0 -cpuprofile %s", "lifecycle -cpuprofile %s -zones 0",
		"replay -cpuprofile %s -worlds 0 " + fixture} {
		prof := filepath.Join(t.TempDir(), "cpu.prof")
		_, stderr, code := clitest.Run(fmt.Sprintf(bad, prof))
		if _, err := os.Stat(prof); code != 2 || !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("costsim %s: exit status %d, profile stat %v\n%s", bad, code, err, stderr)
		}
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
	_, stderr, code := clitest.Run("replay -cpuprofile " + prof + " " + bad)
	if code != 1 {
		t.Fatalf("costsim replay bad.csv: exit status %d, want 1:\n%s", code, stderr)
	}
	b, err := os.ReadFile(prof)
	if err != nil || len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
		t.Errorf("profile after a failed run: %d bytes, err %v; want a gzip stream", len(b), err)
	}
}

// TestReplaySchemas pins what replay accepts: the committed
// instance_events fixture replays (exit 0), with -lenient printing
// exactly what it prints without; a pod-level JSON line, which no
// Google schema spells, fails as an instance_events row with exit 1
// and an error naming line 1; and a -lenient replay that skipped every
// row exits 1 naming the file and the count.
func TestReplaySchemas(t *testing.T) {
	plain, stderr, code := clitest.Run("replay " + fixture)
	if code != 0 {
		t.Errorf("costsim replay instance_events.json: exit status %d:\n%s", code, stderr)
	}
	if lenient, stderr, code := clitest.Run("replay -lenient " + fixture); code != 0 || lenient != plain {
		t.Errorf("costsim replay -lenient instance_events.json: exit status %d, output differs from strict:\n%s", code, stderr)
	}
	bogus := filepath.Join(t.TempDir(), "bogus.json")
	if err := os.WriteFile(bogus, []byte(`{"bogus":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, code = clitest.Run("replay -lenient " + bogus)
	if code != 1 || !strings.Contains(stderr, bogus+": -lenient skipped all 1 rows") {
		t.Errorf("costsim replay -lenient bogus.json: exit status %d, want 1 naming the file and count:\n%s", code, stderr)
	}
	pod := filepath.Join(t.TempDir(), "pod.jsonl")
	line := `{"t_us":1000,"ev":"submit","pod":"p1","user":"a","containers":[{"cpu":0.25,"mem":0.5}]}` + "\n"
	if err := os.WriteFile(pod, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, code = clitest.Run("replay " + pod)
	if code != 1 || !strings.Contains(stderr, "line 1: instance_events: missing collection_id") {
		t.Errorf("costsim replay pod.jsonl: exit status %d, want 1 naming line 1:\n%s", code, stderr)
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
		_, stderr, code := clitest.Run("replay -worlds 4 -parallel " + workers + " -trace " + out + " " + src)
		if code != 0 {
			t.Fatalf("costsim replay -parallel %s: exit status %d:\n%s", workers, code, stderr)
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
