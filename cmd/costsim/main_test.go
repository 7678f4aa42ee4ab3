package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"nestless/internal/cloud"
)

// TestCheckStaticRejectsClusterFlags pins the static path's flag gate:
// every cluster-simulation flag is an error there (exit 2 in main),
// while the static snapshot's own flags pass.
func TestCheckStaticRejectsClusterFlags(t *testing.T) {
	cl, err := cloud.Resolve(cloud.Options{Spec: cloud.DefaultName})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"spot-frac", "zones", "repack-cache",
		"horizon", "gap", "life", "boot",
	} {
		err := checkStatic(map[string]bool{name: true}, cl)
		if err == nil || !strings.Contains(err.Error(), "-"+name+" ") {
			t.Errorf("-%s on the static path: got %v, want an error naming it", name, err)
		}
	}
	static := map[string]bool{"users": true, "seed": true, "csv": true, "top": true, "cloud": true, "table": true}
	if err := checkStatic(static, cl); err != nil {
		t.Errorf("static flags rejected: %v", err)
	}
	zoned, err := cloud.Resolve(cloud.Options{Spec: "gcp:n2:zone=3"})
	if err != nil {
		t.Fatal(err)
	}
	if checkStatic(nil, zoned) == nil {
		t.Error("zone= in -cloud accepted on the static path")
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

// TestSampleCapFlagRetired pins that -sample-cap is no longer a flag:
// trajectories are a fixed 12 points, so the flag package rejects it as
// undefined, with exit status 2. The test re-runs its own binary as
// costsim to observe the exit.
func TestSampleCapFlagRetired(t *testing.T) {
	if os.Getenv("COSTSIM_RUN_MAIN") == "1" {
		os.Args = []string{"costsim", "-sample-cap", "4"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestSampleCapFlagRetired$")
	cmd.Env = append(os.Environ(), "COSTSIM_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("costsim -sample-cap 4: got %v, want exit status 2\n%s", err, out)
	}
	if !strings.Contains(string(out), "flag provided but not defined: -sample-cap") {
		t.Errorf("costsim -sample-cap 4: stderr does not name the undefined flag:\n%s", out)
	}
}
