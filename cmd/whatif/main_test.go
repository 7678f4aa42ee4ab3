package main

import (
	"strings"
	"testing"
	"time"

	"nestless/internal/cli/clitest"
)

// durations names checkDurations' arguments for the table below.
type durations struct {
	horizon, snapAt, boot, gap, life time.Duration
}

func (d durations) check() error {
	return checkDurations(d.horizon, d.snapAt, d.boot, d.gap, d.life)
}

// TestCheckDurations pins the duration gate: each flag's out-of-range
// values are an error naming the flag (exit 2 in main), while the
// defaults, a zero boot delay and the snapshot-instant bounds pass.
func TestCheckDurations(t *testing.T) {
	def := durations{
		horizon: 8 * time.Hour, boot: 45 * time.Second,
		gap: 2 * time.Minute, life: 45 * time.Minute,
	}
	for _, d := range []durations{
		def,
		{horizon: def.horizon, gap: def.gap, life: def.life},                      // zero boot
		{horizon: def.horizon, snapAt: def.horizon, gap: def.gap, life: def.life}, // snap at the horizon
	} {
		if err := d.check(); err != nil {
			t.Errorf("%+v rejected: %v", d, err)
		}
	}
	for _, c := range []struct {
		flag string
		set  func(*durations)
	}{
		{"horizon", func(d *durations) { d.horizon = -time.Hour }},
		{"horizon", func(d *durations) { d.horizon = 0 }},
		{"gap", func(d *durations) { d.gap = 0 }},
		{"gap", func(d *durations) { d.gap = -time.Minute }},
		{"life", func(d *durations) { d.life = 0 }},
		{"life", func(d *durations) { d.life = -time.Minute }},
		{"boot", func(d *durations) { d.boot = -time.Second }},
		{"snap-at", func(d *durations) { d.snapAt = -time.Minute }},
		{"snap-at", func(d *durations) { d.snapAt = d.horizon + time.Nanosecond }},
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

// TestRepackCacheFlagRetired pins that -repack-cache is no longer a
// flag: the packing cache has a constant capacity, so the flag package
// rejects it as undefined, with exit status 2, before any world runs.
func TestRepackCacheFlagRetired(t *testing.T) {
	_, stderr, code := clitest.Run("-repack-cache 8")
	if code != 2 || !strings.Contains(stderr, "flag provided but not defined: -repack-cache") {
		t.Errorf("whatif -repack-cache 8: exit status %d, want 2 naming the undefined flag:\n%s", code, stderr)
	}
}

// TestUnknownPolicy pins the -policy gate: a name cluster.ParsePolicy
// does not know exits 2 and names the valid ones.
func TestUnknownPolicy(t *testing.T) {
	_, stderr, code := clitest.Run("-policy borg")
	if code != 2 || !strings.Contains(stderr, `whatif: -policy "borg" (want kubernetes|hostlo)`) {
		t.Errorf("whatif -policy borg: exit status %d, want 2 naming the policies:\n%s", code, stderr)
	}
}

// TestRejectsWhatDefaultsWouldReplace pins that -users and -zones below
// 1 exit 2 before any world runs: snapshot.BaseConfig would swap zero
// users for its default, and cloud.Resolve zero zones for one, while
// the banner printed the value given. (-addr is unusable so that a run
// the gate let through fails instead of serving.)
func TestRejectsWhatDefaultsWouldReplace(t *testing.T) {
	for _, c := range []struct{ args, want string }{
		{"-users 0", "-users must be >= 1, got 0"},
		{"-users -5", "-users must be >= 1, got -5"},
		{"-zones 0", "-zones must be >= 1, got 0"},
	} {
		t.Run(c.args, func(t *testing.T) {
			_, stderr, code := clitest.Run(c.args + " -addr localhost:-1")
			if code != 2 || !strings.Contains(stderr, c.want) {
				t.Errorf("whatif %s: exit status %d, want 2 with %q:\n%s", c.args, code, c.want, stderr)
			}
		})
	}
}

// TestStrayArgument pins that flag parsing does not stop at a stray
// argument and drop the flags after it: the run exits 2 naming it.
// (-addr comes first and is unusable, so no run can serve.)
func TestStrayArgument(t *testing.T) {
	_, stderr, code := clitest.Run("-addr localhost:-1 -users 1 stray -policy borg")
	if code != 2 || !strings.Contains(stderr, `unexpected argument "stray"`) {
		t.Errorf("whatif stray: exit status %d, want 2 naming the argument:\n%s", code, stderr)
	}
}
