package main

import (
	"strings"
	"testing"
	"time"
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
