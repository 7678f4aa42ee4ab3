package netsim

import (
	"time"

	"nestless/internal/cpuacct"
	"nestless/internal/sim"
	"nestless/internal/telemetry"
)

// CPU binds a sim.Station (the serial compute resource) to a billing
// function. All network work of a namespace executes on its CPU; the
// billing function decides which cpuacct entities the time lands on —
// e.g. guest-side work bills both "app/<name>" (guest view) and
// "vm/<name>" as guest time (host view).
//
// When Rec is set, every billed charge also emits one telemetry span
// attributed to Entity (mirrored to GuestOf as guest time). Because Run,
// RunCosts and Charge are the only billing choke points, the trace's
// summed span durations reconcile with the accountant's breakdown by
// construction.
type CPU struct {
	Eng     *sim.Engine
	Station *sim.Station
	Bill    func(cat cpuacct.Category, d time.Duration)

	Rec     *telemetry.Recorder
	Entity  string
	GuestOf string

	net *Net
}

// NewCPU builds a CPU around a fresh single-server station. The bill
// function may be nil (no accounting).
func NewCPU(eng *sim.Engine, name string, servers int, bill func(cpuacct.Category, time.Duration)) *CPU {
	return &CPU{Eng: eng, Station: sim.NewStation(eng, name, servers), Bill: bill}
}

// Net returns the world the CPU was made by (nil for NewCPU): devices
// running on the CPU draw hops and frame copies from its pools.
func (c *CPU) Net() *Net { return c.net }

// Run executes work of duration d on the CPU, billing it to cat, and
// calls then when it completes. then may be nil.
func (c *CPU) Run(cat cpuacct.Category, d time.Duration, then func()) {
	if d > 0 {
		if c.Bill != nil {
			c.Bill(cat, d)
		}
		if c.Rec != nil {
			c.Rec.ChargeSpan(c.Entity, c.GuestOf, cat, c.Station.Name(), d)
		}
	}
	c.Station.Process(d, then)
}

// RunCosts executes a sequence of (category, duration) charges as one
// serial occupancy of the CPU (a single station job), while billing each
// charge to its own category. Batching keeps event counts low and models
// the fact that one core runs the whole stage sequence back to back.
func (c *CPU) RunCosts(charges []Charge, then func()) {
	var total time.Duration
	for _, ch := range charges {
		if ch.D <= 0 {
			continue
		}
		total += ch.D
		if c.Bill != nil {
			c.Bill(ch.Cat, ch.D)
		}
		if c.Rec != nil {
			c.Rec.ChargeSpan(c.Entity, c.GuestOf, ch.Cat, c.Station.Name(), ch.D)
		}
	}
	c.Station.Process(total, then)
}

// Charge bills work that consumes CPU time without occupying the station
// (callers that model their own delays, e.g. container boot steps whose
// wall time exceeds their CPU fraction). It keeps the accountant and the
// telemetry rollup in lockstep with Run/RunCosts.
func (c *CPU) Charge(cat cpuacct.Category, d time.Duration) {
	if d <= 0 {
		return
	}
	if c.Bill != nil {
		c.Bill(cat, d)
	}
	if c.Rec != nil {
		c.Rec.ChargeSpan(c.Entity, c.GuestOf, cat, c.Station.Name(), d)
	}
}

// Charge is one (category, duration) billing item.
type Charge struct {
	Cat cpuacct.Category
	D   time.Duration
}
