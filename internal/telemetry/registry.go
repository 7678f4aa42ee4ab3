package telemetry

import (
	"fmt"

	"nestless/internal/report"
	"nestless/internal/sim"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v float64 }

// Add increases the counter by d (negative d is ignored).
func (c *Counter) Add(d float64) {
	if d > 0 {
		c.v += d
	}
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.v++ }

// Value returns the accumulated count.
func (c *Counter) Value() float64 { return c.v }

// Registry is a deterministic collection of named instruments: counters
// and sample series. Instruments are created on first use and
// enumerate in registration order, so two same-seed runs render their
// metrics identically — the same hard requirement the simulator has.
type Registry struct {
	order    []string
	counters map[string]*Counter
	series   map[string]*sim.Series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		series:   make(map[string]*sim.Series),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{}
	r.counters[name] = c
	r.order = append(r.order, name)
	return c
}

// Series returns the named sample series, creating it on first use.
func (r *Registry) Series(name string) *sim.Series {
	if s, ok := r.series[name]; ok {
		return s
	}
	s := &sim.Series{}
	r.series[name] = s
	r.order = append(r.order, name)
	return s
}

// append folds src's instruments into r in src's registration order:
// counters add, series replay src's samples in their recorded order (so
// running sums accumulate as if recorded here). Both kinds compose, so
// appended runs report their totals.
func (r *Registry) append(src *Registry) {
	for _, name := range src.order {
		switch {
		case src.counters[name] != nil:
			r.Counter(name).Add(src.counters[name].Value())
		case src.series[name] != nil:
			dst := r.Series(name)
			for _, v := range src.series[name].State().Samples {
				dst.Add(v)
			}
		}
	}
}

// Names returns all instrument names in registration order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// Metrics flattens every instrument into report metrics, in
// registration order. Counters carry their value; series carry a
// summary digest.
func (r *Registry) Metrics() []report.Metric {
	out := make([]report.Metric, 0, len(r.order))
	for _, name := range r.order {
		switch {
		case r.counters[name] != nil:
			out = append(out, report.Metric{Name: name, Kind: "counter", Value: r.counters[name].Value()})
		case r.series[name] != nil:
			s := r.series[name]
			out = append(out, report.Metric{Name: name, Kind: "series",
				Value: fmt.Sprintf("n=%d mean=%.4g p99=%.4g", s.N(), s.Mean(), s.Percentile(99))})
		}
	}
	return out
}

// Table renders every instrument as one row, in registration order.
func (r *Registry) Table(title string) *report.Table {
	return report.MetricsTable(title, r.Metrics())
}
