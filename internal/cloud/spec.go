package cloud

import (
	"fmt"

	"nestless/internal/faults"
)

// DefaultRevocationSpec is the fault schedule WithDefaultRevocation
// merges in when a run uses spot capacity but the user's -faults string
// says nothing about it: every autoscaler tick, each live spot node has
// a 2% chance of being revoked. Matches only "spot/..." points, so
// on-demand nodes never see it.
const DefaultRevocationSpec = "spot/*:crash:p=0.02"

// WithDefaultRevocation returns the fault schedule a run under r uses
// for the user's schedule sched. Spot capacity without a revocation
// rule would be free money, so when r runs spot capacity and sched
// says nothing about spot/ points, DefaultRevocationSpec is merged in
// after sched's rules. Otherwise sched is returned as is.
func (r *Resolved) WithDefaultRevocation(sched *faults.Schedule) *faults.Schedule {
	if r.SpotFrac == 0 || sched.HasPointPrefix("spot/") {
		return sched
	}
	def, err := faults.ParseSpec(DefaultRevocationSpec)
	if err != nil {
		// The spec is a constant; a failure means the fault grammar
		// itself changed under it.
		panic(err)
	}
	return faults.Merge(sched, def)
}

// Options is the machine-subsystem part of a command line, before
// validation: one field per flag. The zero value resolves to
// DefaultName in one zone with no spot capacity.
type Options struct {
	Spec     string  // -cloud: a registered catalog name ("" = DefaultName)
	SpotFrac float64 // -spot-frac
	Zones    int     // -zones (0 = one zone)
}

// Resolved is the validated machine-subsystem configuration.
type Resolved struct {
	Catalog      *Catalog
	Zones        int      // ≥ 1
	ZoneNames    []string // len == Zones
	SpotFrac     float64  // in [0,1]
	SpotDiscount []float64
}

// Resolve validates one combination of cloud flags against the
// registry and returns the resolved configuration. All errors are
// user errors (exit-2 material), phrased to name the offending flag.
func Resolve(o Options) (*Resolved, error) {
	name := o.Spec
	if name == "" {
		name = DefaultName
	}
	cat, err := Lookup(name)
	if err != nil {
		return nil, fmt.Errorf("-cloud: %v", err)
	}

	zones := o.Zones
	if zones == 0 {
		zones = 1
	}
	if zones < 1 || zones > len(cat.Zones) {
		return nil, fmt.Errorf("-zones: %d outside 1..%d (%s has zones %v)",
			zones, len(cat.Zones), cat.Name(), cat.Zones)
	}

	spot := o.SpotFrac
	if spot < 0 || spot > 1 {
		return nil, fmt.Errorf("-spot-frac: %v outside [0,1]", spot)
	}
	if spot > 0 && !cat.SpotCapable() {
		return nil, fmt.Errorf("-spot-frac: catalog %s is on-demand only (no spot pricing)", cat.Name())
	}

	r := &Resolved{
		Catalog:   cat,
		Zones:     zones,
		ZoneNames: append([]string(nil), cat.Zones[:zones]...),
		SpotFrac:  spot,
	}
	if cat.SpotCapable() {
		r.SpotDiscount = append([]float64(nil), cat.SpotDiscount[:zones]...)
	}
	return r, nil
}
