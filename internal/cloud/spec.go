package cloud

import (
	"fmt"
	"strconv"
	"strings"
)

// Spec is the parsed form of the -cloud selector:
//
//	provider:family[:zone=N][:spot=F]
//
// The first two tokens name a registered catalog; the optional
// key=value tokens (any order, each at most once) pick how many of the
// catalog's zones to spread across and what fraction of the fleet to
// run on spot capacity. Zones==0 / SpotSet==false mean "not mentioned",
// which lets Resolve tell a defaulted knob from an explicit one.
type Spec struct {
	Provider string
	Family   string
	Zones    int // 0 = unset
	SpotFrac float64
	SpotSet  bool
}

// CatalogName returns the registry key the spec selects.
func (s *Spec) CatalogName() string { return s.Provider + ":" + s.Family }

// String renders the canonical form: ParseSpec(s.String()) == *s for
// every spec ParseSpec accepts (the fuzz target holds us to it).
func (s *Spec) String() string {
	var b strings.Builder
	b.WriteString(s.Provider)
	b.WriteByte(':')
	b.WriteString(s.Family)
	if s.Zones != 0 {
		fmt.Fprintf(&b, ":zone=%d", s.Zones)
	}
	if s.SpotSet {
		b.WriteString(":spot=")
		b.WriteString(strconv.FormatFloat(s.SpotFrac, 'g', -1, 64))
	}
	return b.String()
}

// validToken reports whether a provider/family name is made of the
// charset we accept: lowercase alphanumerics plus '-' and '_', and not
// empty. Uppercase is rejected rather than folded so there is exactly
// one spelling of every catalog.
func validToken(tok string) bool {
	if tok == "" {
		return false
	}
	for i := 0; i < len(tok); i++ {
		c := tok[i]
		switch {
		case c >= 'a' && c <= 'z':
		case c >= '0' && c <= '9':
		case c == '-' || c == '_':
		default:
			return false
		}
	}
	return true
}

// ParseSpec parses the -cloud grammar. It validates shape and value
// ranges but does not consult the registry — a well-formed spec for an
// unregistered catalog parses fine and fails later in Resolve, so the
// grammar can be fuzzed without the registry's contents leaking into
// the corpus.
func ParseSpec(text string) (*Spec, error) {
	parts := strings.Split(text, ":")
	if len(parts) < 2 {
		return nil, fmt.Errorf("cloud spec %q: want provider:family[:zone=N][:spot=F]", text)
	}
	if !validToken(parts[0]) {
		return nil, fmt.Errorf("cloud spec %q: bad provider %q", text, parts[0])
	}
	if !validToken(parts[1]) {
		return nil, fmt.Errorf("cloud spec %q: bad family %q", text, parts[1])
	}
	s := &Spec{Provider: parts[0], Family: parts[1]}
	for _, kv := range parts[2:] {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("cloud spec %q: %q is not key=value", text, kv)
		}
		switch key {
		case "zone":
			if s.Zones != 0 {
				return nil, fmt.Errorf("cloud spec %q: duplicate zone=", text)
			}
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("cloud spec %q: zone=%q is not a positive count", text, val)
			}
			s.Zones = n
		case "spot":
			if s.SpotSet {
				return nil, fmt.Errorf("cloud spec %q: duplicate spot=", text)
			}
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 0 || f > 1 {
				return nil, fmt.Errorf("cloud spec %q: spot=%q is not a fraction in [0,1]", text, val)
			}
			s.SpotFrac = f
			s.SpotSet = true
		default:
			return nil, fmt.Errorf("cloud spec %q: unknown key %q", text, key)
		}
	}
	return s, nil
}

// DefaultRevocationSpec is the fault schedule merged in (by the CLI)
// when a run uses spot capacity but the user's -faults string says
// nothing about it: every autoscaler tick, each live spot node has a 2%
// chance of being revoked. Matches only "spot/..." points, so
// on-demand nodes never see it.
const DefaultRevocationSpec = "spot/*:crash:p=0.02"

// Options is the raw CLI surface of the machine subsystem, before
// validation. The *Set booleans distinguish "flag left at default"
// from "user typed the default value" (callers derive them from
// flag.Visit), which is what keeps default runs byte-identical while
// still rejecting contradictory explicit combos.
type Options struct {
	Spec        string  // -cloud
	SpotFrac    float64 // -spot-frac
	SpotFracSet bool
	Zones       int // -zones
	ZonesSet    bool
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
	specText := o.Spec
	if specText == "" {
		specText = DefaultName
	}
	spec, err := ParseSpec(specText)
	if err != nil {
		return nil, fmt.Errorf("-cloud: %v", err)
	}
	cat, err := Lookup(spec.CatalogName())
	if err != nil {
		return nil, fmt.Errorf("-cloud: %v", err)
	}

	zones := 1
	switch {
	case spec.Zones != 0 && o.ZonesSet:
		return nil, fmt.Errorf("-zones conflicts with zone= in -cloud %q", o.Spec)
	case spec.Zones != 0:
		zones = spec.Zones
	case o.ZonesSet:
		zones = o.Zones
	}
	if zones < 1 || zones > len(cat.Zones) {
		return nil, fmt.Errorf("-zones: %d outside 1..%d (%s has zones %v)",
			zones, len(cat.Zones), cat.Name(), cat.Zones)
	}

	spot := 0.0
	switch {
	case spec.SpotSet && o.SpotFracSet:
		return nil, fmt.Errorf("-spot-frac conflicts with spot= in -cloud %q", o.Spec)
	case spec.SpotSet:
		spot = spec.SpotFrac
	case o.SpotFracSet:
		spot = o.SpotFrac
	}
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
