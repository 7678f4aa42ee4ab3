// Package cloud generalizes cloudsim's single hard-coded AWS m5 table
// into a pluggable machine model: named provider catalogs with zones
// and spot (preemptible) pricing, and the validation that turns the
// -cloud, -zones and -spot-frac flags into one resolved
// machine-subsystem configuration. -cloud only names a catalog; zone
// count and spot fraction each have their own flag.
//
// The registry is deliberately value-oriented: Lookup returns a fresh
// copy on every call, so callers may mutate their catalog (price
// overrides, truncated zone lists) without bleeding into other runs.
package cloud

import (
	"fmt"
	"sort"

	"nestless/internal/cloudsim"
)

// Catalog is one provider's machine family: the instance-type table the
// packer prices against, the availability zones that act as failure
// domains, and (when the family is sellable as preemptible capacity)
// the per-zone spot discount curve.
type Catalog struct {
	Provider string
	Family   string
	Region   string
	Types    []cloudsim.VMType

	// Zones are the region's availability zones, in spread order. A
	// cluster configured with N zones uses Zones[:N].
	Zones []string

	// SpotDiscount[i] is the fraction of the on-demand price paid for
	// spot capacity in Zones[i]: 0.30 means "spot costs 30% of
	// on-demand". Empty means the family is on-demand only.
	SpotDiscount []float64
}

// Name returns the registry key, "provider:family".
func (c *Catalog) Name() string { return c.Provider + ":" + c.Family }

// SpotCapable reports whether the family sells preemptible capacity.
func (c *Catalog) SpotCapable() bool { return len(c.SpotDiscount) > 0 }

// clone deep-copies a catalog so registry entries stay immutable.
func (c *Catalog) clone() *Catalog {
	d := &Catalog{Provider: c.Provider, Family: c.Family, Region: c.Region}
	d.Types = append([]cloudsim.VMType(nil), c.Types...)
	d.Zones = append([]string(nil), c.Zones...)
	if c.SpotDiscount != nil {
		d.SpotDiscount = append([]float64(nil), c.SpotDiscount...)
	}
	return d
}

var registry = map[string]*Catalog{}

// Register adds a catalog under its Name. Re-registering a name is a
// programming error and panics, like flag redefinition.
func Register(c *Catalog) {
	if c.Provider == "" || c.Family == "" {
		panic("cloud: Register needs provider and family")
	}
	if len(c.Types) == 0 || len(c.Zones) == 0 {
		panic("cloud: Register needs types and zones: " + c.Name())
	}
	if c.SpotDiscount != nil && len(c.SpotDiscount) != len(c.Zones) {
		panic("cloud: SpotDiscount must match Zones: " + c.Name())
	}
	if _, dup := registry[c.Name()]; dup {
		panic("cloud: duplicate catalog " + c.Name())
	}
	registry[c.Name()] = c.clone()
}

// Lookup returns a private copy of the named catalog, or an error
// listing what is available.
func Lookup(name string) (*Catalog, error) {
	c, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("unknown catalog %q (have %v)", name, Names())
	}
	return c.clone(), nil
}

// Names lists registered catalogs, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// DefaultName is the catalog every command starts from: the paper's
// Table 2 AWS m5 on-demand family. Runs that never mention -cloud are
// pinned byte-identical to the pre-registry simulator.
const DefaultName = "aws:m5"

func init() {
	// The seed catalog. Types comes from cloudsim.Catalog() itself —
	// there is exactly one copy of Table 2 in the tree, and the pin
	// test in cloud_test.go holds this registration to it. The family
	// is on-demand only: AWS prices m5 spot per-pool, which we don't
	// model, and leaving SpotDiscount empty gives the flag validation
	// a real contradiction to reject (-spot-frac with aws:m5).
	Register(&Catalog{
		Provider: "aws",
		Family:   "m5",
		Region:   "us-east-1",
		Types:    cloudsim.Catalog(),
		Zones:    []string{"us-east-1a", "us-east-1b", "us-east-1c"},
	})

	// GCP n2-standard: 4 GB/vCPU like m5, Iowa on-demand pricing
	// (us-central1: $0.031611/vCPU-h + $0.004237/GB-h). Relative
	// capacities are normalized to the same 96-vCPU/384-GB ceiling as
	// the m5 table so trace-relative requests pack identically, which
	// is what makes the cross-cloud cost comparison apples-to-apples.
	Register(&Catalog{
		Provider: "gcp",
		Family:   "n2",
		Region:   "us-central1",
		Types: []cloudsim.VMType{
			{Name: "n2-standard-2", VCPU: 2, MemGB: 8, RelCPU: 0.0208, RelMem: 0.0208, PricePerH: 0.0971},
			{Name: "n2-standard-4", VCPU: 4, MemGB: 16, RelCPU: 0.0417, RelMem: 0.0417, PricePerH: 0.1942},
			{Name: "n2-standard-8", VCPU: 8, MemGB: 32, RelCPU: 0.0833, RelMem: 0.0833, PricePerH: 0.3885},
			{Name: "n2-standard-16", VCPU: 16, MemGB: 64, RelCPU: 0.1667, RelMem: 0.1667, PricePerH: 0.7769},
			{Name: "n2-standard-32", VCPU: 32, MemGB: 128, RelCPU: 0.3333, RelMem: 0.3333, PricePerH: 1.5539},
			{Name: "n2-standard-48", VCPU: 48, MemGB: 192, RelCPU: 0.5, RelMem: 0.5, PricePerH: 2.3308},
			{Name: "n2-standard-64", VCPU: 64, MemGB: 256, RelCPU: 0.6667, RelMem: 0.6667, PricePerH: 3.1078},
			{Name: "n2-standard-80", VCPU: 80, MemGB: 320, RelCPU: 0.8333, RelMem: 0.8333, PricePerH: 3.8847},
			{Name: "n2-standard-96", VCPU: 96, MemGB: 384, RelCPU: 1, RelMem: 1, PricePerH: 4.6616},
		},
		Zones: []string{"us-central1-a", "us-central1-b", "us-central1-c", "us-central1-f"},
		// Spot VMs: roughly 60-91% off on-demand; we model a per-zone
		// curve so zone choice is an economic decision, not only a
		// failure-domain one.
		SpotDiscount: []float64{0.30, 0.32, 0.28, 0.35},
	})
}
