package cloud

import (
	"reflect"
	"strings"
	"testing"

	"nestless/internal/cloudsim"
	"nestless/internal/trace"
)

// TestDefaultCatalogPinned holds the registry's aws:m5 entry to the one
// copy of Table 2 in the tree: the catalog refactor must be a pure
// re-plumb, so a default run through the registry prices against
// byte-identical types.
func TestDefaultCatalogPinned(t *testing.T) {
	cat, err := Lookup(DefaultName)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cat.Types, cloudsim.Catalog()) {
		t.Fatalf("aws:m5 types diverged from cloudsim.Catalog():\n%+v\nvs\n%+v",
			cat.Types, cloudsim.Catalog())
	}
	if cat.SpotCapable() {
		t.Fatal("aws:m5 must be on-demand only (validation relies on it)")
	}
}

// TestDefaultCatalogStaticSim runs the paper-scale static simulation
// through both the registry catalog and the hard-coded one and requires
// identical results end to end.
func TestDefaultCatalogStaticSim(t *testing.T) {
	pop := trace.Generate(trace.DefaultConfig(42))
	cat, err := Lookup(DefaultName)
	if err != nil {
		t.Fatal(err)
	}
	got := cloudsim.Simulate(pop, cat.Types)
	want := cloudsim.Simulate(pop, cloudsim.Catalog())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("registry catalog changed the static simulation:\n%+v\nvs\n%+v", got, want)
	}
}

func TestLookupIsolation(t *testing.T) {
	a, _ := Lookup(DefaultName)
	a.Types[0].PricePerH = 99
	a.Zones[0] = "mutated"
	b, _ := Lookup(DefaultName)
	if b.Types[0].PricePerH == 99 || b.Zones[0] == "mutated" {
		t.Fatal("Lookup returned a shared catalog; mutations leaked into the registry")
	}
}

func TestNames(t *testing.T) {
	names := Names()
	want := []string{"aws:m5", "gcp:n2"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
}

func TestGCPCatalogShape(t *testing.T) {
	cat, err := Lookup("gcp:n2")
	if err != nil {
		t.Fatal(err)
	}
	if !cat.SpotCapable() {
		t.Fatal("gcp:n2 must be spot-capable")
	}
	if len(cat.SpotDiscount) != len(cat.Zones) {
		t.Fatalf("SpotDiscount len %d != Zones len %d", len(cat.SpotDiscount), len(cat.Zones))
	}
	// Same normalization ceiling as m5: largest machine is Rel 1.0 and
	// prices must rise with size so cheapest-fitting stays meaningful.
	last := cat.Types[len(cat.Types)-1]
	if last.RelCPU != 1 || last.RelMem != 1 {
		t.Fatalf("largest type %s not normalized to Rel 1.0", last.Name)
	}
	for i := 1; i < len(cat.Types); i++ {
		if cat.Types[i].PricePerH <= cat.Types[i-1].PricePerH {
			t.Fatalf("prices not increasing at %s", cat.Types[i].Name)
		}
		if cat.Types[i].VCPU <= cat.Types[i-1].VCPU {
			t.Fatalf("vCPUs not increasing at %s", cat.Types[i].Name)
		}
	}
}

func TestParseSpec(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
	}{
		{"aws:m5", Spec{Provider: "aws", Family: "m5"}},
		{"gcp:n2:zone=3", Spec{Provider: "gcp", Family: "n2", Zones: 3}},
		{"gcp:n2:spot=0.5", Spec{Provider: "gcp", Family: "n2", SpotFrac: 0.5, SpotSet: true}},
		{"gcp:n2:zone=2:spot=0.25", Spec{Provider: "gcp", Family: "n2", Zones: 2, SpotFrac: 0.25, SpotSet: true}},
		{"gcp:n2:spot=1:zone=4", Spec{Provider: "gcp", Family: "n2", Zones: 4, SpotFrac: 1, SpotSet: true}},
		{"gcp:n2:spot=0", Spec{Provider: "gcp", Family: "n2", SpotFrac: 0, SpotSet: true}},
	}
	for _, c := range cases {
		got, err := ParseSpec(c.in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", c.in, err)
		}
		if *got != c.want {
			t.Fatalf("ParseSpec(%q) = %+v, want %+v", c.in, *got, c.want)
		}
		back, err := ParseSpec(got.String())
		if err != nil || *back != *got {
			t.Fatalf("round trip of %q via %q: %+v, %v", c.in, got.String(), back, err)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		"",
		"aws",
		":m5",
		"aws:",
		"AWS:m5",          // uppercase: one spelling per catalog
		"aws:m5:zone",     // not key=value
		"aws:m5:zone=0",   // zone count must be ≥ 1
		"aws:m5:zone=-1",
		"aws:m5:zone=x",
		"aws:m5:spot=1.5", // fraction outside [0,1]
		"aws:m5:spot=-0.1",
		"aws:m5:spot=abc",
		"aws:m5:spot=0.1:spot=0.2", // duplicate key
		"aws:m5:zone=1:zone=2",
		"aws:m5:color=blue", // unknown key
		"aws:m5:=1",
	}
	for _, in := range bad {
		if s, err := ParseSpec(in); err == nil {
			t.Fatalf("ParseSpec(%q) accepted as %+v, want error", in, s)
		}
	}
}

func TestResolve(t *testing.T) {
	r, err := Resolve(Options{})
	if err != nil {
		t.Fatalf("zero Options must resolve to the default pin: %v", err)
	}
	if r.Catalog.Name() != DefaultName || r.Zones != 1 || r.SpotFrac != 0 {
		t.Fatalf("default resolve = %+v", r)
	}
	if !reflect.DeepEqual(r.ZoneNames, []string{"us-east-1a"}) {
		t.Fatalf("default zone names = %v", r.ZoneNames)
	}

	r, err = Resolve(Options{Spec: "gcp:n2:zone=3:spot=0.5"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Zones != 3 || r.SpotFrac != 0.5 || len(r.ZoneNames) != 3 || len(r.SpotDiscount) != 3 {
		t.Fatalf("gcp resolve = %+v", r)
	}

	// Flag-provided knobs work the same as spec-embedded ones.
	r, err = Resolve(Options{Spec: "gcp:n2", Zones: 2, ZonesSet: true, SpotFrac: 0.25, SpotFracSet: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Zones != 2 || r.SpotFrac != 0.25 {
		t.Fatalf("flag resolve = %+v", r)
	}
}

func TestResolveErrors(t *testing.T) {
	cases := []struct {
		name string
		o    Options
		frag string // required error substring
	}{
		{"unknown catalog", Options{Spec: "azure:dv5"}, "unknown catalog"},
		{"bad spec", Options{Spec: "aws"}, "cloud spec"},
		{"zones conflict", Options{Spec: "gcp:n2:zone=2", Zones: 3, ZonesSet: true}, "conflicts"},
		{"spot conflict", Options{Spec: "gcp:n2:spot=0.5", SpotFrac: 0.1, SpotFracSet: true}, "conflicts"},
		{"zones too many", Options{Spec: "aws:m5", Zones: 4, ZonesSet: true}, "outside 1..3"},
		{"zones zero", Options{Zones: 0, ZonesSet: true}, "outside"},
		{"spot on on-demand catalog", Options{SpotFrac: 0.5, SpotFracSet: true}, "on-demand only"},
	}
	for _, c := range cases {
		_, err := Resolve(c.o)
		if err == nil {
			t.Fatalf("%s: Resolve(%+v) succeeded, want error", c.name, c.o)
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Fatalf("%s: error %q lacks %q", c.name, err, c.frag)
		}
	}

	// Explicitly spelling the defaults is not a contradiction.
	if _, err := Resolve(Options{Spec: "aws:m5", Zones: 1, ZonesSet: true, SpotFrac: 0, SpotFracSet: true}); err != nil {
		t.Fatalf("explicit defaults rejected: %v", err)
	}
}
