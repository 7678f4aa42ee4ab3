package cloud

import (
	"reflect"
	"strings"
	"testing"

	"nestless/internal/cloudsim"
	"nestless/internal/faults"
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

	r, err = Resolve(Options{Spec: "gcp:n2", Zones: 3, SpotFrac: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if r.Zones != 3 || r.SpotFrac != 0.5 || len(r.ZoneNames) != 3 || len(r.SpotDiscount) != 3 {
		t.Fatalf("gcp resolve = %+v", r)
	}
}

func TestResolveErrors(t *testing.T) {
	cases := []struct {
		name string
		o    Options
		frag string // required error substring
	}{
		{"unknown catalog", Options{Spec: "azure:dv5"}, "unknown catalog"},
		{"not a catalog name", Options{Spec: "aws"}, "unknown catalog"},
		// -cloud names a catalog and nothing else: zone count and spot
		// fraction have their own flags.
		{"zone key", Options{Spec: "gcp:n2:zone=3"}, "unknown catalog"},
		{"spot key", Options{Spec: "gcp:n2:spot=0.5"}, "unknown catalog"},
		{"case folded", Options{Spec: "AWS:m5"}, "unknown catalog"},
		{"zones too many", Options{Spec: "aws:m5", Zones: 4}, "outside 1..3"},
		{"zones negative", Options{Zones: -1}, "outside"},
		{"spot negative", Options{Spec: "gcp:n2", SpotFrac: -0.1}, "outside [0,1]"},
		{"spot above one", Options{Spec: "gcp:n2", SpotFrac: 1.5}, "outside [0,1]"},
		{"spot on on-demand catalog", Options{SpotFrac: 0.5}, "on-demand only"},
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

	// Explicitly spelling the defaults resolves like the zero Options.
	def, err := Resolve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := Resolve(Options{Spec: "aws:m5", Zones: 1, SpotFrac: 0})
	if err != nil || !reflect.DeepEqual(explicit, def) {
		t.Fatalf("explicit defaults resolve to %+v, %v; want %+v", explicit, err, def)
	}
}

// TestWithDefaultRevocation: the default revocation rule is merged in
// after the user's rules exactly when the run has spot capacity and the
// user's schedule says nothing about spot/ points.
func TestWithDefaultRevocation(t *testing.T) {
	spot, err := Resolve(Options{Spec: "gcp:n2", SpotFrac: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	onDemand, err := Resolve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	user, err := faults.ParseSpec("node/*:crash:p=0.01")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := spot.WithDefaultRevocation(user).String(), user.String()+";"+DefaultRevocationSpec; got != want {
		t.Errorf("spot run, no spot/ rule: schedule %q, want %q", got, want)
	}
	if got := spot.WithDefaultRevocation(nil).String(); got != DefaultRevocationSpec {
		t.Errorf("spot run, no -faults: schedule %q, want %q", got, DefaultRevocationSpec)
	}
	named, err := faults.ParseSpec("spot/*:crash:p=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if got := spot.WithDefaultRevocation(named); got != named {
		t.Errorf("spot run naming spot/: schedule %q, want the user's %q", got, named)
	}
	if got := onDemand.WithDefaultRevocation(user); got != user {
		t.Errorf("on-demand run: schedule %q, want the user's %q", got, user)
	}
	if got := onDemand.WithDefaultRevocation(nil); got != nil {
		t.Errorf("on-demand run, no -faults: schedule %q, want none", got)
	}
}
