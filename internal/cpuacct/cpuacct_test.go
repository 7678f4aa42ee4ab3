package cpuacct

import (
	"testing"
	"testing/quick"
	"time"
)

func TestUsageAddAndTotal(t *testing.T) {
	var u Usage
	u.Add(Usr, 10*time.Millisecond)
	u.Add(Sys, 5*time.Millisecond)
	u.Add(Soft, 2*time.Millisecond)
	u.Add(Guest, 40*time.Millisecond)
	if u.Of(Usr) != 10*time.Millisecond || u.Of(Soft) != 2*time.Millisecond {
		t.Fatalf("per-category reads wrong: %v", u)
	}
	if u.Total() != 57*time.Millisecond {
		t.Fatalf("Total = %v, want 57ms", u.Total())
	}
}

func TestUsageIgnoresInvalid(t *testing.T) {
	var u Usage
	u.Add(Usr, -time.Second)
	u.Add(Category(99), time.Second)
	u.Add(Category(-1), time.Second)
	if u.Total() != 0 {
		t.Fatalf("invalid adds must be ignored, got %v", u.Total())
	}
	if u.Of(Category(99)) != 0 {
		t.Fatal("out-of-range Of must be 0")
	}
}

func TestUsageSubClampsAtZero(t *testing.T) {
	var a, b Usage
	a.Add(Usr, 10*time.Millisecond)
	b.Add(Usr, 3*time.Millisecond)
	b.Add(Sys, 99*time.Millisecond)
	d := a.Sub(b)
	if d.Of(Usr) != 7*time.Millisecond {
		t.Fatalf("Sub usr = %v, want 7ms", d.Of(Usr))
	}
	if d.Of(Sys) != 0 {
		t.Fatalf("Sub must clamp at zero, got %v", d.Of(Sys))
	}
}

func TestUsageCores(t *testing.T) {
	var u Usage
	u.Add(Sys, 500*time.Millisecond)
	cores := u.Cores(time.Second)
	if cores[Sys] != 0.5 {
		t.Fatalf("Cores[sys] = %v, want 0.5", cores[Sys])
	}
	if cores[Usr] != 0 {
		t.Fatalf("Cores[usr] = %v, want 0", cores[Usr])
	}
	zero := u.Cores(0)
	if zero[Sys] != 0 {
		t.Fatal("zero elapsed must report zero cores")
	}
}

func TestAccountantRecordAndQuery(t *testing.T) {
	a := New()
	a.Record("host", Sys, time.Second)
	a.Record("vm/web", Guest, 2*time.Second)
	a.Record("vm/db", Guest, 3*time.Second)
	a.Record("app/nginx", Usr, 100*time.Millisecond)

	if a.Usage("host").Of(Sys) != time.Second {
		t.Fatal("host sys wrong")
	}
	if a.Usage("missing").Total() != 0 {
		t.Fatal("unknown entity must be zero")
	}
	total := a.TotalFor("vm/")
	if total.Of(Guest) != 5*time.Second {
		t.Fatalf("TotalFor(vm/) guest = %v, want 5s", total.Of(Guest))
	}
	ents := a.Entities()
	want := []string{"app/nginx", "host", "vm/db", "vm/web"}
	if len(ents) != len(want) {
		t.Fatalf("Entities = %v", ents)
	}
	for i := range want {
		if ents[i] != want[i] {
			t.Fatalf("Entities = %v, want %v", ents, want)
		}
	}
}

func TestAccountantReset(t *testing.T) {
	a := New()
	a.Record("host", Usr, time.Second)
	a.Reset()
	if a.Usage("host").Total() != 0 || len(a.Entities()) != 0 {
		t.Fatal("Reset did not clear usage")
	}
}

func TestCategoryStrings(t *testing.T) {
	cases := map[Category]string{Usr: "usr", Sys: "sys", Soft: "soft", Guest: "guest"}
	for c, want := range cases {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), want)
		}
	}
	if Category(42).String() != "Category(42)" {
		t.Error("unknown category string wrong")
	}
	if len(Categories()) != 4 {
		t.Error("Categories() must list 4 entries")
	}
}

// Property: Plus then Sub returns the original usage (when the subtrahend
// is the added value), and Total equals the sum of categories.
func TestUsageAlgebraProperty(t *testing.T) {
	prop := func(au, as, ao, ag, bu, bs, bo, bg uint32) bool {
		var a, b Usage
		a.Add(Usr, time.Duration(au))
		a.Add(Sys, time.Duration(as))
		a.Add(Soft, time.Duration(ao))
		a.Add(Guest, time.Duration(ag))
		b.Add(Usr, time.Duration(bu))
		b.Add(Sys, time.Duration(bs))
		b.Add(Soft, time.Duration(bo))
		b.Add(Guest, time.Duration(bg))
		sum := a.Plus(b)
		if sum.Sub(b) != a {
			return false
		}
		var catSum time.Duration
		for _, c := range Categories() {
			catSum += sum.Of(c)
		}
		return catSum == sum.Total()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEntryIsLive(t *testing.T) {
	a := New()
	u := a.Entry("vm/x")
	if ents := a.Entities(); len(ents) != 1 || ents[0] != "vm/x" {
		t.Fatalf("Entities after Entry = %v, want [vm/x]", ents)
	}
	u.Add(Guest, time.Second)
	a.Record("vm/x", Guest, time.Second)
	if a.Entry("vm/x") != u || a.Usage("vm/x").Of(Guest) != 2*time.Second {
		t.Fatalf("Entry is not the record Record charges: %v", a.Usage("vm/x"))
	}
	epoch := a.Epoch()
	a.Reset()
	if a.Epoch() == epoch {
		t.Fatal("Reset did not move the epoch")
	}
	u.Add(Guest, time.Second) // a detached record bills nothing
	if a.Usage("vm/x").Total() != 0 || len(a.Entities()) != 0 {
		t.Fatalf("a pre-Reset entry still bills: %v", a.Usage("vm/x"))
	}
}
