package netsim

import (
	"slices"
	"testing"
	"time"

	"nestless/internal/cpuacct"
)

// TestBillToAcrossReset: a billing function caches its accountant
// entries on the first charge, so a Reset must not leave it charging
// detached records. Bill, Reset, bill again through the same function:
// only the second charge shows, on both the entity and its guest view.
func TestBillToAcrossReset(t *testing.T) {
	acct := cpuacct.New()
	bill := BillTo(acct, "app/x", "vm/x")
	if got := acct.Entities(); len(got) != 0 {
		t.Fatalf("Entities before any charge = %v, want none", got)
	}
	bill(cpuacct.Usr, 3*time.Microsecond)
	bill(cpuacct.Sys, 2*time.Microsecond)
	if u := acct.Usage("app/x"); u.Of(cpuacct.Usr) != 3*time.Microsecond || u.Of(cpuacct.Sys) != 2*time.Microsecond {
		t.Fatalf("app/x before Reset = %v", u)
	}
	if u := acct.Usage("vm/x"); u.Of(cpuacct.Guest) != 5*time.Microsecond {
		t.Fatalf("vm/x before Reset = %v", u)
	}

	acct.Reset()
	if got := acct.Entities(); len(got) != 0 {
		t.Fatalf("Entities after Reset = %v, want none", got)
	}
	bill(cpuacct.Soft, 7*time.Microsecond)
	want := []string{"app/x", "vm/x"}
	if got := acct.Entities(); !slices.Equal(got, want) {
		t.Fatalf("Entities after Reset and a charge = %v, want %v", got, want)
	}
	if u := acct.Usage("app/x"); u.Total() != 7*time.Microsecond || u.Of(cpuacct.Soft) != 7*time.Microsecond {
		t.Fatalf("app/x after Reset = %v, want soft=7µs only", u)
	}
	if u := acct.Usage("vm/x"); u.Total() != 7*time.Microsecond || u.Of(cpuacct.Guest) != 7*time.Microsecond {
		t.Fatalf("vm/x after Reset = %v, want guest=7µs only", u)
	}
}

// TestBillToMatchesRecord: the cached path bills exactly what Record
// would, entity listing included.
func TestBillToMatchesRecord(t *testing.T) {
	cached, direct := cpuacct.New(), cpuacct.New()
	bills := []func(cpuacct.Category, time.Duration){
		BillTo(cached, "host", ""),
		BillTo(cached, "app/a", "vm/a"),
		BillTo(cached, "app/b", "vm/a"),
	}
	names := [][2]string{{"host", ""}, {"app/a", "vm/a"}, {"app/b", "vm/a"}}
	for i := range 60 {
		k, cat, d := i%3, cpuacct.Category(i%4), time.Duration(i)*time.Nanosecond
		if k == 2 && i < 30 {
			continue // app/b first charges halfway through
		}
		bills[k](cat, d)
		direct.Record(names[k][0], cat, d)
		if names[k][1] != "" {
			direct.Record(names[k][1], cpuacct.Guest, d)
		}
		if !slices.Equal(cached.Entities(), direct.Entities()) {
			t.Fatalf("charge %d: Entities %v, Record gives %v", i, cached.Entities(), direct.Entities())
		}
	}
	for _, e := range direct.Entities() {
		if cached.Usage(e) != direct.Usage(e) {
			t.Fatalf("%s: %v, Record gives %v", e, cached.Usage(e), direct.Usage(e))
		}
	}
}
