package faults

import (
	"strings"
	"testing"
	"time"

	"nestless/internal/sim"
	"nestless/internal/telemetry"
)

func TestParseSpecRoundTrip(t *testing.T) {
	specs := []string{
		"qmp/device_add:fail",
		"qmp/device_add:fail:p=0.5",
		"frame/*:drop:p=0.01",
		"frame/vm1/eth0:corrupt:n=3",
		"hostlo/h0:stall:d=10ms",
		"qmp/netdev_add:delay:n=2:after=1:d=5ms",
		"agent/*:crash:n=1",
		"*:fail:p=0.25",
		"qmp/device_add:fail:n=2;frame/*:drop:p=0.01;agent/web:crash:n=1",
		"boot/rootfs-mount:fail, qmp/hostlo_create:dup",
	}
	for _, spec := range specs {
		s, err := ParseSpec(spec)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", spec, err)
			continue
		}
		canon := s.String()
		s2, err := ParseSpec(canon)
		if err != nil {
			t.Errorf("reparse of canonical %q: %v", canon, err)
			continue
		}
		if got := s2.String(); got != canon {
			t.Errorf("round trip of %q: %q != %q", spec, got, canon)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		"",
		" ; , ",
		"qmp/device_add",               // no action
		"qmp/device_add:explode",       // unknown action
		"qmp/device_add:fail:p=0",      // p out of range
		"qmp/device_add:fail:p=1.5",    // p out of range
		"qmp/device_add:fail:p=x",      // p not a number
		"qmp/device_add:fail:n=0",      // n must be positive
		"qmp/device_add:fail:after=-1", // after must be non-negative
		"qmp/device_add:fail:d=5ms",    // d only for delay/stall
		"qmp/device_add:delay",         // delay needs d
		"hostlo/h0:stall",              // stall needs d
		"qmp/device_add:delay:d=-1ms",  // negative duration
		"qmp/device_add:fail:bogus=1",  // unknown parameter
		"qmp/device_add:fail:p",        // not key=value
		":fail",                        // empty point
		"qmp/dev ice:fail",             // invalid character
		"qmp/*add:fail",                // '*' not trailing
	}
	for _, spec := range bad {
		if s, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) accepted: %v", spec, s)
		}
	}
}

func TestRuleCanonicalString(t *testing.T) {
	r := Rule{Point: "qmp/device_add", Act: ActFail, Prob: 1}
	if got := r.String(); got != "qmp/device_add:fail" {
		t.Errorf("p=1 not omitted: %q", got)
	}
	r = Rule{Point: "hostlo/h0", Act: ActStall, Prob: 0.5, Count: 2, After: 1, Delay: 10 * time.Millisecond}
	want := "hostlo/h0:stall:p=0.5:n=2:after=1:d=10ms"
	if got := r.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestMatches(t *testing.T) {
	cases := []struct {
		pattern, point string
		want           bool
	}{
		{"*", "anything/at/all", true},
		{"qmp/device_add", "qmp/device_add", true},
		{"qmp/device_add", "qmp/device_del", false},
		{"qmp/*", "qmp/device_add", true},
		{"qmp/*", "frame/vm1/eth0", false},
		{"frame/vm1/*", "frame/vm1/eth0", true},
		{"frame/vm1/*", "frame/vm2/eth0", false},
	}
	for _, c := range cases {
		if got := matches(c.pattern, c.point); got != c.want {
			t.Errorf("matches(%q, %q) = %v, want %v", c.pattern, c.point, got, c.want)
		}
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var i *Injector
	if err := i.OpFail("qmp/device_add"); err != nil {
		t.Error("nil injector failed an op")
	}
	if d := i.OpDelay("qmp/device_add"); d != 0 {
		t.Error("nil injector delayed an op")
	}
	if f := i.FrameFate("frame/vm1/eth0"); f != FatePass {
		t.Error("nil injector touched a frame")
	}
	if d := i.Stall("hostlo/h0"); d != 0 {
		t.Error("nil injector stalled a queue")
	}
	if i.Crash("agent/web") {
		t.Error("nil injector crashed an agent")
	}
	if i.Total() != 0 || i.Counts() != nil || i.CountKeys() != nil {
		t.Error("nil injector reports activity")
	}
}

func TestNewEmptyScheduleYieldsNil(t *testing.T) {
	eng := sim.New(1)
	if New(eng, nil, nil) != nil {
		t.Error("nil schedule built an injector")
	}
	if New(eng, &Schedule{}, nil) != nil {
		t.Error("empty schedule built an injector")
	}
}

func mustInjector(t *testing.T, seed int64, spec string) *Injector {
	t.Helper()
	s, err := ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return New(sim.New(seed), s, nil)
}

func TestAfterAndCountGating(t *testing.T) {
	inj := mustInjector(t, 1, "qmp/device_add:fail:after=2:n=2")
	var fired []bool
	for h := 0; h < 6; h++ {
		fired = append(fired, inj.OpFail("qmp/device_add") != nil)
	}
	want := []bool{false, false, true, true, false, false}
	for h := range want {
		if fired[h] != want[h] {
			t.Fatalf("hit %d fired=%v, want %v (all: %v)", h+1, fired[h], want[h], fired)
		}
	}
	if inj.Total() != 2 {
		t.Errorf("Total = %d, want 2", inj.Total())
	}
}

func TestProbabilityGatingIsDeterministic(t *testing.T) {
	roll := func(seed int64) []bool {
		inj := mustInjector(t, seed, "frame/*:drop:p=0.5")
		var out []bool
		for h := 0; h < 64; h++ {
			out = append(out, inj.FrameFate("frame/vm1/eth0") == FateDrop)
		}
		return out
	}
	a, b := roll(7), roll(7)
	fires := 0
	for h := range a {
		if a[h] != b[h] {
			t.Fatalf("same seed diverged at hit %d", h+1)
		}
		if a[h] {
			fires++
		}
	}
	// p=0.5 over 64 hits: both all-fire and no-fire would mean the
	// probability gate is broken.
	if fires == 0 || fires == 64 {
		t.Errorf("p=0.5 fired %d/64 times", fires)
	}
	// A different seed should (for this spec) produce a different
	// sequence.
	c := roll(8)
	same := true
	for h := range a {
		if a[h] != c[h] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical fault sequences")
	}
}

func TestActionDispatch(t *testing.T) {
	inj := mustInjector(t, 1,
		"frame/a:drop;frame/b:dup;frame/c:corrupt;hostlo/h0:stall:d=7ms;agent/web:crash;qmp/x:delay:d=3ms")
	if f := inj.FrameFate("frame/a"); f != FateDrop {
		t.Errorf("drop rule gave %v", f)
	}
	if f := inj.FrameFate("frame/b"); f != FateDup {
		t.Errorf("dup rule gave %v", f)
	}
	if f := inj.FrameFate("frame/c"); f != FateCorrupt {
		t.Errorf("corrupt rule gave %v", f)
	}
	if d := inj.Stall("hostlo/h0"); d != 7*time.Millisecond {
		t.Errorf("stall gave %v", d)
	}
	if !inj.Crash("agent/web") {
		t.Error("crash rule did not fire")
	}
	if d := inj.OpDelay("qmp/x"); d != 3*time.Millisecond {
		t.Errorf("delay gave %v", d)
	}
	// Cross-kind isolation: a frame rule never fails an op and vice
	// versa.
	if err := inj.OpFail("frame/a"); err != nil {
		t.Error("drop rule failed a control-plane op")
	}
	if f := inj.FrameFate("agent/web"); f != FatePass {
		t.Error("crash rule decided a frame fate")
	}
}

func TestCountsAndTelemetry(t *testing.T) {
	eng := sim.New(1)
	s, err := ParseSpec("qmp/device_add:fail:n=2;agent/web:crash:n=1")
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.New()
	inj := New(eng, s, rec)
	inj.OpFail("qmp/device_add")
	inj.OpFail("qmp/device_add")
	inj.OpFail("qmp/device_add") // budget exhausted, no fire
	inj.Crash("agent/web")

	counts := inj.Counts()
	if counts["qmp/device_add:fail"] != 2 || counts["agent/web:crash"] != 1 {
		t.Fatalf("Counts = %v", counts)
	}
	if inj.Total() != 3 {
		t.Errorf("Total = %d, want 3", inj.Total())
	}
	keys := inj.CountKeys()
	if len(keys) != 2 || keys[0] != "agent/web:crash" || keys[1] != "qmp/device_add:fail" {
		t.Errorf("CountKeys = %v", keys)
	}
	if got := rec.Metrics().Counter("faults/qmp/device_add:fail").Value(); got != 2 {
		t.Errorf("fault counter = %v, want 2", got)
	}
	// Counts returns a copy, not the live map.
	counts["qmp/device_add:fail"] = 99
	if inj.Counts()["qmp/device_add:fail"] != 2 {
		t.Error("Counts exposed the injector's live map")
	}
}

func TestBackoffSchedule(t *testing.T) {
	p := DefaultRetryPolicy() // base 5ms, max 80ms
	want := []time.Duration{5, 10, 20, 40, 80, 80}
	for n := 1; n <= len(want); n++ {
		if got := p.backoff(n); got != want[n-1]*time.Millisecond {
			t.Errorf("backoff(%d) = %v, want %v", n, got, want[n-1]*time.Millisecond)
		}
	}
	var zero RetryPolicy
	if zero.backoff(1) <= 0 {
		t.Error("zero policy backoff not positive")
	}
}

func TestRetryFirstTrySuccess(t *testing.T) {
	eng := sim.New(1)
	pol := DefaultRetryPolicy()
	pol.Timeout = 0 // fault-free call sites disarm the watchdog
	var gotV, gotAttempts int
	var gotErr error
	Retry(eng, pol, func(attempt int, complete func(int, error)) {
		complete(42, nil)
	}, nil, func(v, attempts int, err error) {
		gotV, gotAttempts, gotErr = v, attempts, err
	})
	if gotV != 42 || gotAttempts != 1 || gotErr != nil {
		t.Fatalf("done(%d, %d, %v)", gotV, gotAttempts, gotErr)
	}
	// With the watchdog disarmed and a synchronous success, the loop
	// must leave nothing behind on the engine: a fault-free world stays
	// event-for-event identical to one without retry wrappers.
	eng.Run()
	if eng.Now() != 0 {
		t.Fatalf("retry left timer events behind; clock advanced to %v", eng.Now())
	}
}

func TestRetryBackoffThenSuccess(t *testing.T) {
	eng := sim.New(1)
	pol := DefaultRetryPolicy()
	pol.Timeout = 0
	var starts []sim.Time
	var retries int
	pol.OnRetry = func(attempt int, err error) { retries++ }
	var done bool
	Retry(eng, pol, func(attempt int, complete func(int, error)) {
		starts = append(starts, eng.Now())
		if attempt < 3 {
			complete(0, errTest)
			return
		}
		complete(attempt, nil)
	}, nil, func(v, attempts int, err error) {
		done = true
		if v != 3 || attempts != 3 || err != nil {
			t.Errorf("done(%d, %d, %v)", v, attempts, err)
		}
	})
	eng.Run()
	if !done {
		t.Fatal("retry never completed")
	}
	if retries != 2 {
		t.Errorf("OnRetry called %d times, want 2", retries)
	}
	// Attempt 1 at t=0, attempt 2 after 5ms backoff, attempt 3 after a
	// further 10ms.
	wantStarts := []time.Duration{0, 5 * time.Millisecond, 15 * time.Millisecond}
	for i, w := range wantStarts {
		if i >= len(starts) || time.Duration(starts[i]) != w {
			t.Fatalf("attempt starts %v, want %v", starts, wantStarts)
		}
	}
}

func TestRetryTerminalFailure(t *testing.T) {
	eng := sim.New(1)
	pol := DefaultRetryPolicy()
	pol.Timeout = 0
	attempts := 0
	var gotAttempts int
	var gotErr error
	Retry(eng, pol, func(attempt int, complete func(int, error)) {
		attempts++
		complete(0, errTest)
	}, nil, func(_ int, a int, err error) {
		gotAttempts, gotErr = a, err
	})
	eng.Run()
	if attempts != pol.MaxAttempts {
		t.Errorf("op ran %d times, want %d", attempts, pol.MaxAttempts)
	}
	if gotAttempts != pol.MaxAttempts || gotErr == nil {
		t.Errorf("done(%d, %v), want terminal error at attempt %d", gotAttempts, gotErr, pol.MaxAttempts)
	}
}

func TestRetryWatchdogRoutesLateCompletion(t *testing.T) {
	eng := sim.New(1)
	pol := DefaultRetryPolicy()
	pol.Timeout = 50 * time.Millisecond
	var late []int
	var doneV, doneAttempts int
	var doneErr error
	Retry(eng, pol, func(attempt int, complete func(int, error)) {
		if attempt == 1 {
			// Slower than the watchdog: the loop gives up on this
			// attempt, then its stray success arrives.
			eng.After(100*time.Millisecond, func() { complete(111, nil) })
			return
		}
		complete(attempt, nil)
	}, func(v int, err error) {
		late = append(late, v)
		if err != nil {
			t.Errorf("late completion carried error %v", err)
		}
	}, func(v, attempts int, err error) {
		doneV, doneAttempts, doneErr = v, attempts, err
	})
	eng.Run()
	if doneErr != nil || doneV != 2 || doneAttempts != 2 {
		t.Fatalf("done(%d, %d, %v), want success on attempt 2", doneV, doneAttempts, doneErr)
	}
	if len(late) != 1 || late[0] != 111 {
		t.Fatalf("late completions %v, want the stray attempt-1 success", late)
	}
}

func TestInjectedFailureMessage(t *testing.T) {
	inj := mustInjector(t, 1, "qmp/device_add:fail")
	err := inj.OpFail("qmp/device_add")
	if err == nil || !strings.Contains(err.Error(), "injected failure at qmp/device_add") {
		t.Fatalf("OpFail error = %v", err)
	}
}

var errTest = errTestType{}

type errTestType struct{}

func (errTestType) Error() string { return "transient test error" }

func TestMerge(t *testing.T) {
	a, err := ParseSpec("qmp/device_add:fail:p=0.5")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseSpec("spot/*:crash:p=0.02;frame/*:drop:p=0.01")
	if err != nil {
		t.Fatal(err)
	}
	if Merge(nil, nil) != nil {
		t.Fatal("Merge(nil, nil) != nil")
	}
	if got := Merge(a, nil).String(); got != a.String() {
		t.Fatalf("Merge(a, nil) = %q, want %q", got, a.String())
	}
	if got := Merge(nil, b).String(); got != b.String() {
		t.Fatalf("Merge(nil, b) = %q, want %q", got, b.String())
	}
	m := Merge(a, b)
	want := a.String() + ";" + b.String()
	if got := m.String(); got != want {
		t.Fatalf("Merge(a, b) = %q, want %q", got, want)
	}
	// The merge is a copy: mutating it must not alias the inputs.
	m.Rules[0].Point = "mutated"
	if a.Rules[0].Point == "mutated" {
		t.Fatal("Merge aliased input rule slice")
	}
	// Single-sided merges copy too.
	m2 := Merge(a, nil)
	m2.Rules[0].Point = "mutated"
	if a.Rules[0].Point == "mutated" {
		t.Fatal("Merge(a, nil) aliased input rule slice")
	}
}

func TestHasPointPrefix(t *testing.T) {
	var nilSched *Schedule
	if nilSched.HasPointPrefix("spot/") {
		t.Fatal("nil schedule claims a prefix")
	}
	cases := []struct {
		spec   string
		prefix string
		want   bool
	}{
		{"spot/node-3:crash", "spot/", true},
		{"spot/*:crash:p=0.02", "spot/", true},
		{"sp*:crash", "spot/", true},    // wildcard shorter than prefix
		{"*:fail:p=0.1", "spot/", true}, // bare star covers everything
		{"zone/*:crash", "spot/", false},
		{"qmp/device_add:fail", "spot/", false},
		{"spotless:fail", "spot", true}, // prefix match is textual
		{"zone/us-east-1a:crash:n=1", "zone/", true},
	}
	for _, tc := range cases {
		s, err := ParseSpec(tc.spec)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", tc.spec, err)
		}
		if got := s.HasPointPrefix(tc.prefix); got != tc.want {
			t.Errorf("HasPointPrefix(%q, %q) = %v, want %v", tc.spec, tc.prefix, got, tc.want)
		}
	}
}
