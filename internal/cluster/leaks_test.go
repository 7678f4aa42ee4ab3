package cluster

import (
	"strings"
	"testing"
	"time"

	"nestless/internal/cloud"
	"nestless/internal/faults"
	"nestless/internal/trace"
)

// TestLeaksNamesBrokenBooks corrupts one book at a time in a finished
// spot world and requires Leaks to name the broken invariant: a
// fallback with no revocation behind it, a reschedule with no
// displacement, a spot dollar the total never booked.
func TestLeaksNamesBrokenBooks(t *testing.T) {
	cl, err := cloud.Resolve(cloud.Options{Spec: "gcp:n2", Zones: 3, SpotFrac: 0.6})
	sched, serr := faults.ParseSpec("spot/*:crash:p=0.05")
	if err != nil || serr != nil {
		t.Fatal(err, serr)
	}
	gcfg := trace.DefaultConfig(6)
	gcfg.Users, gcfg.MeanArrivalGap, gcfg.MeanLifetime = 8, 2*time.Minute, 45*time.Minute
	c := New(Config{
		Seed: 5, Pods: trace.Generate(gcfg)[5].Pods, Policy: Hostlo,
		Horizon: 6 * time.Hour, BootDelay: 45 * time.Second, Faults: sched,
		Catalog: cl.Catalog.Types, Zones: cl.Zones, ZoneNames: cl.ZoneNames,
		SpotFrac: cl.SpotFrac, SpotDiscount: cl.SpotDiscount,
	})
	if res := c.Run(); res.SpotRevocations == 0 || res.Displaced == 0 || res.CostSpotDollars == 0 {
		t.Fatalf("world exercises too little: %+v", res)
	}
	if leaks := c.Leaks(); len(leaks) != 0 {
		t.Fatalf("clean world leaks: %v", leaks)
	}
	for want, corrupt := range map[string]func(r *Result){
		"spot revocations": func(r *Result) { r.OnDemandFallbacks++ },
		"reschedules >":    func(r *Result) { r.Reschedules = r.Displaced + 1 },
		"cost split":       func(r *Result) { r.CostSpotDollars += 0.01 },
	} {
		saved := c.res
		corrupt(&c.res)
		leaks := c.Leaks()
		c.res = saved
		if len(leaks) != 1 || !strings.Contains(leaks[0], want) {
			t.Errorf("corrupted %q: Leaks reported %v", want, leaks)
		}
	}
}
