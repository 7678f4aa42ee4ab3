package trace

import (
	"fmt"
	"hash/fnv"
	"testing"
	"testing/quick"
	"time"
)

// popHash digests a population's shape (IDs and requests, not churn
// timing) so tests can pin byte-identity across generator changes.
func popHash(users []User) uint64 {
	h := fnv.New64a()
	for _, u := range users {
		fmt.Fprintf(h, "u%d:", u.ID)
		for _, p := range u.Pods {
			fmt.Fprintf(h, "%s[", p.ID)
			for _, c := range p.Containers {
				fmt.Fprintf(h, "%.4f,%.4f;", c.CPU, c.Mem)
			}
			fmt.Fprint(h, "]")
		}
	}
	return h.Sum64()
}

// TestGenerateStaticPinned pins the churn-disabled generator to the
// exact populations it produced before churn existed: adding the
// arrival/lifetime sampler must not perturb a single request.
func TestGenerateStaticPinned(t *testing.T) {
	golden := map[int64]uint64{
		1:  0x9d0f9a2559d9befc,
		42: 0x9f31b546e741a928,
	}
	for seed, want := range golden {
		users := Generate(DefaultConfig(seed))
		if got := popHash(users); got != want {
			t.Errorf("seed %d: population hash %#x, want %#x — the static generator output changed", seed, got, want)
		}
		for _, u := range users {
			for _, p := range u.Pods {
				if p.Arrival != 0 || p.Lifetime != 0 {
					t.Fatalf("seed %d: churn disabled but pod %s has Arrival=%v Lifetime=%v", seed, p.ID, p.Arrival, p.Lifetime)
				}
			}
		}
	}
}

// TestGenerateChurnPreservesShape: enabling churn stamps timing only —
// the pod shapes stay byte-identical to the static population.
func TestGenerateChurnPreservesShape(t *testing.T) {
	cfg := DefaultConfig(42)
	cfg.MeanArrivalGap = 2 * time.Minute
	cfg.MeanLifetime = time.Hour
	churned := Generate(cfg)
	if got, want := popHash(churned), uint64(0x9f31b546e741a928); got != want {
		t.Fatalf("churn perturbed the population shape: hash %#x, want %#x", got, want)
	}
	arrivals, lifetimes := 0, 0
	for _, u := range churned {
		var prev time.Duration
		for _, p := range u.Pods {
			if p.Arrival < prev {
				t.Fatalf("user %d: arrivals not monotone (%v after %v)", u.ID, p.Arrival, prev)
			}
			if p.Arrival <= 0 {
				t.Fatalf("user %d pod %s: non-positive arrival %v", u.ID, p.ID, p.Arrival)
			}
			if p.Lifetime <= 0 {
				t.Fatalf("user %d pod %s: non-positive lifetime %v", u.ID, p.ID, p.Lifetime)
			}
			prev = p.Arrival
			arrivals++
			lifetimes++
		}
	}
	if arrivals == 0 || lifetimes == 0 {
		t.Fatal("churn produced no timing samples")
	}
	// Same config, same timing: the churn sampler is seeded.
	again := Generate(cfg)
	for i := range churned {
		for j := range churned[i].Pods {
			a, b := churned[i].Pods[j], again[i].Pods[j]
			if a.Arrival != b.Arrival || a.Lifetime != b.Lifetime {
				t.Fatalf("churn timing not deterministic at user %d pod %d", i, j)
			}
		}
	}
}

// TestGenerateChurnHeavyTail: the lifetime distribution must be heavy-
// tailed — max far above mean — and the realized mean near the knob.
func TestGenerateChurnHeavyTail(t *testing.T) {
	cfg := DefaultConfig(7)
	cfg.MeanLifetime = time.Hour
	var sum, maxL time.Duration
	n := 0
	for _, u := range Generate(cfg) {
		for _, p := range u.Pods {
			sum += p.Lifetime
			if p.Lifetime > maxL {
				maxL = p.Lifetime
			}
			n++
		}
	}
	mean := sum / time.Duration(n)
	if mean < cfg.MeanLifetime/3 || mean > 3*cfg.MeanLifetime {
		t.Errorf("realized mean lifetime %v far from knob %v", mean, cfg.MeanLifetime)
	}
	if maxL < 5*mean {
		t.Errorf("tail too light: max %v < 5×mean %v", maxL, mean)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(DefaultConfig(1))
	b := Generate(DefaultConfig(1))
	if len(a) != len(b) {
		t.Fatal("sizes differ")
	}
	for i := range a {
		if len(a[i].Pods) != len(b[i].Pods) {
			t.Fatalf("user %d pod counts differ", i)
		}
		for j := range a[i].Pods {
			for k := range a[i].Pods[j].Containers {
				if a[i].Pods[j].Containers[k] != b[i].Pods[j].Containers[k] {
					t.Fatal("same seed diverged")
				}
			}
		}
	}
	c := Generate(DefaultConfig(2))
	if len(c) == len(a) && len(c[0].Pods) == len(a[0].Pods) && c[0].Pods[0].TotalCPU() == a[0].Pods[0].TotalCPU() {
		t.Error("different seeds produced suspiciously identical output")
	}
}

func TestGeneratePopulationShape(t *testing.T) {
	users := Generate(DefaultConfig(42))
	if len(users) != 492 {
		t.Fatalf("users = %d, want 492", len(users))
	}
	var pods, containers int
	var cpuSum, maxPodCPU float64
	for _, u := range users {
		pods += len(u.Pods)
		for _, p := range u.Pods {
			containers += len(p.Containers)
			c := p.TotalCPU()
			cpuSum += c
			maxPodCPU = max(maxPodCPU, c)
		}
	}
	if pods < 492 {
		t.Fatalf("pods = %d, want at least one per user", pods)
	}
	if containers < pods {
		t.Fatal("containers < pods")
	}
	// Heavy-tailed: mean pod far below max pod.
	if mean := cpuSum / float64(pods); maxPodCPU < 4*mean {
		t.Errorf("tail too light: max=%.3f mean=%.3f", maxPodCPU, mean)
	}
}

// Property: every pod fits the largest machine (whole-pod placement must
// be feasible), and every request is positive.
func TestGenerateFitsLargestMachineProperty(t *testing.T) {
	prop := func(seed int64) bool {
		cfg := DefaultConfig(seed)
		cfg.Users = 40
		for _, u := range Generate(cfg) {
			for _, p := range u.Pods {
				if p.TotalCPU() > 1.0 || p.TotalMem() > 1.0 {
					return false
				}
				for _, c := range p.Containers {
					if c.CPU <= 0 || c.Mem <= 0 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPodTotals(t *testing.T) {
	p := Pod{Containers: []Container{{CPU: 0.1, Mem: 0.2}, {CPU: 0.3, Mem: 0.1}}}
	if p.TotalCPU() != 0.4 {
		t.Fatalf("TotalCPU = %v", p.TotalCPU())
	}
	if got := p.TotalMem(); got < 0.2999 || got > 0.3001 {
		t.Fatalf("TotalMem = %v", got)
	}
}
