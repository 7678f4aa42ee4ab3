// Package trace generates synthetic cluster workloads with the shape of
// the Google cluster traces the paper's Hostlo simulation consumes (§5.3.1,
// [29]): users own jobs (pods) made of tasks (containers) whose CPU and
// memory requests are expressed relative to the largest machine, with
// heavy-tailed task counts and sizes — many tiny single-task jobs, a few
// wide or resource-hungry ones.
//
// The real 2011 trace is proprietary-formatted but publicly documented;
// this generator reproduces its documented marginals (task count and
// request-size tails) with a seeded deterministic sampler, which is what
// the packing experiment actually exercises.
//
// Three packages say "trace" and mean different things:
//
//   - trace (this package) GENERATES synthetic workloads in memory —
//     no files involved.
//   - ctrace READS recorded cluster-trace FILES (2011 task_events CSV
//     or 2019 instance_events JSON, gzipped or not) as a streaming
//     event source, and writes CSV back (cmd/ctracegen).
//   - telemetry WRITES Chrome trace-event dumps of a simulation run —
//     the -trace out.json flag on every cmd/ tool names that OUTPUT;
//     the replay INPUT flag is -replay.
package trace

import (
	"fmt"
	"time"

	"nestless/internal/sim"
)

// Container is one task: requests relative to the largest machine
// (1.0 = all 96 vCPUs / 384 GB of an m5.24xlarge).
type Container struct {
	CPU float64
	Mem float64
}

// Pod is one job: the co-scheduled set of containers, plus its churn
// timing when the generator's churn knobs are enabled. The zero timing
// (Arrival 0, Lifetime 0) is the static population: the pod is present
// at the start of the simulation and never departs.
type Pod struct {
	ID         string
	Containers []Container

	// Arrival is when the pod enters the cluster (virtual time since
	// simulation start). Zero = present at t=0.
	Arrival time.Duration
	// Lifetime is how long the pod runs once scheduled. Zero = forever.
	Lifetime time.Duration
}

// TotalCPU sums the pod's CPU requests.
func (p Pod) TotalCPU() float64 {
	var t float64
	for _, c := range p.Containers {
		t += c.CPU
	}
	return t
}

// TotalMem sums the pod's memory requests.
func (p Pod) TotalMem() float64 {
	var t float64
	for _, c := range p.Containers {
		t += c.Mem
	}
	return t
}

// User is one cloud tenant with their pods.
type User struct {
	ID   int
	Pods []Pod
}

// GenConfig parameterises the generator.
type GenConfig struct {
	Seed  int64
	Users int // the paper's simulation covers 492 users

	// MeanPodsPerUser shapes the per-user job count (geometric-ish).
	MeanPodsPerUser float64
	// HeavyUserFraction of users run chunky multi-container pods that
	// suffer VM-boundary fragmentation — the population Hostlo helps.
	HeavyUserFraction float64
	// WhaleFraction of users run very large fleets (hundreds of pods),
	// the trace's handful of dominant tenants; they produce the large
	// absolute savings the paper reports.
	WhaleFraction float64

	// Churn knobs. Both zero (the default) keeps the population static —
	// byte-identical to the generator without churn, because the timing
	// sampler draws from its own RNG stream and is never consulted.
	//
	// MeanArrivalGap staggers each user's pods over time as a seeded
	// Poisson process with this mean inter-arrival gap (first pod
	// included: arrivals start at one gap sample, not at zero).
	MeanArrivalGap time.Duration
	// MeanLifetime gives each pod a heavy-tailed (Pareto, α = 1.5)
	// lifetime with this mean; pods depart after running that long.
	MeanLifetime time.Duration
}

// Churn reports whether the config generates a dynamic population.
func (c GenConfig) Churn() bool {
	return c.MeanArrivalGap > 0 || c.MeanLifetime > 0
}

// DefaultConfig mirrors the paper's simulation scale.
func DefaultConfig(seed int64) GenConfig {
	return GenConfig{
		Seed:              seed,
		Users:             492,
		MeanPodsPerUser:   6,
		HeavyUserFraction: 0.06,
		WhaleFraction:     0.012,
	}
}

// Generate produces the user population. Deterministic per config.
func Generate(cfg GenConfig) []User {
	rng := sim.NewRand(cfg.Seed)
	users := make([]User, cfg.Users)
	for i := range users {
		heavy := rng.Float64() < cfg.HeavyUserFraction
		nPods := 1 + int(rng.Exp(cfg.MeanPodsPerUser-1))
		if nPods > 60 {
			nPods = 60
		}
		if rng.Float64() < cfg.WhaleFraction {
			heavy = true
			nPods = 150 + rng.Intn(250)
		}
		pods := make([]Pod, 0, nPods)
		for j := 0; j < nPods; j++ {
			pods = append(pods, genPod(rng, fmt.Sprintf("u%d-p%d", i, j), heavy))
		}
		users[i] = User{ID: i, Pods: pods}
	}
	if cfg.Churn() {
		sampleChurn(cfg, users)
	}
	return users
}

// churnSeedSalt decouples the timing stream from the shape stream: the
// churn sampler is seeded independently, so enabling churn changes
// arrival/lifetime fields only — the generated shapes stay byte-
// identical to the static population at the same seed.
const churnSeedSalt = 0x5f3759df

// sampleChurn stamps arrival times and lifetimes onto an already-shaped
// population. Arrivals are a per-user Poisson process (exponential
// gaps); lifetimes are Pareto with α = 1.5, whose mean is three times
// the scale parameter — the heavy tail the cluster traces document:
// most pods are short-lived, a few run essentially forever.
func sampleChurn(cfg GenConfig, users []User) {
	rng := sim.NewRand(cfg.Seed ^ churnSeedSalt)
	const alpha = 1.5
	for i := range users {
		var at time.Duration
		for j := range users[i].Pods {
			p := &users[i].Pods[j]
			if cfg.MeanArrivalGap > 0 {
				at += time.Duration(rng.Exp(float64(cfg.MeanArrivalGap)))
				p.Arrival = at
			}
			if cfg.MeanLifetime > 0 {
				xm := float64(cfg.MeanLifetime) * (alpha - 1) / alpha
				p.Lifetime = time.Duration(rng.Pareto(xm, alpha))
			}
		}
	}
}

// genPod samples one pod. Light pods mirror the trace's bulk: one to a
// few tiny tasks. Heavy pods are the wide/latency-insensitive services:
// several containers whose sum approaches or exceeds mid-size VMs, which
// is where whole-pod placement fragments resources.
func genPod(rng *sim.Rand, id string, heavy bool) Pod {
	var n int
	var cpuScale float64
	if heavy {
		n = 3 + rng.Intn(6) // 3..8 containers
		cpuScale = 0.045
	} else {
		n = 1 + rng.Intn(2) // 1..2 containers
		cpuScale = 0.004
	}
	ctrs := make([]Container, n)
	var sumCPU, sumMem float64
	for k := range ctrs {
		// Pareto tails as documented for the trace's request sizes.
		cpu := clamp(rng.Pareto(cpuScale, 1.6), 0.001, 0.5)
		mem := clamp(cpu*rng.Uniform(0.6, 1.8), 0.001, 0.5)
		ctrs[k] = Container{CPU: round4(cpu), Mem: round4(mem)}
		sumCPU += ctrs[k].CPU
		sumMem += ctrs[k].Mem
	}
	// A pod must fit the largest machine under whole-pod placement (as
	// every job in the source trace fits its biggest cell machines).
	if limit := 0.95; sumCPU > limit || sumMem > limit {
		scale := limit / max2(sumCPU, sumMem)
		for k := range ctrs {
			ctrs[k].CPU = round4(ctrs[k].CPU * scale)
			ctrs[k].Mem = round4(ctrs[k].Mem * scale)
		}
	}
	return Pod{ID: id, Containers: ctrs}
}

func max2(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func round4(v float64) float64 {
	return float64(int(v*10000+0.5)) / 10000
}
