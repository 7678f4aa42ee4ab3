package cluster

import (
	"fmt"
	"time"

	"nestless/internal/telemetry"
	"nestless/internal/trace"
)

// Population fan-out: the lifecycle analog of cloudsim.SimulateParallel.
// Each user is an independent world simulated twice — once per policy —
// so Kubernetes and Hostlo see the identical arrival/lifetime/fault
// sequence and the comparison isolates the placement regime.

// UserLifecycle holds one user's pair of lifecycle runs.
type UserLifecycle struct {
	UserID int
	Kube   Result
	Hostlo Result
}

// SavingsRel is the relative saving of Hostlo's cost integral over the
// horizon (0 when the Kubernetes run cost nothing).
func (u UserLifecycle) SavingsRel() float64 {
	if u.Kube.CostDollars <= 0 {
		return 0
	}
	return (u.Kube.CostDollars - u.Hostlo.CostDollars) / u.Kube.CostDollars
}

// userSeedStride decorrelates per-user fault/injection streams; a large
// prime so consecutive user IDs land far apart in seed space.
const userSeedStride = 1_000_003

// SimulatePopulation runs every user's lifecycle under both policies,
// fanning out across workers. Results are merged by index, so any
// worker count produces byte-identical output. cfg supplies everything
// but the per-user workload and seed: user u runs with seed
// cfg.Seed + u.ID*userSeedStride and cfg.Pods replaced by the user's
// pods. With a telemetry recorder every (user, policy) run records on
// its own child, labeled user-<id>/kube or user-<id>/hostlo, appended
// in user order, so the recording is byte-identical at any worker
// count too.
func SimulatePopulation(users []trace.User, cfg Config, workers int) []UserLifecycle {
	// One job per (user, policy) run, Kubernetes first, so each run
	// records on its own child of cfg.Rec.
	runs := make([]Result, 2*len(users))
	telemetry.Fan(cfg.Rec, len(runs), workers, func(j int, rec *telemetry.Recorder) {
		u := users[j/2]
		ucfg := cfg
		ucfg.Seed = cfg.Seed + int64(u.ID)*userSeedStride
		ucfg.Pods = u.Pods
		label := "kube"
		ucfg.Policy = Kubernetes
		if j%2 == 1 {
			ucfg.Policy, label = Hostlo, "hostlo"
		}
		ucfg.Rec = rec
		rec.BeginRun(fmt.Sprintf("user-%d/%s", u.ID, label))
		runs[j] = Simulate(ucfg)
	})
	out := make([]UserLifecycle, len(users))
	for i, u := range users {
		out[i] = UserLifecycle{UserID: u.ID, Kube: runs[2*i], Hostlo: runs[2*i+1]}
	}
	return out
}

// Merge sums per-world (or per-user) results into one population
// view. Every counter and cost integral adds; TTSMean is recomputed
// exactly from the summed TTSSum; TTSMax is the max of maxes; the
// trajectories add pointwise. TTSP95 and FleetTypes do not compose
// across independent worlds and stay zero/nil — read them per run.
// Every run shares the horizon and so the sample timestamps; Merge
// panics on a trajectory length or timestamp mismatch rather than
// silently misaligning curves.
func Merge(runs []Result) Result {
	var m Result
	if len(runs) == 0 {
		return m
	}
	m.Policy = runs[0].Policy
	m.Samples = append([]Sample(nil), runs[0].Samples...)
	for ri, r := range runs {
		m.Arrived += r.Arrived
		m.BeyondHorizon += r.BeyondHorizon
		m.Scheduled += r.Scheduled
		m.Departed += r.Departed
		m.Running += r.Running
		m.StillPending += r.StillPending
		m.Failed += r.Failed
		m.Displaced += r.Displaced
		m.Reschedules += r.Reschedules
		m.Kills += r.Kills
		m.TransferredIn += r.TransferredIn
		m.TransferredOut += r.TransferredOut
		m.Adopted += r.Adopted
		m.ScaleUps += r.ScaleUps
		m.ScaleDowns += r.ScaleDowns
		m.ProvisionRetries += r.ProvisionRetries
		m.OptimizerRuns += r.OptimizerRuns
		m.OptimizerFull += r.OptimizerFull
		m.OptimizerMoves += r.OptimizerMoves
		m.OptimizerGroups += r.OptimizerGroups
		m.OptimizerCacheHits += r.OptimizerCacheHits
		m.OptimizerCacheMisses += r.OptimizerCacheMisses
		m.PeakNodes += r.PeakNodes
		m.FinalNodes += r.FinalNodes
		m.ReconcileRounds += r.ReconcileRounds
		m.ReconcileActions += r.ReconcileActions
		m.SpotProvisions += r.SpotProvisions
		m.SpotRevocations += r.SpotRevocations
		m.OnDemandFallbacks += r.OnDemandFallbacks
		m.ZoneKills += r.ZoneKills
		for i, v := range r.ZoneSpread {
			if i >= len(m.ZoneSpread) {
				m.ZoneSpread = append(m.ZoneSpread, 0)
			}
			m.ZoneSpread[i] += v
		}
		m.CostDollars += r.CostDollars
		m.FinalCostPerH += r.FinalCostPerH
		m.CostSpotDollars += r.CostSpotDollars
		m.CostOnDemandDollars += r.CostOnDemandDollars
		m.TTSSum += r.TTSSum
		if r.TTSMax > m.TTSMax {
			m.TTSMax = r.TTSMax
		}
		if ri == 0 {
			continue
		}
		if len(r.Samples) != len(m.Samples) {
			panic(fmt.Sprintf("cluster: trajectory length mismatch: %d vs %d", len(r.Samples), len(m.Samples)))
		}
		for i, s := range r.Samples {
			if s.T != m.Samples[i].T {
				panic(fmt.Sprintf("cluster: sample %d at %v vs %v", i, s.T, m.Samples[i].T))
			}
			m.Samples[i].CostPerH += s.CostPerH
			m.Samples[i].Pending += s.Pending
			m.Samples[i].Nodes += s.Nodes
			m.Samples[i].UsedCPU += s.UsedCPU
			m.Samples[i].CapCPU += s.CapCPU
		}
	}
	if m.Scheduled > 0 {
		m.TTSMean = m.TTSSum / time.Duration(m.Scheduled)
	}
	return m
}
