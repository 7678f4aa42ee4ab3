package figures

import (
	"fmt"

	"nestless/internal/container"
	"nestless/internal/kube"
	"nestless/internal/netsim"
	"nestless/internal/report"
	"nestless/internal/scenario"
	"nestless/internal/sim"
)

// bootChunk is the number of boots sharing one node scenario. The boot
// experiment is partitioned into fixed-size chunks regardless of worker
// count: chunk c always covers runs [c*bootChunk, ...) on a scenario
// seeded seed+c, so the sample set is a pure function of (seed, runs)
// and parallel execution cannot change it.
const bootChunk = 10

// BootSamples measures container start-up the way the paper defines it
// (§5.2.4): "the duration between ordering Docker to create the
// container, and the container sending a message through a TCP socket".
// It runs `runs` boots per solution (the paper uses 100), dialing a
// host-side listener from inside each new pod, and returns the per-run
// durations in seconds. Boots are grouped into bootChunk-sized chunks,
// each on a fresh node; chunks fan out under o.Workers and merge in
// chunk order.
func BootSamples(o Opts, mode scenario.Mode, runs int) *sim.Series {
	nChunks := (runs + bootChunk - 1) / bootChunk
	chunks := make([]*sim.Series, nChunks)
	o.fan(nChunks, func(c int, o Opts) {
		n := bootChunk
		if rem := runs - c*bootChunk; rem < n {
			n = rem
		}
		chunks[c] = bootChunkSamples(o, mode, c, n)
	})
	var samples sim.Series
	for _, ch := range chunks {
		for _, v := range ch.Samples() {
			samples.Add(v)
		}
	}
	return &samples
}

// bootChunkSamples boots n pods back-to-back on one fresh node and
// times each. The chunk index salts the seed so chunks differ the way
// back-to-back runs on one long-lived node used to.
func bootChunkSamples(o Opts, mode scenario.Mode, chunk, n int) *sim.Series {
	o.Rec.BeginRun(fmt.Sprintf("boot-%s-c%d", mode, chunk))
	sc, err := scenario.NewServerClientCfg(o.cfg(o.Seed+int64(chunk)), scenario.ModeNoCont)
	if err != nil {
		panic(err)
	}
	// Real boot timing for this experiment (scenarios default to the
	// fast profile for the traffic benchmarks).
	node := sc.Cluster.Nodes()[0]
	setBootProfile(node, container.DefaultBootProfile())

	// Host-side readiness listener.
	const readyPort = 19000
	ready := make(map[uint64]bool)
	if _, err := sc.Host.NS.ListenStream(readyPort, func(c *netsim.StreamConn) {
		c.OnMessage = func(_ int, app interface{}, _ sim.Time) {
			if id, ok := app.(uint64); ok {
				ready[id] = true
			}
		}
	}); err != nil {
		panic(err)
	}

	var samples sim.Series
	for run := 0; run < n; run++ {
		name := fmt.Sprintf("boot-%s-%d-%d", mode, chunk, run)
		started := sc.Eng.Now()
		id := uint64(run + 1)

		spec := kube.PodSpec{
			Name:       name,
			Containers: []kube.ContainerSpec{{Name: "app", Image: "app", CPU: 0.05, MemMB: 32}},
		}
		if mode == scenario.ModeBrFusion {
			spec.Network = "brfusion"
		}
		var finished sim.Time
		sc.Cluster.Deploy(spec, func(pod *kube.Pod, err error) {
			if err != nil {
				panic(err)
			}
			// Entrypoint is up: speak TCP through the pod's network.
			ns := pod.Parts[0].Sandbox.NS
			conn := ns.DialStream(scenario.HostGateway, readyPort, nil)
			conn.OnMessage = nil
			conn.SendMessage(16, id)
		})
		// Run until the readiness message lands.
		sc.Eng.RunWhile(func() bool { return !ready[id] })
		if !ready[id] {
			panic("figures: boot readiness message never arrived")
		}
		finished = sc.Eng.Now()
		samples.AddDuration(finished - started)
		// Tear down to keep the node empty for the next run.
		if err := sc.Cluster.Delete(name); err != nil {
			panic(err)
		}
		sc.Eng.Run()
	}
	return &samples
}

// Fig8 reproduces the container start-up comparison (§5.2.4): summary
// statistics plus a CDF table for NAT (vanilla Docker) and BrFusion,
// over the paper's 100 boots per solution (20 under Quick).
func Fig8(o Opts) (stats, cdf *report.Table) {
	runs := 100
	if o.Quick {
		runs = 20
	}
	var nat, brf *sim.Series
	// The two solutions are themselves independent; split the worker
	// budget rather than serializing one whole solution after the other.
	o.fan(2, func(i int, sub Opts) {
		if o.Workers > 1 {
			sub.Workers = (o.Workers + 1) / 2
		}
		if i == 0 {
			nat = BootSamples(sub, scenario.ModeNAT, runs)
		} else {
			brf = BootSamples(sub, scenario.ModeBrFusion, runs)
		}
	})

	stats = report.New("Fig. 8b — container start-up statistics (ms)",
		"solution", "min", "p25", "median", "p75", "max", "mean", "stddev")
	for _, row := range []struct {
		name string
		s    *sim.Series
	}{{"nat", nat}, {"brfusion", brf}} {
		ms := func(v float64) float64 { return v * 1e3 }
		stats.AddRow(row.name,
			ms(row.s.Min()), ms(row.s.Percentile(25)), ms(row.s.Median()),
			ms(row.s.Percentile(75)), ms(row.s.Max()), ms(row.s.Mean()), ms(row.s.Stddev()))
	}

	cdf = report.New("Fig. 8a — start-up time CDF (ms)",
		"fraction", "nat_ms", "brfusion_ms")
	steps := 20
	for i := 1; i <= steps; i++ {
		p := float64(i) / float64(steps) * 100
		cdf.AddRow(p/100, nat.Percentile(p)*1e3, brf.Percentile(p)*1e3)
	}
	return stats, cdf
}

// setBootProfile swaps the node engine's boot profile. Engines embed the
// profile at construction; the scenario builder exposes the node so the
// boot experiment can opt into realistic timings.
func setBootProfile(node *kube.Node, p container.BootProfile) {
	node.Engine.SetBootProfile(p)
}
