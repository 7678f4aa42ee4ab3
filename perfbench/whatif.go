package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nestless/internal/cluster"
	"nestless/internal/sim"
	"nestless/internal/snapshot"
)

// The whatif workload is a closed loop of nproc clients querying a
// snapshot.Service over its HTTP handler, in process, so JSON handling
// counts and loopback networking does not. The base world sits where
// Hostlo continuation cost rises steeply with the user count. It is the
// same world on every seed: worlds drawn from different seeds differ in
// size by enough to swamp a run-to-run comparison, so the workload seed
// draws the query stream (order and add-pods pods) instead.
const (
	whatifWorldSeed = defaultSeed
	whatifUsers     = 1000
	whatifHorizon   = 8 * time.Hour
	whatifSnapAt    = 4 * time.Hour
	whatifBoot      = 45 * time.Second
	whatifAddPods   = 50
	// whatifPodDraws is how many add-pods pod draws a run cycles
	// through, so its add-pods cost averages over draws instead of
	// resting on one.
	whatifPodDraws   = 8
	whatifKill       = 3
	whatifMinQueries = 200
	// whatifTracedReps is how many branches of each kind the traced run
	// continues.
	whatifTracedReps = 3
)

func whatifBase() snapshot.BaseConfig {
	return snapshot.BaseConfig{
		Seed:      whatifWorldSeed,
		Users:     whatifUsers,
		Policy:    cluster.Hostlo,
		Horizon:   whatifHorizon,
		SnapAt:    whatifSnapAt,
		BootDelay: whatifBoot,
	}
}

// whatifQuery is the query of one kind; add-pods draws its pods from
// podSeed.
func whatifQuery(kind string, podSeed int64) snapshot.Query {
	switch kind {
	case "add-pods":
		return snapshot.Query{Kind: kind, Pods: whatifAddPods, PodSeed: podSeed}
	case "switch-policy":
		return snapshot.Query{Kind: kind, Policy: "kubernetes"}
	case "kill-nodes":
		return snapshot.Query{Kind: kind, KillCount: whatifKill}
	}
	return snapshot.Query{Kind: kind}
}

// variant is one distinct query of the mix: add-pods comes in
// whatifPodDraws variants, one per pod draw.
type variant struct {
	key, kind string
	q         snapshot.Query
}

// whatifVariants lists the distinct queries of the workload seed.
func whatifVariants(seed int64) []variant {
	var vs []variant
	for _, kind := range whatifKinds {
		if kind != "add-pods" {
			vs = append(vs, variant{kind, kind, whatifQuery(kind, 0)})
			continue
		}
		for i := 0; i < whatifPodDraws; i++ {
			vs = append(vs, variant{fmt.Sprintf("add-pods-%d", i), kind, whatifQuery(kind, seed*whatifPodDraws+int64(i))})
		}
	}
	return vs
}

// variantOrder maps a kind schedule onto variants, cycling the add-pods
// occurrences through the pod draws.
func variantOrder(sched []string, vs []variant) []int {
	first := map[string]int{}
	for i := len(vs) - 1; i >= 0; i-- {
		first[vs[i].kind] = i
	}
	out := make([]int, len(sched))
	draw := 0
	for i, kind := range sched {
		out[i] = first[kind]
		if kind == "add-pods" {
			out[i] += draw % whatifPodDraws
			draw++
		}
	}
	return out
}

// whatifSchedule is the query order: n queries (rounded up to a whole
// number of rounds) in equal shares of every kind, shuffled by seed.
func whatifSchedule(seed int64, n int) []string {
	rounds := (n + len(whatifKinds) - 1) / len(whatifKinds)
	out := make([]string, 0, rounds*len(whatifKinds))
	for i := 0; i < rounds; i++ {
		out = append(out, whatifKinds...)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// whatifProbe times the workload's set-up (building the service), then
// answers every query variant once untimed. It returns the set-up
// seconds and the base digest; the base world does not depend on the
// seed.
func whatifProbe(seed int64, _ int) (float64, uint64, error) {
	t0 := time.Now()
	svc, err := snapshot.NewService(whatifBase())
	setupS := time.Since(t0).Seconds()
	if err != nil {
		return 0, 0, err
	}
	for _, v := range whatifVariants(seed) {
		if _, err := svc.Run(v.q); err != nil {
			return 0, 0, fmt.Errorf("%s: %w", v.key, err)
		}
	}
	return setupS, svc.BaseDigest(), nil
}

// whatifRefs answers every variant once, directly, before timing
// starts: the digests every later reply must repeat. They must equal
// the recorded ones; add-pods draws its pods from the workload seed, so
// its digests are recorded for the default seed only.
func whatifRefs(r *run, svc *snapshot.Service) (map[string]string, error) {
	refs := map[string]string{}
	base := fmt.Sprintf("%016x", svc.BaseDigest())
	for _, v := range whatifVariants(r.seed) {
		rep, err := svc.Run(v.q)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.key, err)
		}
		refs[v.key] = rep.Digest
		kind := v.kind
		var errs []error
		if len(rep.Leaks) > 0 {
			errs = append(errs, fmt.Errorf("whatif %s: leaks %v", v.key, rep.Leaks))
		}
		if kind == "baseline" && rep.Digest != base {
			errs = append(errs, fmt.Errorf("whatif baseline digest %s, base digest %s", rep.Digest, base))
		}
		if want := expectWhatif[v.key]; rep.Digest != want && (kind != "add-pods" || r.seed == defaultSeed) {
			errs = append(errs, fmt.Errorf("whatif %s digest %s, recorded %s", v.key, rep.Digest, want))
		}
		if kind == "baseline" && base != expectWhatif["base"] {
			errs = append(errs, fmt.Errorf("whatif base digest %s, recorded %s", base, expectWhatif["base"]))
		}
		r.op(errs...)
	}
	return refs, nil
}

// answer is one timed query.
type answer struct {
	v   variant
	ms  float64
	rep snapshot.Reply
	err error
}

// ask posts one query body to the handler and decodes the reply.
func ask(h http.Handler, body []byte) (snapshot.Reply, error) {
	req := httptest.NewRequest(http.MethodPost, "/whatif", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var rep snapshot.Reply
	if rec.Code != http.StatusOK {
		return rep, fmt.Errorf("HTTP %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		return rep, fmt.Errorf("decode reply: %w", err)
	}
	return rep, nil
}

// closedLoop runs nproc clients through the schedule until the deadline
// has passed and at least minQueries have completed.
func closedLoop(h http.Handler, seed int64, end time.Time, minQueries int) ([]answer, error) {
	vs := whatifVariants(seed)
	order := variantOrder(whatifSchedule(seed, 4096), vs)
	bodies := make([][]byte, len(vs))
	for i, v := range vs {
		b, err := json.Marshal(v.q)
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	clients := runtime.NumCPU()
	var next, done atomic.Int64
	per := make([][]answer, clients)
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(end) || done.Load() < int64(minQueries) {
				i := order[int(next.Add(1)-1)%len(order)]
				q0 := time.Now()
				rep, err := ask(h, bodies[i])
				per[c] = append(per[c], answer{v: vs[i], ms: sinceMS(q0), rep: rep, err: err})
				done.Add(1)
			}
		}(c)
	}
	wg.Wait()
	var all []answer
	for _, a := range per {
		all = append(all, a...)
	}
	return all, nil
}

// checkAnswer checks one reply against the reference digests.
func checkAnswer(a answer, refs map[string]string) []error {
	if a.err != nil {
		return []error{fmt.Errorf("whatif %s: %w", a.v.key, a.err)}
	}
	var errs []error
	if len(a.rep.Leaks) > 0 {
		errs = append(errs, fmt.Errorf("whatif %s: leaks %v", a.v.key, a.rep.Leaks))
	}
	if a.rep.Kind != a.v.kind || a.rep.Digest != refs[a.v.key] {
		errs = append(errs, fmt.Errorf("whatif %s: reply kind %q digest %s, want digest %s", a.v.key, a.rep.Kind, a.rep.Digest, refs[a.v.key]))
	}
	return errs
}

// bookAnswers checks every answer and returns the latencies and the
// packing-cache hit ratio the replies report.
func (r *run) bookAnswers(answers []answer, refs map[string]string) (lat []float64, byKind map[string][]float64, hitRatio float64) {
	byKind = map[string][]float64{}
	var hits, misses int
	for _, a := range answers {
		r.op(checkAnswer(a, refs)...)
		lat = append(lat, a.ms)
		byKind[a.v.kind] = append(byKind[a.v.kind], a.ms)
		hits += a.rep.WarmCacheHits
		misses += a.rep.WarmCacheMisses
	}
	return lat, byKind, ratio(float64(hits), float64(hits+misses))
}

func whatifUntraced(r *run) error {
	svc, err := snapshot.NewService(whatifBase())
	if err != nil {
		return err
	}
	if err := runProbes(r, svc.BaseDigest()); err != nil {
		return err
	}
	refs, err := whatifRefs(r, svc)
	if err != nil {
		return err
	}
	t0 := time.Now()
	answers, err := closedLoop(svc.Handler(), r.seed, r.deadline(t0), whatifMinQueries)
	wall := time.Since(t0)
	if err != nil {
		return err
	}
	lat, _, _ := r.bookAnswers(answers, refs)
	r.set("throughput_per_s", ratio(float64(len(answers)), wall.Seconds()))
	r.notef("whatif: %d queries from %d closed-loop clients in %.3f s; throughput = queries / wall seconds of the loop",
		len(answers), runtime.NumCPU(), wall.Seconds())
	r.setLatency("query", lat)
	return nil
}

// whatifTraced measures the per-layer metrics: an untraced closed loop
// for the per-kind latency split and the runtime counters, then a
// traced round trip of the service's snapshot (Restore, Capture,
// Encode, Decode) and traced branches restored from the decoded
// snapshot, whose digests must equal Service.Run's.
func whatifTraced(r *run) error {
	svc, err := snapshot.NewService(whatifBase())
	if err != nil {
		return err
	}
	refs, err := whatifRefs(r, svc)
	if err != nil {
		return err
	}
	before := readMem()
	answers, err := closedLoop(svc.Handler(), r.seed, r.deadline(time.Now()).Add(-r.seconds/2), whatifMinQueries)
	if err != nil {
		return err
	}
	r.setRuntime(before, readMem(), len(answers))
	_, byKind, hitRatio := r.bookAnswers(answers, refs)
	for kind, lat := range byKind {
		r.set("whatif.kind_p50_ms."+kind, median(lat))
	}

	// The traced branch list: whatifTracedReps rounds of one variant per
	// kind. Its untraced reference for trace.overhead is the same list
	// answered serially by Service.Run.
	vs := whatifVariants(r.seed)
	var list []variant
	for _, i := range variantOrder(tracedKinds(), vs) {
		list = append(list, vs[i])
	}
	t0 := time.Now()
	for _, v := range list {
		if _, err := svc.Run(v.q); err != nil {
			return err
		}
	}
	untraced := time.Since(t0)

	tr := newTracer()
	root := tr.Begin("perfbench.whatif", "bench", -1)
	var errs []error
	bad := func(format string, args ...interface{}) {
		errs = append(errs, fmt.Errorf("whatif trace: "+format, args...))
	}
	snap, enc, err := tracedBase(tr, root, svc, bad)
	if err != nil {
		return err
	}
	var branches []cluster.Result
	cont := map[string][]float64{}
	b0 := time.Now()
	for _, v := range list {
		digest, res, contMS, err := tracedBranch(tr, root, svc, snap, v)
		if err != nil {
			bad("%s: %v", v.key, err)
			continue
		}
		if digest != refs[v.key] {
			bad("%s digest %s, Service.Run gave %s", v.key, digest, refs[v.key])
		}
		if res != nil {
			branches = append(branches, delta(*res, snap.Res))
			cont[v.kind] = append(cont[v.kind], contMS)
		}
	}
	traced := time.Since(b0)
	tr.End(root)
	spans := tr.Spans()

	r.set("snapshot.restore_ms", median(dursMS(spans, "cluster.Restore")))
	r.set("snapshot.capture_ms", median(dursMS(spans, "cluster.Capture")))
	r.set("snapshot.encode_ms", median(dursMS(spans, "snapshot.Encode")))
	r.set("snapshot.decode_ms", median(dursMS(spans, "snapshot.Decode")))
	r.set("snapshot.bytes", float64(len(enc)))
	for kind, v := range cont {
		r.set("cluster.continue_ms."+kind, median(v))
	}
	r.setClusterCounts(branches)
	r.set("cloudsim.cache_hit_ratio", hitRatio)
	r.set("trace.overhead", ratio(traced.Seconds(), untraced.Seconds()))
	errs = append(errs, r.setTraceMetrics("whatif", spans, root))
	r.op(errs...)
	return nil
}

// tracedBase restores a world from the service's snapshot, captures it
// again at the snapshot instant, and encodes and decodes the capture,
// whatifTracedReps times. It returns the last decoded snapshot and its
// encoding. Restore renumbers the engine's pending events, so the
// re-capture does not encode byte for byte like the service's snapshot;
// every round trip must encode like the first, and the branches
// continued from the decoded snapshot must reach Service.Run's digests.
func tracedBase(tr *Tracer, root int, svc *snapshot.Service, bad func(string, ...interface{})) (*cluster.Snapshot, []byte, error) {
	var snap *cluster.Snapshot
	var first []byte
	for i := 0; i < whatifTracedReps; i++ {
		sp := tr.Begin("cluster.Restore", "snapshot", root)
		c, err := cluster.Restore(svc.Snapshot(), cluster.RestoreOpts{})
		tr.End(sp)
		if err != nil {
			return nil, nil, err
		}
		sp = tr.Begin("cluster.Capture", "snapshot", root)
		s, err := c.Capture()
		tr.End(sp)
		if err != nil {
			return nil, nil, err
		}
		sp = tr.Begin("snapshot.Encode", "snapshot", root)
		enc, err := snapshot.Encode(s)
		tr.End(sp)
		if err != nil {
			return nil, nil, err
		}
		if first == nil {
			first = enc
		} else if !bytes.Equal(enc, first) {
			bad("round trip %d of the service's snapshot encodes differently from the first", i+1)
		}
		sp = tr.Begin("snapshot.Decode", "snapshot", root)
		snap, err = snapshot.Decode(enc)
		tr.End(sp)
		if err != nil {
			return nil, nil, err
		}
	}
	return snap, first, nil
}

// tracedBranch answers one query kind under spans. Kinds whose delta is
// public restore from snap and continue through cluster calls, and
// return the branch result and its continuation (Advance + Finish) time;
// add-pods goes through Service.Run whole.
func tracedBranch(tr *Tracer, root int, svc *snapshot.Service, snap *cluster.Snapshot, v variant) (string, *cluster.Result, float64, error) {
	kind := v.kind
	if kind == "add-pods" {
		sp := tr.Begin("snapshot.Service.Run", "snapshot", root)
		rep, err := svc.Run(v.q)
		tr.End(sp)
		if err != nil {
			return "", nil, 0, err
		}
		return rep.Digest, nil, 0, nil
	}
	opts := cluster.RestoreOpts{}
	if kind == "switch-policy" {
		p := cluster.Kubernetes
		opts.Policy = &p
	}
	sp := tr.Begin("cluster.Restore", "snapshot", root)
	c, err := cluster.Restore(snap, opts)
	tr.End(sp)
	if err != nil {
		return "", nil, 0, err
	}
	if kind == "kill-nodes" {
		sp = tr.Begin("cluster.LiveNodeNames", "cluster", root)
		live := c.LiveNodeNames()
		tr.End(sp)
		if len(live) < whatifKill {
			return "", nil, 0, fmt.Errorf("only %d live nodes", len(live))
		}
		sp = tr.Begin("cluster.KillNodesNow", "cluster", root)
		err = c.KillNodesNow(live[:whatifKill])
		tr.End(sp)
		if err != nil {
			return "", nil, 0, err
		}
	}
	t0 := time.Now()
	sp = tr.Begin("cluster.Advance", "cluster", root)
	c.Advance(sim.Time(whatifHorizon))
	tr.End(sp)
	sp = tr.Begin("cluster.Finish", "cluster", root)
	res := c.Finish()
	tr.End(sp)
	contMS := sinceMS(t0)
	sp = tr.Begin("cluster.Leaks", "cluster", root)
	leaks := c.Leaks()
	tr.End(sp)
	if len(leaks) > 0 {
		return "", nil, 0, fmt.Errorf("leaks %v", leaks)
	}
	sp = tr.Begin("cluster.Digest", "cluster", root)
	d := c.Digest()
	tr.End(sp)
	return fmt.Sprintf("%016x", d), &res, contMS, nil
}

// tracedKinds is the kind order of the traced branch list.
func tracedKinds() []string {
	var out []string
	for i := 0; i < whatifTracedReps; i++ {
		out = append(out, whatifKinds...)
	}
	return out
}

// delta is the work a branch did after the snapshot instant: its
// counters minus the snapshot's. PeakNodes stays the branch's peak.
func delta(res, at cluster.Result) cluster.Result {
	res.Scheduled -= at.Scheduled
	res.ScaleUps -= at.ScaleUps
	res.ReconcileRounds -= at.ReconcileRounds
	res.OptimizerRuns -= at.OptimizerRuns
	res.OptimizerFull -= at.OptimizerFull
	res.OptimizerGroups -= at.OptimizerGroups
	res.OptimizerCacheHits -= at.OptimizerCacheHits
	res.OptimizerCacheMisses -= at.OptimizerCacheMisses
	return res
}
