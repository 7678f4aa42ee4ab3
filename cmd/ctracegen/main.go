// ctracegen emits a seeded sample cluster trace as the Google
// task_events-compatible CSV that internal/ctrace reads back. The
// workload comes from the synthetic generator (internal/trace) with
// churn stamped on, flattened into a time-ordered event stream — so
// tests, benchmarks and the worked examples in EXPERIMENTS.md can
// replay a realistic trace without shipping a real one in the repo.
//
//	ctracegen -users 100 -seed 7 -out trace.csv.gz
//	ctracegen -pods 1000 -out trace.csv
//	ctracegen -days 3 -pods 1000000 -out trace-3d.csv.gz
//
// The -days/-pods presets shape multi-day replay inputs without knob
// arithmetic: -pods derives the population size when -users is not
// given, and -days stretches each user's arrival gap so the trace
// spans the window.
package main

import (
	"compress/gzip"
	"flag"
	"io"
	"os"
	"strings"
	"time"

	"nestless/internal/cli"
	"nestless/internal/ctrace"
	"nestless/internal/trace"
)

func main() {
	var (
		out   = flag.String("out", "", "output path ('' = stdout; a .gz suffix gzips)")
		users = flag.Int("users", 100, "users in the generated population (with -pods and no explicit -users, derived from the pod target)")
		pods  = flag.Int("pods", 0, "cap the total pod count (0 = no cap); without an explicit -users the population is sized to hit the cap")
		seed  = flag.Int64("seed", 1, "generator seed")
		gap   = flag.Duration("gap", 2*time.Minute, "mean per-user arrival gap (overridden by -days unless explicit)")
		life  = flag.Duration("life", 45*time.Minute, "mean pod lifetime (Pareto-tailed)")
		days  = flag.Int("days", 0, "preset: stretch arrival gaps so each user's pods span this many days (0 = off; explicit -gap wins)")
	)
	flag.Parse()
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	if *pods < 0 {
		cli.BadFlag("-pods must be >= 0 (got %d)", *pods)
	}
	if *days < 0 {
		cli.BadFlag("-days must be >= 0 (got %d)", *days)
	}
	// The generator averages ~6 pods per user (geometric-ish, whale-
	// tailed), so a pod target without an explicit population implies
	// its own: enough users that the cap lands near the target instead
	// of truncating a handful of users' streams.
	if *pods > 0 && !explicit["users"] {
		*users = (*pods + meanPodsPerUser - 1) / meanPodsPerUser
	}
	// A day count without an explicit gap spreads each user's ~6
	// arrivals evenly across the window, so the whole trace spans it.
	if *days > 0 && !explicit["gap"] {
		*gap = time.Duration(*days) * 24 * time.Hour / meanPodsPerUser
	}
	if *users < 1 {
		cli.BadFlag("-users must be >= 1 (got %d)", *users)
	}
	if *gap <= 0 || *life <= 0 {
		cli.BadFlag("-gap and -life must be positive (a trace needs churn)")
	}

	gen := func(nUsers int) []trace.User {
		gcfg := trace.DefaultConfig(*seed)
		gcfg.Users = nUsers
		gcfg.MeanArrivalGap = *gap
		gcfg.MeanLifetime = *life
		population := trace.Generate(gcfg)
		if *days > 0 {
			// Arrival gaps are exponential, so long per-user streams
			// (the whale tenants especially) overshoot the window by
			// months; pruning pods that arrive after it is what makes
			// -days a span bound and not a suggestion. Lifetimes still
			// run past the edge — a replay's -horizon decides where
			// simulation stops.
			population = pruneAfter(population, time.Duration(*days)*24*time.Hour)
		}
		return population
	}
	population := gen(*users)
	if *pods > 0 {
		// A derived population can land short of the pod target once
		// the -days pruning has taken its cut; one proportional
		// correction overshoots slightly and capPods trims it exact.
		if got := countPods(population); got < *pods && !explicit["users"] {
			scaled := int(float64(*users)*float64(*pods)/float64(got)*1.1) + 1
			population = gen(scaled)
		}
		population = capPods(population, *pods)
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		file, err := os.Create(*out)
		if err != nil {
			cli.Fatal("ctracegen", err)
		}
		defer file.Close()
		w = file
		if strings.HasSuffix(*out, ".gz") {
			gz := gzip.NewWriter(file)
			defer gz.Close()
			w = gz
		}
	}
	if err := ctrace.Write(w, ctrace.NewSynth(population), ctrace.CSV); err != nil {
		cli.Fatal("ctracegen", err)
	}
}

// meanPodsPerUser is the generator's approximate per-user pod count
// (trace.DefaultConfig's MeanPodsPerUser), used by the -pods and -days
// presets to derive the population size and arrival spread.
const meanPodsPerUser = 6

// countPods totals the population's pods.
func countPods(users []trace.User) int {
	n := 0
	for _, u := range users {
		n += len(u.Pods)
	}
	return n
}

// pruneAfter drops pods arriving after the window, keeping each user's
// seeded arrival stream intact up to the cut.
func pruneAfter(users []trace.User, window time.Duration) []trace.User {
	out := users[:0]
	for _, u := range users {
		kept := u.Pods[:0]
		for _, p := range u.Pods {
			if p.Arrival <= window {
				kept = append(kept, p)
			}
		}
		if len(kept) > 0 {
			u.Pods = kept
			out = append(out, u)
		}
	}
	return out
}

// capPods truncates the population to the first n pods in user order,
// keeping the per-user seeded streams intact up to the cut.
func capPods(users []trace.User, n int) []trace.User {
	out := make([]trace.User, 0, len(users))
	for _, u := range users {
		if n <= 0 {
			break
		}
		if len(u.Pods) > n {
			u.Pods = u.Pods[:n]
		}
		n -= len(u.Pods)
		out = append(out, u)
	}
	return out
}
