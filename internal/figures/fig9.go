package figures

import (
	"nestless/internal/cloudsim"
	"nestless/internal/report"
	"nestless/internal/trace"
)

// Fig9 reproduces the Hostlo cost-saving simulation (§5.3.1): per-user
// VM costs under Kubernetes whole-pod placement versus Hostlo
// container-level placement over a synthetic Google-trace population,
// priced with Table 2. Returns the savings histogram and the headline
// statistics.
func Fig9(o Opts) (hist, stats *report.Table) {
	cfg := trace.DefaultConfig(o.Seed)
	if o.Quick {
		cfg.Users = 150
	}
	users := trace.Generate(cfg)
	return Fig9Of(cloudsim.SimulateParallel(users, cloudsim.Catalog(), o.Workers))
}

// Fig9Of renders Fig. 9's two tables from an already simulated
// population, priced with Table 2.
func Fig9Of(res cloudsim.PopulationResult) (hist, stats *report.Table) {
	hist = report.New("Fig. 9 — relative cost savings among users",
		"savings_bucket", "users", "fraction_of_savers")
	h := res.SavingsHistogram(20)
	for i := range h.Buckets {
		lo, hi := h.BucketBounds(i)
		if h.Buckets[i] == 0 {
			continue
		}
		hist.AddRow(bucketLabel(lo, hi), h.Buckets[i], h.Fraction(i))
	}

	stats = report.New("Fig. 9 — headline statistics",
		"metric", "value", "paper")
	maxAbs, maxAbsRel := res.MaxAbsSavings()
	kube, hostlo := res.TotalCosts()
	stats.AddRow("users simulated", len(res.Users), "492")
	stats.AddRow("users skipped (pod > largest VM)", res.Skipped, "0")
	stats.AddRow("users with savings", percent(res.SaversFraction()), "11.4%")
	stats.AddRow("savers above 5%", percent(res.BigSaversFractionOfSavers()), "66.7%")
	stats.AddRow("max relative savings", percent(res.MaxRelSavings()), "~40%")
	stats.AddRow("max absolute savings $/h", maxAbs, "237")
	stats.AddRow("  (at relative savings)", percent(maxAbsRel), "35%")
	stats.AddRow("population cost kube $/h", kube, "-")
	stats.AddRow("population cost hostlo $/h", hostlo, "-")
	return hist, stats
}

// Table2 prints the VM catalog (§5.3.1, Table 2).
func Table2() *report.Table {
	t := report.New("Table 2 — AWS EC2 m5 models",
		"model", "vcpu", "memory_gb", "vcpu_rel", "mem_rel", "price_per_h")
	for _, v := range cloudsim.Catalog() {
		t.AddRow(v.Name, v.VCPU, v.MemGB, v.RelCPU, v.RelMem, v.PricePerH)
	}
	return t
}

func bucketLabel(lo, hi float64) string {
	return percent(lo) + "–" + percent(hi)
}

func percent(v float64) string {
	return report.Percent(v)
}
