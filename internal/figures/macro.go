package figures

import (
	"fmt"
	"time"

	"nestless/internal/apps/kafka"
	"nestless/internal/apps/memcached"
	"nestless/internal/apps/nginx"
	"nestless/internal/cpuacct"
	"nestless/internal/report"
	"nestless/internal/scenario"
)

// appPorts is the server port of each application.
var appPorts = map[string]uint16{"memcached": 11211, "nginx": 80, "kafka": 9092}

// macroWindows shrinks the app windows under Quick.
func (o Opts) macroWindows() (warmup, measure time.Duration) {
	if o.Quick {
		return 10 * time.Millisecond, 60 * time.Millisecond
	}
	return 20 * time.Millisecond, 150 * time.Millisecond
}

// nginxProfile picks the server service profile per deployment kind.
func nginxProfile(containerized bool) nginx.ServerConfig {
	if containerized {
		return nginx.ContainerConfig()
	}
	return nginx.NativeConfig()
}

// appLoad is what an application's load generator measured: the rate
// achieved (in unit) and the latency distribution.
type appLoad struct {
	rate          float64
	unit          string
	mean, sd, p99 time.Duration
}

// runApp starts app's server on e.server (NGINX with profile) and runs
// its load generator from e.client over the macro windows.
func (o Opts) runApp(app string, e ends, profile nginx.ServerConfig) appLoad {
	port := appPorts[app]
	warm, meas := o.macroWindows()
	switch app {
	case "memcached":
		if _, err := memcached.NewServer(e.server, port); err != nil {
			panic(err)
		}
		cfg := memcached.DefaultClientConfig()
		cfg.Warmup, cfg.Measure = warm, meas
		r := memcached.RunClient(e.eng, e.client, e.dial, port, cfg)
		return appLoad{r.ResponsesPerSec, "resp/s", r.MeanLatency, r.StddevLatency, r.P99Latency}
	case "nginx":
		if _, err := nginx.NewServer(e.server, port, profile); err != nil {
			panic(err)
		}
		cfg := nginx.DefaultClientConfig()
		cfg.Warmup, cfg.Measure = warm, meas
		r := nginx.RunClient(e.eng, e.client, e.dial, port, cfg)
		return appLoad{r.Achieved, "req/s", r.MeanLatency, r.StddevLatency, r.P99Latency}
	case "kafka":
		if _, err := kafka.NewBroker(e.server, port); err != nil {
			panic(err)
		}
		cfg := kafka.DefaultProducerConfig()
		cfg.Warmup, cfg.Measure = warm, meas
		r := kafka.RunProducer(e.eng, e.client, e.dial, port, cfg)
		return appLoad{r.PerSec, "msg/s", r.MeanLatency, r.StddevLatency, r.P99Latency}
	}
	panic("figures: unknown application " + app)
}

// macroRun bundles one macro measurement with its CPU usage window.
type macroRun struct {
	load     appLoad
	appUsage cpuacct.Usage
	vmGuest  time.Duration
	elapsed  time.Duration
}

// runMacroServerClient executes one application benchmark in a §5.2
// scenario and captures the CPU window around it.
func runMacroServerClient(o Opts, mode scenario.Mode, app string) macroRun {
	sc, e := o.serverClient(app+"-"+string(mode), mode, appPorts[app])
	// The in-guest view the paper measures (mpstat inside the VM)
	// covers every lane running on the vCPUs: the application entity
	// plus the guest kernel entity ("guest/<vm>"), which is where the
	// in-VM forwarding softirq lands under NAT.
	guestEntity := "guest/" + sc.VM.Name
	inGuest := func() cpuacct.Usage {
		u := sc.Usage(guestEntity)
		if sc.AppEntity != guestEntity {
			u = u.Plus(sc.Usage(sc.AppEntity))
		}
		return u
	}
	appBefore := inGuest()
	vmBefore := sc.Usage(sc.VMEntity)
	t0 := sc.Eng.Now()

	out := macroRun{load: o.runApp(app, e, nginxProfile(mode != scenario.ModeNoCont))}
	out.appUsage = inGuest().Sub(appBefore)
	out.vmGuest = sc.Usage(sc.VMEntity).Sub(vmBefore).Of(cpuacct.Guest)
	out.elapsed = sc.Eng.Now() - t0
	return out
}

// Fig5 reproduces the BrFusion macro-benchmarks (§5.2.2): Memcached,
// NGINX and Kafka under NAT, BrFusion and NoCont.
func Fig5(o Opts) *report.Table {
	t := report.New("Fig. 5 — macro-benchmarks (NAT / BrFusion / NoCont)",
		"app", "solution", "throughput", "unit", "latency_us", "stddev_us")
	modes := []scenario.Mode{scenario.ModeNAT, scenario.ModeBrFusion, scenario.ModeNoCont}
	apps := []string{"memcached", "nginx", "kafka"}
	runs := make([]macroRun, len(apps)*len(modes))
	o.fan(len(runs), func(i int, o Opts) {
		runs[i] = runMacroServerClient(o, modes[i%len(modes)], apps[i/len(modes)])
	})
	for i, r := range runs {
		l := r.load
		t.AddRow(apps[i/len(modes)], string(modes[i%len(modes)]), l.rate, l.unit, us(l.mean), us(l.sd))
	}
	return t
}

// cpuBreakdownTable renders one app's CPU usage across the three §5.2
// modes: the in-guest view (usr/sys/soft cores of the application) and
// the host view (guest cores of the whole VM) — Figs. 6 and 7.
func cpuBreakdownTable(o Opts, app, title string) *report.Table {
	t := report.New(title,
		"solution", "app_usr_cores", "app_sys_cores", "app_soft_cores", "app_total_cores", "vm_guest_cores")
	modes := []scenario.Mode{scenario.ModeNAT, scenario.ModeBrFusion, scenario.ModeNoCont}
	runs := make([]macroRun, len(modes))
	o.fan(len(modes), func(i int, o Opts) {
		runs[i] = runMacroServerClient(o, modes[i], app)
	})
	for i, mode := range modes {
		r := runs[i]
		el := float64(r.elapsed)
		t.AddRow(string(mode),
			float64(r.appUsage.Of(cpuacct.Usr))/el,
			float64(r.appUsage.Of(cpuacct.Sys))/el,
			float64(r.appUsage.Of(cpuacct.Soft))/el,
			float64(r.appUsage.Total())/el,
			float64(r.vmGuest)/el,
		)
	}
	return t
}

// Fig6 reproduces the Kafka CPU-usage breakdown (§5.2.3).
func Fig6(o Opts) *report.Table {
	return cpuBreakdownTable(o, "kafka", "Fig. 6 — Kafka CPU usage breakdown (cores)")
}

// Fig7 reproduces the NGINX CPU-usage breakdown (§5.2.3).
func Fig7(o Opts) *report.Table {
	return cpuBreakdownTable(o, "nginx", "Fig. 7 — NGINX CPU usage breakdown (cores)")
}

// ccRun bundles one application run inside a §5.3 pod pair (the server
// in container B, the load generator in container A) with its CPU
// usage window.
type ccRun struct {
	load                     appLoad
	aUsage, bUsage           cpuacct.Usage
	guests, hostSys, elapsed time.Duration
}

// runMacroPodPair executes one application in a §5.3 pod pair and
// captures the CPU window around it.
func runMacroPodPair(o Opts, mode scenario.CCMode, app string) ccRun {
	pp, e := o.podPair(app+"-cc-"+string(mode), mode, appPorts[app])
	aBefore := pp.Usage(pp.AEntity)
	bBefore := pp.Usage(pp.BEntity)
	guestsBefore := pp.Net.Acct.TotalFor("vm/").Of(cpuacct.Guest)
	hostBefore := pp.Usage("host").Of(cpuacct.Sys)
	t0 := pp.Eng.Now()

	out := ccRun{load: o.runApp(app, e, nginx.ContainerConfig())}
	out.aUsage = pp.Usage(pp.AEntity).Sub(aBefore)
	out.bUsage = pp.Usage(pp.BEntity).Sub(bBefore)
	if pp.AEntity == pp.BEntity { // SameNode shares one entity
		out.bUsage = cpuacct.Usage{}
	}
	out.guests = pp.Net.Acct.TotalFor("vm/").Of(cpuacct.Guest) - guestsBefore
	out.hostSys = pp.Usage("host").Of(cpuacct.Sys) - hostBefore
	out.elapsed = pp.Eng.Now() - t0
	return out
}

var ccModes = []scenario.CCMode{scenario.CCSameNode, scenario.CCHostlo, scenario.CCNAT, scenario.CCOverlay}

// runCCModes executes one app across all intra-pod transports, fanning
// out under o.Workers; results come back in ccModes order.
func runCCModes(o Opts, app string) []ccRun {
	runs := make([]ccRun, len(ccModes))
	o.fan(len(ccModes), func(i int, o Opts) {
		runs[i] = runMacroPodPair(o, ccModes[i], app)
	})
	return runs
}

// ccLoadTable renders one app's load-generator view over the intra-pod
// transports (§5.3.3): the rate achieved and the latency distribution.
func ccLoadTable(o Opts, app, title, rateColumn string) *report.Table {
	t := report.New(title, "solution", rateColumn, "latency_us", "stddev_us", "p99_us")
	for i, r := range runCCModes(o, app) {
		l := r.load
		t.AddRow(string(ccModes[i]), l.rate, us(l.mean), us(l.sd), us(l.p99))
	}
	return t
}

// Fig11 reproduces Memcached throughput over the intra-pod transports
// (§5.3.3) and Fig12 the corresponding latencies; one table covers both.
func Fig11(o Opts) *report.Table {
	return ccLoadTable(o, "memcached", "Figs. 11–12 — Memcached over intra-pod transports", "responses_per_s")
}

// Fig13 reproduces NGINX latency over the intra-pod transports (§5.3.3).
func Fig13(o Opts) *report.Table {
	return ccLoadTable(o, "nginx", "Fig. 13 — NGINX over intra-pod transports", "req_per_s")
}

// ccCPUTable renders the §5.3.4 CPU views: client/server (guest view)
// plus total guest cores and host-kernel cores (host view).
func ccCPUTable(o Opts, app, title string) *report.Table {
	t := report.New(title,
		"solution", "client_cores", "server_cores", "cs_total_cores", "guest_cores", "host_sys_cores")
	for i, r := range runCCModes(o, app) {
		el := float64(r.elapsed)
		a := float64(r.aUsage.Total()) / el
		b := float64(r.bUsage.Total()) / el
		t.AddRow(string(ccModes[i]), a, b, a+b,
			float64(r.guests)/el, float64(r.hostSys)/el)
	}
	return t
}

// Fig14 reproduces the Memcached CPU usage comparison (§5.3.4).
func Fig14(o Opts) *report.Table {
	return ccCPUTable(o, "memcached", "Fig. 14 — Memcached CPU usage (cores)")
}

// Fig15 reproduces the NGINX CPU usage comparison (§5.3.4).
func Fig15(o Opts) *report.Table {
	return ccCPUTable(o, "nginx", "Fig. 15 — NGINX CPU usage (cores)")
}

// Table1 prints the macro-benchmark parameters (§5.1, Table 1).
func Table1() *report.Table {
	t := report.New("Table 1 — macro-benchmark parameters and metrics",
		"application", "benchmark", "parameters", "metrics")
	mc := memcached.DefaultClientConfig()
	t.AddRow("Memcached", "memtier_benchmark-like",
		kv("threads", mc.Threads, "conns/thread", mc.ConnsPerThrd, "SET:GET", "1:10"),
		"responses/s, latency")
	ng := nginx.DefaultClientConfig()
	t.AddRow("NGINX", "wrk2-like",
		kv("conns", ng.Conns, "rate", int(ng.RatePerSec), "file_bytes", 1024),
		"latency")
	kf := kafka.DefaultProducerConfig()
	t.AddRow("Kafka", "producer-perf-like",
		kv("msg/s", kf.MsgPerSec, "msg_bytes", kf.MsgSize, "batch_bytes", kf.BatchSize),
		"latency")
	return t
}

func kv(pairs ...interface{}) string {
	s := ""
	for i := 0; i < len(pairs); i += 2 {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%v=%v", pairs[i], pairs[i+1])
	}
	return s
}
