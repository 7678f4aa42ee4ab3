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

// Application ports.
const (
	memcachedPort = 11211
	nginxPort     = 80
	kafkaPort     = 9092
)

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

// macroRun bundles one macro measurement with its CPU usage window.
type macroRun struct {
	memcached memcached.Result
	nginx     nginx.Result
	kafka     kafka.Result

	appUsage  cpuacct.Usage
	vmGuest   time.Duration
	hostSys   time.Duration
	elapsed   time.Duration
	appEntity string
}

// runMacroServerClient executes one application benchmark in a §5.2
// scenario and captures the CPU window around it.
func runMacroServerClient(o Opts, mode scenario.Mode, app string) macroRun {
	var port uint16
	switch app {
	case "memcached":
		port = memcachedPort
	case "nginx":
		port = nginxPort
	case "kafka":
		port = kafkaPort
	}
	o.Rec.BeginRun(app + "-" + string(mode))
	sc, err := scenario.NewServerClientCfg(o.cfg(o.Seed), mode, port)
	if err != nil {
		panic(err)
	}
	containerized := mode != scenario.ModeNoCont

	warm, meas := o.macroWindows()
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
	hostBefore := sc.Usage("host")
	t0 := sc.Eng.Now()

	out := macroRun{appEntity: sc.AppEntity}
	switch app {
	case "memcached":
		if _, err := memcached.NewServer(sc.ServerNS, port); err != nil {
			panic(err)
		}
		cfg := memcached.DefaultClientConfig()
		cfg.Warmup, cfg.Measure = warm, meas
		out.memcached = memcached.RunClient(sc.Eng, sc.Client, sc.DialAddr, port, cfg)
	case "nginx":
		if _, err := nginx.NewServer(sc.ServerNS, port, nginxProfile(containerized)); err != nil {
			panic(err)
		}
		cfg := nginx.DefaultClientConfig()
		cfg.Warmup, cfg.Measure = warm, meas
		out.nginx = nginx.RunClient(sc.Eng, sc.Client, sc.DialAddr, port, cfg)
	case "kafka":
		if _, err := kafka.NewBroker(sc.ServerNS, port); err != nil {
			panic(err)
		}
		cfg := kafka.DefaultProducerConfig()
		cfg.Warmup, cfg.Measure = warm, meas
		out.kafka = kafka.RunProducer(sc.Eng, sc.Client, sc.DialAddr, port, cfg)
	}

	out.appUsage = inGuest().Sub(appBefore)
	out.vmGuest = sc.Usage(sc.VMEntity).Sub(vmBefore).Of(cpuacct.Guest)
	out.hostSys = sc.Usage("host").Sub(hostBefore).Of(cpuacct.Sys)
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
	for ai, app := range apps {
		for mi, mode := range modes {
			r := runs[ai*len(modes)+mi]
			switch app {
			case "memcached":
				t.AddRow(app, string(mode), r.memcached.ResponsesPerSec, "resp/s",
					float64(r.memcached.MeanLatency)/1e3, float64(r.memcached.StddevLatency)/1e3)
			case "nginx":
				t.AddRow(app, string(mode), r.nginx.Achieved, "req/s",
					float64(r.nginx.MeanLatency)/1e3, float64(r.nginx.StddevLatency)/1e3)
			case "kafka":
				t.AddRow(app, string(mode), r.kafka.PerSec, "msg/s",
					float64(r.kafka.MeanLatency)/1e3, float64(r.kafka.StddevLatency)/1e3)
			}
		}
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

// runMacroPodPair executes one application inside a §5.3 pod pair:
// the server in container B, the load generator in container A.
type ccRun struct {
	memcached memcached.Result
	nginx     nginx.Result

	aUsage, bUsage cpuacct.Usage
	guests         time.Duration
	hostSys        time.Duration
	elapsed        time.Duration
}

func runMacroPodPair(o Opts, mode scenario.CCMode, app string) ccRun {
	var port uint16
	switch app {
	case "memcached":
		port = memcachedPort
	case "nginx":
		port = nginxPort
	}
	o.Rec.BeginRun(app + "-cc-" + string(mode))
	pp, err := scenario.NewPodPairCfg(o.cfg(o.Seed), mode, port)
	if err != nil {
		panic(err)
	}
	warm, meas := o.macroWindows()

	aBefore := pp.Usage(pp.AEntity)
	bBefore := pp.Usage(pp.BEntity)
	guestsBefore := pp.Net.Acct.TotalFor("vm/").Of(cpuacct.Guest)
	hostBefore := pp.Usage("host").Of(cpuacct.Sys)
	t0 := pp.Eng.Now()

	out := ccRun{}
	switch app {
	case "memcached":
		if _, err := memcached.NewServer(pp.BNS, port); err != nil {
			panic(err)
		}
		cfg := memcached.DefaultClientConfig()
		cfg.Warmup, cfg.Measure = warm, meas
		out.memcached = memcached.RunClient(pp.Eng, pp.ANS, pp.DialAddr, port, cfg)
	case "nginx":
		if _, err := nginx.NewServer(pp.BNS, port, nginx.ContainerConfig()); err != nil {
			panic(err)
		}
		cfg := nginx.DefaultClientConfig()
		cfg.Warmup, cfg.Measure = warm, meas
		out.nginx = nginx.RunClient(pp.Eng, pp.ANS, pp.DialAddr, port, cfg)
	}

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

// Fig11 reproduces Memcached throughput over the intra-pod transports
// (§5.3.3) and Fig12 the corresponding latencies; one table covers both.
func Fig11(o Opts) *report.Table {
	t := report.New("Figs. 11–12 — Memcached over intra-pod transports",
		"solution", "responses_per_s", "latency_us", "stddev_us", "p99_us")
	runs := runCCModes(o, "memcached")
	for i, m := range ccModes {
		r := runs[i]
		t.AddRow(string(m), r.memcached.ResponsesPerSec,
			float64(r.memcached.MeanLatency)/1e3,
			float64(r.memcached.StddevLatency)/1e3,
			float64(r.memcached.P99Latency)/1e3)
	}
	return t
}

// Fig13 reproduces NGINX latency over the intra-pod transports (§5.3.3).
func Fig13(o Opts) *report.Table {
	t := report.New("Fig. 13 — NGINX over intra-pod transports",
		"solution", "req_per_s", "latency_us", "stddev_us", "p99_us")
	runs := runCCModes(o, "nginx")
	for i, m := range ccModes {
		r := runs[i]
		t.AddRow(string(m), r.nginx.Achieved,
			float64(r.nginx.MeanLatency)/1e3,
			float64(r.nginx.StddevLatency)/1e3,
			float64(r.nginx.P99Latency)/1e3)
	}
	return t
}

// ccCPUTable renders the §5.3.4 CPU views: client/server (guest view)
// plus total guest cores and host-kernel cores (host view).
func ccCPUTable(o Opts, app, title string) *report.Table {
	t := report.New(title,
		"solution", "client_cores", "server_cores", "cs_total_cores", "guest_cores", "host_sys_cores")
	runs := runCCModes(o, app)
	for i, m := range ccModes {
		r := runs[i]
		el := float64(r.elapsed)
		a := float64(r.aUsage.Total()) / el
		b := float64(r.bUsage.Total()) / el
		t.AddRow(string(m), a, b, a+b,
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
