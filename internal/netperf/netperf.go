// Package netperf reimplements the paper's micro-benchmark (§5.1) over
// the simulated stack: TCP_STREAM measures bulk throughput on one stream
// connection, UDP_RR measures synchronous request/response latency —
// both swept over message sizes, exactly the two modes the paper uses
// for Figs. 2, 4 and 10.
//
// Real Netperf runs for 20 wall-clock seconds; the simulator is
// deterministic and reaches steady state within milliseconds of virtual
// time, so the default measurement window is far shorter with identical
// information content.
package netperf

import (
	"time"

	"nestless/internal/netsim"
	"nestless/internal/sim"
)

// StreamConfig parameterises one TCP_STREAM run.
type StreamConfig struct {
	Client, Server *netsim.NetNS
	DialAddr       netsim.IPv4
	Port           uint16
	MsgSize        int
	// Warmup is excluded from measurement; Duration is the measured
	// window. Zero values pick the defaults (30 ms / 120 ms).
	Warmup, Duration time.Duration
}

// streamBurst bounds how many messages one refill of the TCP_STREAM
// sender queues.
const streamBurst = 64

// StreamResult is one TCP_STREAM measurement.
type StreamResult struct {
	MsgSize        int
	Bytes          int
	Messages       int
	ThroughputMbps float64
	Elapsed        time.Duration
}

// RunTCPStream executes one bulk-transfer measurement.
func RunTCPStream(eng *sim.Engine, cfg StreamConfig) StreamResult {
	warmup := cfg.Warmup
	if warmup == 0 {
		warmup = 30 * time.Millisecond
	}
	dur := cfg.Duration
	if dur == 0 {
		dur = 120 * time.Millisecond
	}

	start := eng.Now()
	measureFrom := start + warmup
	measureTo := measureFrom + dur

	var bytes, msgs int
	if _, err := cfg.Server.ListenStream(cfg.Port, func(c *netsim.StreamConn) {
		c.OnMessage = func(size int, _ interface{}, _ sim.Time) {
			now := eng.Now()
			if now >= measureFrom && now < measureTo {
				bytes += size
				msgs++
			}
		}
	}); err != nil {
		panic("netperf: server bind: " + err.Error())
	}

	stopped := false
	conn := cfg.Client.DialStream(cfg.DialAddr, cfg.Port, nil)
	// feed keeps the connection loaded up to its flow-control window
	// (in-flight plus queued bytes), like a sender blocked on a full
	// socket buffer. Bounding by the window is essential: OnDrain can
	// fire on every pump, and an unconditional refill would snowball.
	feed := func() {
		if stopped {
			return
		}
		for i := 0; i < streamBurst && conn.InFlight()+conn.QueuedBytes() < conn.Window(); i++ {
			conn.SendMessage(cfg.MsgSize, nil)
		}
	}
	conn.OnDrain = feed
	// Queue the first message now; once the handshake completes pump()
	// flushes it, fires OnDrain, and feed keeps the pipe full.
	conn.SendMessage(cfg.MsgSize, nil)

	eng.RunUntil(measureTo)
	stopped = true
	conn.OnDrain = nil

	return StreamResult{
		MsgSize:        cfg.MsgSize,
		Bytes:          bytes,
		Messages:       msgs,
		ThroughputMbps: float64(bytes) * 8 / dur.Seconds() / 1e6,
		Elapsed:        dur,
	}
}

// RRConfig parameterises one UDP_RR run.
type RRConfig struct {
	Client, Server *netsim.NetNS
	DialAddr       netsim.IPv4
	Port           uint16
	MsgSize        int
	// Duration is the measured window after rrWarmupTx discarded
	// transactions (zero = 100 ms).
	Duration time.Duration
}

// rrWarmupTx is the number of UDP_RR transactions discarded before
// measurement starts.
const rrWarmupTx = 20

// RRResult is one UDP_RR measurement.
type RRResult struct {
	MsgSize      int
	Transactions int
	// MeanRTT and StddevRTT summarise the per-transaction round trips;
	// PerSecond is the paper's "request/response rate".
	MeanRTT   time.Duration
	StddevRTT time.Duration
	P99RTT    time.Duration
	PerSecond float64
}

// RunUDPRR executes one synchronous request/response measurement.
func RunUDPRR(eng *sim.Engine, cfg RRConfig) RRResult {
	dur := cfg.Duration
	if dur == 0 {
		dur = 100 * time.Millisecond
	}

	// Server: echo every request at the same size.
	srv, err := cfg.Server.BindUDP(cfg.Port, nil)
	if err != nil {
		panic("netperf: server bind: " + err.Error())
	}
	srv.OnRecv = func(p *netsim.Packet) {
		srv.SendTo(p.Src, p.SrcPort, cfg.MsgSize, nil)
	}

	var rtts sim.Series
	var sentAt sim.Time
	deadline := sim.Time(0)
	tx := 0
	var cli *netsim.UDPSocket
	sendNext := func() {
		sentAt = eng.Now()
		cli.SendTo(cfg.DialAddr, cfg.Port, cfg.MsgSize, nil)
	}
	cli, err = cfg.Client.BindUDP(0, nil)
	if err != nil {
		panic("netperf: client bind: " + err.Error())
	}
	cli.OnRecv = func(p *netsim.Packet) {
		rtt := eng.Now() - sentAt
		tx++
		if tx == rrWarmupTx {
			deadline = eng.Now() + dur
		}
		if tx > rrWarmupTx {
			rtts.Add(float64(rtt))
		}
		if deadline == 0 || eng.Now() < deadline {
			sendNext()
		}
	}
	sendNext()
	eng.Run()

	res := RRResult{
		MsgSize:      cfg.MsgSize,
		Transactions: rtts.N(),
		MeanRTT:      time.Duration(rtts.Mean()),
		StddevRTT:    time.Duration(rtts.Stddev()),
		P99RTT:       time.Duration(rtts.Percentile(99)),
	}
	if res.MeanRTT > 0 {
		res.PerSecond = 1 / res.MeanRTT.Seconds()
	}
	return res
}

// Sizes is the paper's message-size sweep (Figs. 4 and 10 span small
// control messages up to multi-segment payloads).
var Sizes = []int{64, 128, 256, 512, 1024, 1280, 2048, 4096, 8192, 16384}

// RRSizes caps the request/response sweep at a single MTU-sized datagram
// (UDP_RR does not fragment in the paper's runs either).
var RRSizes = []int{64, 128, 256, 512, 1024, 1280, 1400}
