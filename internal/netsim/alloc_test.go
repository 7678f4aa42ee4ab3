package netsim

import (
	"testing"

	"nestless/internal/sim"
)

// streamSteadyStateAllocsCap bounds the heap objects one full
// message round trip (client send → server receive → server reply →
// client receive) may allocate in steady state, once the packet, frame
// and hop pools are warm. Every hop continuation is a pooled Hop, so
// the remaining objects are per message, not per hop: the segment's
// completed-message list and its boxing into Packet.App, and the
// receive side's charge list and OnMessage continuation. A regression
// that un-pools the datapath, brings back a per-hop closure or lets the
// send queue regrow per message shows up here (measured steady state:
// 8; 9 while the send queue resliced its head off, 31 before hops were
// pooled).
const streamSteadyStateAllocsCap = 8

func TestStreamSteadyStateAllocsBounded(t *testing.T) {
	eng, n := newWorld()
	a, b := twoHosts(n)

	if _, err := b.ListenStream(80, func(c *StreamConn) {
		c.OnMessage = func(size int, _ interface{}, _ sim.Time) {
			c.SendMessage(size, nil) // echo
		}
	}); err != nil {
		t.Fatal(err)
	}
	got := 0
	conn := a.DialStream(IP(10, 0, 0, 2), 80, nil)
	conn.OnMessage = func(int, interface{}, sim.Time) { got++ }

	// Warm up: establish, fill the pools, amortize slice growth.
	for i := 0; i < 50; i++ {
		conn.SendMessage(1000, nil)
	}
	eng.Run()
	if got != 50 {
		t.Fatalf("warmup echoed %d/50 messages", got)
	}

	allocs := testing.AllocsPerRun(200, func() {
		conn.SendMessage(1000, nil)
		eng.Run()
	})
	if allocs > streamSteadyStateAllocsCap {
		t.Fatalf("steady-state round trip allocates %.1f objects, cap %d",
			allocs, streamSteadyStateAllocsCap)
	}
}
