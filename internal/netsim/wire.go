package netsim

import (
	"time"

	"nestless/internal/sim"
)

// Wire is a point-to-point physical link: a shared serialization
// resource (the NIC/wire bandwidth) plus a propagation delay. The
// paper's client runs on dedicated host CPUs and reaches the host bridge
// through such a link; its delay constant also absorbs the scheduler
// wakeup latency that dominates small-message RTTs on real machines.
type Wire struct {
	eng   *sim.Engine
	net   *Net         // hop pool (nil when a is detached)
	tx    *sim.Station // serialization, shared by both directions
	delay time.Duration
	cost  StageCost
	a, b  *Iface
}

// NewWire connects interfaces a and b with the given serialization cost
// and propagation delay.
func NewWire(eng *sim.Engine, name string, a, b *Iface, cost StageCost, delay time.Duration) *Wire {
	w := &Wire{
		eng:   eng,
		tx:    sim.NewStation(eng, name, 1),
		delay: delay,
		cost:  cost,
		a:     a,
		b:     b,
	}
	if a.NS != nil {
		w.net = a.NS.Net
	}
	a.SetLink(wireEnd{w: w, peer: b})
	b.SetLink(wireEnd{w: w, peer: a})
	a.Up, b.Up = true, true
	return w
}

type wireEnd struct {
	w    *Wire
	peer *Iface
}

func (e wireEnd) Send(src *Iface, f *Frame) {
	w := e.w
	// Serialize onto the wire (hardware time: not billed to any CPU),
	// then propagate.
	h := w.net.NewHop(hopWireProp)
	h.Arg, h.Iface, h.Frame = w, e.peer, f
	w.tx.Process(w.cost.For(f.WireLen()), h.Fire())
}

// hopWireProp ends serialization onto the Wire in Arg: Frame propagates
// to the peer Iface.
func hopWireProp(h *Hop) {
	w := h.Arg.(*Wire)
	w.eng.After(w.delay, h.Then(hopDeliver))
}
