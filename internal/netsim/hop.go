package netsim

// Hop is a typed continuation for one datapath hop: a handler plus the
// operands it reads, fired by a station job or an engine event where a
// capturing closure would otherwise be built per frame. Hops are
// pooled per Net like Frames, and each carries its callback bound once
// when the hop was made, so scheduling one allocates nothing.
//
// A handler runs at most once per scheduling. It may re-arm its own hop
// with Then and hand the returned callback to the next stage (TX cost,
// then RX cost, then delivery travel as one hop); a hop its handler did
// not re-arm goes back to the pool when the handler returns, so a
// handler must not keep the hop or its callback.
type Hop struct {
	// Operands. Each handler documents the ones it reads; Arg carries a
	// pointer operand of a package outside netsim (boxing a pointer in
	// an interface allocates nothing).
	Iface  *Iface
	Frame  *Frame
	Packet *Packet
	NS     *NetNS
	Addr   IPv4
	N      int
	Arg    any

	handler func(*Hop)
	net     *Net
	fire    func()
}

// NewHop returns a hop that runs handler when fired, recycled from n's
// pool when possible. A nil n (a link or device outside any Net) yields
// an unpooled hop.
func (n *Net) NewHop(handler func(*Hop)) *Hop {
	var h *Hop
	if n != nil {
		if last := len(n.hopPool) - 1; last >= 0 {
			h = n.hopPool[last]
			n.hopPool[last] = nil
			n.hopPool = n.hopPool[:last]
		}
	}
	if h == nil {
		h = &Hop{net: n}
		h.fire = h.run
	}
	h.handler = handler
	return h
}

// Fire returns the hop's callback, for CPU.Run, CPU.RunCosts, a
// station or Engine.After.
func (h *Hop) Fire() func() { return h.fire }

// Then re-arms the hop with the next stage's handler and returns its
// callback. Only the running handler may call it, at most once.
func (h *Hop) Then(handler func(*Hop)) func() {
	h.handler = handler
	return h.fire
}

// run fires the handler, then recycles the hop unless the handler
// re-armed it.
func (h *Hop) run() {
	handler := h.handler
	h.handler = nil
	handler(h)
	if h.handler != nil || h.net == nil || len(h.net.hopPool) >= poolCap {
		return
	}
	n, fire := h.net, h.fire
	*h = Hop{net: n, fire: fire}
	n.hopPool = append(n.hopPool, h)
}

// CloneFrame is Frame.Clone drawing the copy and its packet from n's
// pools (a nil n clones unpooled). A cloned packet that is not a
// stream segment is never released, which costs a missed reuse, not a
// leak.
func (n *Net) CloneFrame(f *Frame) *Frame {
	if n == nil {
		return f.Clone()
	}
	nf := n.getFrame()
	*nf = *f
	if f.Packet != nil {
		p := n.getPacket()
		*p = *f.Packet
		nf.Packet = p
	}
	if f.ARP != nil {
		a := *f.ARP
		nf.ARP = &a
	}
	return nf
}

// Handlers shared by several hops.

// hopTransmit sends Frame out of Iface.
func hopTransmit(h *Hop) { h.Iface.Transmit(h.Frame) }

// hopDeliver hands Frame to Iface's receive path.
func hopDeliver(h *Hop) { h.Iface.Deliver(h.Frame) }

// hopInput runs NS's input for Frame arriving on Iface.
func hopInput(h *Hop) { h.NS.input(h.Iface, h.Frame) }
