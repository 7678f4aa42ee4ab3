package netsim

import (
	"fmt"

	"nestless/internal/cpuacct"
	"nestless/internal/sim"
)

// The stream transport is a simplified TCP: connection setup is a
// two-way handshake (connect/accept), data flows as MSS-sized segments
// bounded by an in-flight byte window, and receivers send cumulative
// ACKs every few segments. There is no loss or reordering — simulated
// queues are lossless and FIFO — so no retransmission machinery is
// needed; flow control (the window) is what shapes throughput, exactly
// as on an unloaded datacenter link.

// connKey demultiplexes stream segments. The connection ID is allocated
// by the dialer and echoed by the peer, so the key survives NAT
// rewrites of addresses and ports.
type connKey struct {
	port uint16
	id   uint64
}

// StreamListener accepts incoming stream connections on a port.
type StreamListener struct {
	ns   *NetNS
	port uint16

	// OnAccept is invoked with each newly established server-side
	// connection. Set handlers on the conn inside this callback.
	OnAccept func(c *StreamConn)
}

// ListenStream binds a stream listener on port.
func (ns *NetNS) ListenStream(port uint16, onAccept func(*StreamConn)) (*StreamListener, error) {
	if _, used := ns.listeners[port]; used {
		return nil, fmt.Errorf("netsim: stream port %d in use in %s", port, ns.Name)
	}
	l := &StreamListener{ns: ns, port: port, OnAccept: onAccept}
	ns.listeners[port] = l
	return l, nil
}

// Close releases the listening port.
func (l *StreamListener) Close() {
	if l.ns.listeners[l.port] == l {
		delete(l.ns.listeners, l.port)
	}
}

// message is one application message queued on a connection.
type message struct {
	size   int
	app    interface{}
	sentAt sim.Time
}

// segMeta rides on a data segment: the messages whose final byte the
// segment carries (the receiver fires OnMessage for each). Segments
// coalesce bytes across message boundaries like a real byte stream, so
// bulk traffic over jumbo-MTU paths (loopback) amortizes per-segment
// costs over many messages.
type segMeta struct {
	completes []message
}

// StreamConn is one endpoint of an established (or connecting) stream
// connection. It is full duplex: each direction has its own sequence
// space, window and ACK state.
type StreamConn struct {
	ns         *NetNS
	id         uint64
	localPort  uint16
	remoteAddr IPv4
	remotePort uint16

	mss    int
	window int

	established bool
	onConnected func(*StreamConn)

	// Send direction. sendQ[sendHead:] holds the unsent messages in
	// order; the head index (not reslicing) keeps the backing array, so
	// steady-state SendMessage does not reallocate it.
	sendQ    []message
	sendHead int
	headSent int // bytes of sendQ[sendHead] already segmented
	seq      uint64
	ackedSeq uint64

	// Receive direction.
	rcvd         uint64
	segsSinceAck int

	// OnMessage fires when a complete application message has arrived,
	// after receive-side charges. sentAt is when the peer submitted it.
	OnMessage func(size int, app interface{}, sentAt sim.Time)

	// OnDrain fires whenever the send queue empties (all submitted
	// messages fully segmented). Bulk senders use it to keep the pipe
	// full without queueing unbounded data.
	OnDrain func()

	// MsgsIn/MsgsOut count application messages.
	MsgsIn, MsgsOut uint64

	// pumpFn is pump bound once, the continuation of every send.
	pumpFn func()
}

// DialStream opens a connection to dst:dport. onConnected fires when the
// peer accepts; messages sent before then are queued.
func (ns *NetNS) DialStream(dst IPv4, dport uint16, onConnected func(*StreamConn)) *StreamConn {
	lport := ns.allocPort(func(p uint16) bool {
		_, used := ns.conns[connKey{port: p}]
		if used {
			return true
		}
		_, used = ns.listeners[p]
		return used
	})
	c := &StreamConn{
		ns:          ns,
		id:          ns.Net.nextConnID(),
		localPort:   lport,
		remoteAddr:  dst,
		remotePort:  dport,
		window:      ns.Costs.StreamWindow,
		onConnected: onConnected,
	}
	c.mss = ns.pathMSS(dst)
	c.pumpFn = c.pump
	ns.conns[connKey{port: lport, id: c.id}] = c
	syn := ns.Net.getPacket()
	syn.Dst, syn.Proto, syn.SrcPort, syn.DstPort, syn.TTL = dst, ProtoTCP, lport, dport, 64
	syn.Seg = Seg{Kind: SegConnect, ConnID: c.id}
	ns.Output(syn, []Charge{{cpuacct.Sys, ns.Costs.SyscallTX.For(0)}})
	return c
}

// pathMSS derives the segment size from the egress interface MTU
// (IP + TCP header + options overhead subtracted). Loopback paths get
// jumbo segments, which is what makes intra-VM pod-localhost traffic so
// much faster than any cross-VM solution (the paper's SameNode).
func (ns *NetNS) pathMSS(dst IPv4) int {
	out, _, ok := ns.lookupRoute(dst)
	if !ok {
		return ns.Costs.StreamMSS
	}
	mss := out.MTU - (IPv4HeaderLen + TCPHeaderLen + 12)
	if mss < 64 {
		mss = 64
	}
	return mss
}

// Established reports whether the handshake completed.
func (c *StreamConn) Established() bool { return c.established }

// MSS returns the connection's segment payload size.
func (c *StreamConn) MSS() int { return c.mss }

// Window returns the connection's in-flight byte window.
func (c *StreamConn) Window() int { return c.window }

// InFlight returns unacknowledged bytes in the send direction.
func (c *StreamConn) InFlight() int { return int(c.seq - c.ackedSeq) }

// Close removes the connection from the namespace demux table.
func (c *StreamConn) Close() {
	delete(c.ns.conns, connKey{port: c.localPort, id: c.id})
}

// SendMessage queues one application message of the given size. The
// application and syscall charges are paid immediately; segments flow
// out as the window allows.
func (c *StreamConn) SendMessage(size int, app interface{}) {
	if size <= 0 {
		size = 1
	}
	c.MsgsOut++
	if len(c.sendQ) == cap(c.sendQ) && c.sendHead > 0 {
		// Full backing array with sent slots in front: slide the unsent
		// messages down instead of growing.
		n := copy(c.sendQ, c.sendQ[c.sendHead:])
		clear(c.sendQ[n:])
		c.sendQ, c.sendHead = c.sendQ[:n], 0
	}
	c.sendQ = append(c.sendQ, message{size: size, app: app, sentAt: c.ns.Net.Eng.Now()})
	charges := []Charge{
		{cpuacct.Usr, c.ns.Costs.AppSend.For(size)},
		{cpuacct.Sys, c.ns.Costs.SyscallTX.For(size)},
	}
	c.ns.CPU.RunCosts(charges, c.pumpFn)
}

// QueuedBytes returns bytes submitted but not yet segmented out.
func (c *StreamConn) QueuedBytes() int {
	n := -c.headSent
	for _, m := range c.sendQ[c.sendHead:] {
		n += m.size
	}
	if n < 0 {
		n = 0
	}
	return n
}

// pump emits segments while the window has room. Bytes coalesce across
// message boundaries into MSS-sized segments, byte-stream style.
func (c *StreamConn) pump() {
	if !c.established {
		return
	}
	for c.sendHead < len(c.sendQ) && c.InFlight() < c.window {
		// Fill one segment, possibly spanning several messages.
		q0, h0 := c.sendHead, c.headSent
		n := 0
		var completes []message
		var sentAt sim.Time
		for n < c.mss && c.sendHead < len(c.sendQ) {
			head := &c.sendQ[c.sendHead]
			if sentAt == 0 || head.sentAt < sentAt {
				sentAt = head.sentAt
			}
			take := c.mss - n
			if rem := head.size - c.headSent; take > rem {
				take = rem
			}
			n += take
			c.headSent += take
			if c.headSent == head.size {
				completes = append(completes, *head)
				c.sendHead++
				c.headSent = 0
			}
		}
		if c.InFlight()+n > c.window && c.InFlight() > 0 {
			// Window would overrun: put the carved bytes back and wait
			// for ACKs. (Overshoot is only allowed with nothing in
			// flight, to guarantee progress on jumbo segments.) The
			// carved messages still sit in their slots.
			c.sendHead, c.headSent = q0, h0
			break
		}
		p := c.ns.Net.getPacket()
		p.Dst, p.Proto = c.remoteAddr, ProtoTCP
		p.SrcPort, p.DstPort, p.TTL = c.localPort, c.remotePort, 64
		p.PayloadLen = n
		p.Seg = Seg{Kind: SegData, Seq: c.seq, ConnID: c.id}
		p.SentAt = sentAt
		if len(completes) > 0 {
			p.App = segMeta{completes: completes}
		}
		c.seq += uint64(n)
		// Per-segment kernel transmit work happens in Output (routing,
		// hooks); no extra per-segment syscall.
		c.ns.Output(p, nil)
	}
	// Writable notification: queue fully flushed (fires on data pumps
	// and on ACK-driven pumps alike, so senders can keep the window
	// full).
	if c.sendHead == len(c.sendQ) {
		clear(c.sendQ) // release the sent messages' app payloads
		c.sendQ, c.sendHead = c.sendQ[:0], 0
		if c.OnDrain != nil {
			c.OnDrain()
		}
	}
}

// streamInput demultiplexes a ProtoTCP packet inside deliverLocal. It
// is the end of every stream packet's life: the transport hands
// applications message metadata (size/app/sentAt), never the *Packet,
// so the packet is recycled here on every path — including drops.
func (ns *NetNS) streamInput(p *Packet) {
	ns.streamDemux(p)
	ns.Net.putPacket(p)
}

func (ns *NetNS) streamDemux(p *Packet) {
	switch p.Seg.Kind {
	case SegConnect:
		l, ok := ns.listeners[p.DstPort]
		if !ok {
			ns.Drops.NoSocket++
			return
		}
		key := connKey{port: p.DstPort, id: p.Seg.ConnID}
		if _, dup := ns.conns[key]; dup {
			return // duplicate connect
		}
		c := &StreamConn{
			ns:          ns,
			id:          p.Seg.ConnID,
			localPort:   p.DstPort,
			remoteAddr:  p.Src,
			remotePort:  p.SrcPort,
			window:      ns.Costs.StreamWindow,
			established: true,
		}
		c.mss = ns.pathMSS(p.Src)
		c.pumpFn = c.pump
		ns.conns[key] = c
		if l.OnAccept != nil {
			l.OnAccept(c)
		}
		ack := ns.Net.getPacket()
		ack.Dst, ack.Proto, ack.SrcPort, ack.DstPort, ack.TTL = p.Src, ProtoTCP, p.DstPort, p.SrcPort, 64
		ack.Seg = Seg{Kind: SegAccept, ConnID: c.id}
		ns.Output(ack, []Charge{{cpuacct.Sys, ns.Costs.SyscallTX.For(0)}})

	case SegAccept:
		c, ok := ns.conns[connKey{port: p.DstPort, id: p.Seg.ConnID}]
		if !ok || c.established {
			return
		}
		c.established = true
		// The peer may sit behind NAT; sync to the tuple we actually see.
		c.remoteAddr, c.remotePort = p.Src, p.SrcPort
		if c.onConnected != nil {
			cb := c.onConnected
			c.onConnected = nil
			cb(c)
		}
		c.pump()

	case SegData:
		c, ok := ns.conns[connKey{port: p.DstPort, id: p.Seg.ConnID}]
		if !ok {
			ns.Drops.NoSocket++
			return
		}
		c.rcvd += uint64(p.PayloadLen)
		c.segsSinceAck++
		meta, final := p.App.(segMeta)
		if c.segsSinceAck >= ns.Costs.AckEvery || final {
			c.segsSinceAck = 0
			ack := ns.Net.getPacket()
			ack.Dst, ack.Proto = c.remoteAddr, ProtoTCP
			ack.SrcPort, ack.DstPort, ack.TTL = c.localPort, c.remotePort, 64
			ack.Seg = Seg{Kind: SegAck, AckSeq: c.rcvd, ConnID: c.id}
			c.ns.Output(ack, nil)
		}
		if final {
			var charges []Charge
			for _, m := range meta.completes {
				charges = append(charges,
					Charge{cpuacct.Sys, ns.Costs.SyscallRX.For(m.size)},
					Charge{cpuacct.Usr, ns.Costs.AppRecv.For(m.size)},
				)
			}
			completes := meta.completes
			ns.CPU.RunCosts(charges, func() {
				for _, m := range completes {
					c.MsgsIn++
					if c.OnMessage != nil {
						c.OnMessage(m.size, m.app, m.sentAt)
					}
				}
			})
		}

	case SegAck:
		c, ok := ns.conns[connKey{port: p.DstPort, id: p.Seg.ConnID}]
		if !ok {
			return
		}
		if p.Seg.AckSeq > c.ackedSeq {
			c.ackedSeq = p.Seg.AckSeq
		}
		c.pump()
	}
}
