package netsim

import (
	"fmt"

	"nestless/internal/cpuacct"
)

// UDPSocket is a bound datagram socket. Receive is callback-driven:
// OnRecv fires after the receive-side syscall and application charges
// have been paid on the namespace CPU.
type UDPSocket struct {
	ns   *NetNS
	port uint16

	// OnRecv handles an arrived datagram. The packet's Src/SrcPort are
	// as seen by this namespace (post-NAT).
	OnRecv func(p *Packet)

	// RX and TX count datagrams.
	RX, TX uint64
}

// BindUDP binds a datagram socket on port. Port 0 picks an ephemeral
// port.
func (ns *NetNS) BindUDP(port uint16, onRecv func(*Packet)) (*UDPSocket, error) {
	if port == 0 {
		port = ns.allocPort(func(p uint16) bool { _, used := ns.udp[p]; return used })
	}
	if _, used := ns.udp[port]; used {
		return nil, fmt.Errorf("netsim: udp port %d in use in %s", port, ns.Name)
	}
	s := &UDPSocket{ns: ns, port: port, OnRecv: onRecv}
	ns.udp[port] = s
	return s, nil
}

// Port returns the bound port.
func (s *UDPSocket) Port() uint16 { return s.port }

// Close releases the port.
func (s *UDPSocket) Close() {
	if s.ns.udp[s.port] == s {
		delete(s.ns.udp, s.port)
	}
}

// SendTo emits one datagram of size payload bytes. app rides along as
// the application message. The send charges the application and syscall
// costs before the packet enters the IP output path.
func (s *UDPSocket) SendTo(dst IPv4, dport uint16, payload int, app interface{}) {
	s.TX++
	p := &Packet{
		Dst:        dst,
		Proto:      ProtoUDP,
		SrcPort:    s.port,
		DstPort:    dport,
		TTL:        64,
		PayloadLen: payload,
		App:        app,
		SentAt:     s.ns.Net.Eng.Now(),
	}
	extra := []Charge{
		{cpuacct.Usr, s.ns.Costs.AppSend.For(payload)},
		{cpuacct.Sys, s.ns.Costs.SyscallTX.For(payload)},
	}
	s.ns.Output(p, extra)
}

// deliver runs the receive-side charges and hands the datagram to OnRecv.
func (s *UDPSocket) deliver(p *Packet) {
	s.RX++
	ns := s.ns
	charges := []Charge{
		{cpuacct.Sys, ns.Costs.SyscallRX.For(p.PayloadLen)},
		{cpuacct.Usr, ns.Costs.AppRecv.For(p.PayloadLen)},
	}
	ns.CPU.RunCosts(charges, func() {
		if s.OnRecv != nil {
			s.OnRecv(p)
		}
	})
}
