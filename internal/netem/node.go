package netem

import (
	"fmt"
	"net/netip"
	"time"

	"vini/internal/fib"
	"vini/internal/packet"
	"vini/internal/sched"
	"vini/internal/sim"
	"vini/internal/telemetry"
)

// Node is one physical host: a kernel stack (addresses, route table,
// local sockets, tap devices) plus a CPU on which user-space processes
// (the Click forwarders of each slice) are scheduled.
type Node struct {
	name string
	net  *Network
	// dom is the node's own time domain. Everything the node does at
	// runtime — CPU scheduling, forwarding latency, stack timestamps —
	// is clocked and scheduled here.
	dom  *sim.Domain
	prof Profile
	// addr is the node's primary (public) address.
	addr netip.Addr
	// addrs is the set of local addresses (primary + aliases).
	addrs map[netip.Addr]bool
	// routes is the kernel routing table of the underlying network.
	routes *fib.Table
	// routeCache fronts routes for the per-packet forwarding path.
	routeCache *fib.Cache
	// links are attached physical links, by slot.
	links []*Link
	// CPU schedules this node's user processes.
	CPU *sched.CPU
	// procs are the registered user-space processes.
	procs []*Process
	// udpPorts demultiplexes local UDP delivery to process sockets.
	udpPorts map[uint16]*Socket
	// stackUDP are kernel-resident UDP listeners (measurement apps).
	stackUDP map[uint16]StackHandler
	// stackTCP are kernel-resident TCP segment consumers by local port.
	stackTCP map[uint16]StackHandler
	// icmpTap observes ICMP delivered locally (ping apps).
	icmpTap StackHandler
	// taps route kernel packets matching a prefix into a process (the
	// PL-VINI tap0 device: everything under 10.0.0.0/8).
	taps []tapRoute
	// portRanges capture local UDP/TCP delivery for NAT return traffic.
	portRanges []portRange
	// kernelUsed accounts kernel CPU for the utilization columns.
	kernelUsed time.Duration
	// Drops counts packets dropped for lack of any local consumer/route.
	Drops uint64
	// Telemetry mirrors (nil-safe): cumulative kernel CPU nanoseconds
	// and kernel drops, written only from this node's domain.
	mKernel, mDrops *telemetry.Counter
	// wheel coalesces coarse protocol ticks (see Ticks).
	wheel *sim.TickWheel
}

// Instrument attaches the node's telemetry counters. Driver-time only.
func (n *Node) Instrument(kernelNS, drops *telemetry.Counter) {
	n.mKernel, n.mDrops = kernelNS, drops
}

// drop records a kernel-level packet drop.
func (n *Node) drop() {
	n.Drops++
	n.mDrops.Inc()
}

// StackHandler receives a full IP datagram delivered by the kernel. The
// slice is borrowed: it aliases a pooled buffer that is recycled as soon
// as the handler returns, so a handler copies whatever it keeps.
type StackHandler func(dgram []byte)

type tapRoute struct {
	prefix netip.Prefix
	sock   *Socket
}

type portRange struct {
	lo, hi uint16
	sock   *Socket
}

func (n *Node) rangeSocket(port uint16) *Socket {
	for _, r := range n.portRanges {
		if port >= r.lo && port <= r.hi {
			return r.sock
		}
	}
	return nil
}

// Name returns the node name.
func (n *Node) Name() string { return n.name }

// Addr returns the node's primary address.
func (n *Node) Addr() netip.Addr { return n.addr }

// Clock returns the node's domain-scoped clock. Protocol and traffic
// code attached to this node must schedule here (not on the global
// loop) so it stays correct under parallel execution.
func (n *Node) Clock() sim.Clock { return n.dom }

// Domain returns the node's time domain.
func (n *Node) Domain() *sim.Domain { return n.dom }

// Ticks returns the clock coarse periodic protocol timers (hellos, RIP
// updates, refresh sweeps) should schedule on: a per-node tick wheel.
// Many ticks share one heap event per 100 ms slot, so timer housekeeping
// neither multiplies events nor pins the domain's published execution
// promise to the next hello.
func (n *Node) Ticks() sim.Clock { return n.wheel }

// AddAddr adds a local alias address.
func (n *Node) AddAddr(a netip.Addr) { n.addrs[a] = true }

// RemoveAddr drops a local alias (slice teardown). Stale /32 host routes
// other nodes still hold for it simply fail the local-delivery check
// until the next ComputeRoutes stops advertising the address; in-flight
// packets addressed to it drop deterministically at this node.
func (n *Node) RemoveAddr(a netip.Addr) {
	if a == n.addr {
		return // the primary address is not removable
	}
	delete(n.addrs, a)
}

// HasAddr reports whether a is local to this node.
func (n *Node) HasAddr(a netip.Addr) bool { return n.addrs[a] }

// StackListenUDP registers a kernel-resident UDP listener (zero CPU
// contention; used by measurement endpoints). It returns an error if the
// port is taken by a process socket or another listener.
func (n *Node) StackListenUDP(port uint16, h StackHandler) error {
	if _, busy := n.udpPorts[port]; busy {
		return fmt.Errorf("netem: %s UDP port %d bound by a process", n.name, port)
	}
	if _, busy := n.stackUDP[port]; busy {
		return fmt.Errorf("netem: %s UDP port %d already listened", n.name, port)
	}
	n.stackUDP[port] = h
	return nil
}

// StackUnlistenUDP releases a kernel-resident UDP listener. Releasing a
// port that is not listened is a no-op. Packets already in flight to the
// port take the normal unlistened path (ICMP port unreachable).
func (n *Node) StackUnlistenUDP(port uint16) { delete(n.stackUDP, port) }

// StackListenICMP registers the local ICMP consumer.
func (n *Node) StackListenICMP(h StackHandler) { n.icmpTap = h }

// StackListeners counts live kernel-resident registrations (UDP and TCP
// ports, plus one for an attached ICMP tap). Workload-teardown audits
// check it returns to its pre-workload value after Close.
func (n *Node) StackListeners() int {
	c := len(n.stackUDP) + len(n.stackTCP)
	if n.icmpTap != nil {
		c++
	}
	return c
}

// StackListenTCP registers a kernel-resident TCP endpoint on port. The
// handler receives whole IP datagrams; internal/tcpm implements the
// protocol machine above it.
func (n *Node) StackListenTCP(port uint16, h StackHandler) error {
	if _, busy := n.stackTCP[port]; busy {
		return fmt.Errorf("netem: %s TCP port %d already listened", n.name, port)
	}
	n.stackTCP[port] = h
	return nil
}

// StackUnlistenTCP releases a kernel-resident TCP endpoint. Releasing a
// port that is not listened is a no-op.
func (n *Node) StackUnlistenTCP(port uint16) { delete(n.stackTCP, port) }

// InjectLocalPacket delivers a datagram to this node's local consumers as
// if it had arrived addressed to the node — the path Click's ToTap element
// uses to hand overlay packets back to applications. Ownership transfers
// to the kernel; overlay annotations do not survive re-entry.
func (n *Node) InjectLocalPacket(p *packet.Packet) {
	var ip packet.IPv4
	if _, err := ip.Parse(p.Data); err != nil {
		n.drop()
		p.Release()
		return
	}
	p.Anno = packet.Annotations{}
	n.deliverLocal(ip, p)
}

// addTapRoute directs kernel packets for prefix into sock's process —
// the modified TUN/TAP driver of Section 4.1.3 (each slice sees its own
// tap0; the kernel routes 10.0.0.0/8 there).
func (n *Node) addTapRoute(prefix netip.Prefix, sock *Socket) {
	n.taps = append(n.taps, tapRoute{prefix: prefix, sock: sock})
}

// kernelCharge accounts d of kernel CPU time.
func (n *Node) kernelCharge(d time.Duration) {
	n.kernelUsed += d
	n.mKernel.Add(uint64(d))
}

// ResetAccounting clears CPU accounting on the node and its processes.
func (n *Node) ResetAccounting() {
	n.kernelUsed = 0
	n.CPU.ResetAccounting()
	for _, p := range n.procs {
		for _, s := range p.socks {
			s.Drops = 0
		}
	}
}

// StackSend transmits dgram from this node's kernel: tap routes first
// (the 10/8 route to tap0), then local delivery, then kernel forwarding.
func (n *Node) StackSend(dgram []byte) {
	n.kernelCharge(n.prof.scaled(n.prof.StackCost))
	n.send(dgram)
}

// StackSendPacket is StackSend for a datagram built in place in a packet
// the caller owns (the traffic tools); ownership transfers to the kernel.
func (n *Node) StackSendPacket(p *packet.Packet) {
	n.kernelCharge(n.prof.scaled(n.prof.StackCost))
	n.sendPacket(p)
}

// receive handles a packet arriving from a link.
func (n *Node) receive(p *packet.Packet, from *Link) {
	if n.net.onPacket != nil {
		n.net.onPacket(n, "recv", p)
	}
	n.route(p, false)
}

// route is the kernel path: tap prefixes, local delivery, or forwarding.
func (n *Node) route(p *packet.Packet, fromLocal bool) {
	var ip packet.IPv4
	if _, err := ip.Parse(p.Data); err != nil {
		n.drop()
		p.Release()
		return
	}
	// Tap routes shadow real routes for locally originated traffic and
	// for arriving packets not addressed to this node.
	if fromLocal || !n.addrs[ip.Dst] {
		for _, t := range n.taps {
			if t.prefix.Contains(ip.Dst) {
				t.sock.enqueue(p)
				return
			}
		}
	}
	if n.addrs[ip.Dst] {
		n.deliverLocal(ip, p)
		return
	}
	// Kernel IP forwarding on the underlying network. Locally originated
	// packets are sent, not forwarded: no TTL decrement at the origin.
	if n.routeCache == nil {
		n.routeCache = fib.NewCache(n.routes)
	}
	r, ok := n.routeCache.Lookup(ip.Dst)
	if !ok {
		n.drop()
		p.Release()
		return
	}
	if !fromLocal {
		if ip.TTL <= 1 {
			// Answer ICMP time exceeded from this router's address, so
			// traceroute works across the substrate too.
			n.drop()
			if ip.Proto != packet.ProtoICMP {
				if reply := packet.BuildICMPError(n.addr, packet.ICMPTimeExceeded, 0, p.Data); reply != nil {
					n.send(reply)
				}
			}
			p.Release()
			return
		}
		packet.SetTTL(p.Data, ip.TTL-1)
		n.kernelCharge(n.prof.scaled(n.prof.KernelForwardCost))
	}
	n.forwardOut(r, p)
}

// forwardOut puts the packet on the outgoing link after the kernel
// forwarding latency.
func (n *Node) forwardOut(r fib.Route, p *packet.Packet) {
	if r.OutPort < 0 || r.OutPort >= len(n.links) {
		n.drop()
		p.Release()
		return
	}
	link := n.links[r.OutPort]
	cost := n.prof.scaled(n.prof.KernelForwardCost)
	// Typed same-domain event: no closure allocation on the per-hop
	// forwarding path (the event itself recycles through the free list).
	n.dom.Send(n.dom, cost, link.txFrom(n), p)
}

// deliverLocal hands a packet addressed to this node to its consumer:
// a process socket takes ownership; a stack handler borrows p.Data for
// the call and the packet is released when it returns.
func (n *Node) deliverLocal(ip packet.IPv4, p *packet.Packet) {
	n.kernelCharge(n.prof.scaled(n.prof.StackCost))
	switch ip.Proto {
	case packet.ProtoUDP:
		var u packet.UDP
		payload := p.Data[ip.HeaderLen:]
		if _, err := u.Parse(payload); err != nil {
			n.drop()
			p.Release()
			return
		}
		if s, ok := n.udpPorts[u.DstPort]; ok {
			s.enqueue(p)
			return
		}
		if h, ok := n.stackUDP[u.DstPort]; ok {
			h(p.Data)
			p.Release()
			return
		}
		if s := n.rangeSocket(u.DstPort); s != nil {
			s.enqueue(p)
			return
		}
		// No listener: answer ICMP port unreachable, as the kernel does
		// (traceroute's termination signal).
		n.drop()
		if reply := packet.BuildICMPError(ip.Dst, packet.ICMPUnreachable, 3, p.Data); reply != nil {
			n.send(reply)
		}
		p.Release()
	case packet.ProtoTCP:
		var th packet.TCP
		payload := p.Data[ip.HeaderLen:]
		if _, err := th.Parse(payload); err != nil {
			n.drop()
			p.Release()
			return
		}
		if h, ok := n.stackTCP[th.DstPort]; ok {
			h(p.Data)
			p.Release()
			return
		}
		if s := n.rangeSocket(th.DstPort); s != nil {
			s.enqueue(p)
			return
		}
		n.drop()
		p.Release()
	case packet.ProtoICMP:
		if n.icmpTap != nil {
			n.icmpTap(p.Data)
			p.Release()
			return
		}
		n.drop()
		p.Release()
	default:
		n.drop()
		p.Release()
	}
}

// send transmits a fully-formed IP datagram from this node, used by both
// kernel apps and processes after their CPU cost is charged.
func (n *Node) send(dgram []byte) {
	p := packet.Get()
	p.SetData(dgram)
	n.sendPacket(p)
}

// sendPacket transmits an already-wrapped datagram, the zero-copy path
// used by in-place tunnel encapsulation (Process.SendUDPPacket).
func (n *Node) sendPacket(p *packet.Packet) {
	p.Anno.Timestamp = n.dom.Now()
	n.route(p, true)
}
