package netem

import (
	"fmt"
	"net/netip"
	"time"

	"vini/internal/packet"
	"vini/internal/sched"
)

// Process is a user-space program (a slice's Click forwarder, an OpenVPN
// server) running on a node under the CPU scheduler. Packets destined to
// its sockets queue in per-socket receive buffers; the process's task is
// woken and, when the scheduler runs it, drains the buffers paying the
// profile's per-packet cost — the paper's poll/recvfrom/sendto/
// gettimeofday budget. The gap between wake and run is the scheduling
// latency whose tail overflows buffers in Figure 6(a).
type Process struct {
	Name string
	node *Node
	task *sched.Task
	// socks in creation order, drained round-robin.
	socks []*Socket
	// handler consumes one packet when the process runs.
	pending int
	// paused drops inbound traffic at the socket (slice pause); the
	// scheduler task is suspended in step.
	paused bool
	// closed marks a torn-down process; Close is idempotent.
	closed bool
}

// Socket is a UDP socket bound by a process, and the sim.Handler of its
// own deliveries (work schedules it with the packet as the argument).
type Socket struct {
	proc    *Process
	port    uint16
	handler func(p *packet.Packet)
	// buf is the receive queue: a ring of queued packets starting at head
	// (len(buf) is zero or a power of two), so an enqueue reallocates
	// only when the queue outgrows its previous peak.
	buf          []*packet.Packet
	head, queued int
	bufB         int
	// closed rejects enqueues and makes an in-flight delivery drop its
	// packet instead of running the handler (teardown).
	closed bool
	// Drops counts receive-buffer overflows (the Figure 6(a) metric).
	Drops uint64
	// Received counts accepted packets.
	Received uint64
}

// ProcessConfig configures scheduling for a process.
type ProcessConfig struct {
	Name string
	// RT and Share map to the PL-VINI knobs: real-time priority and CPU
	// reservation (Share also models the default fair share).
	RT    bool
	Share float64
	// Strict selects the non-work-conserving allocation of §6.2: the
	// process gets exactly its share, never idle surplus.
	Strict bool
}

// NewProcess registers a process on the node.
func (n *Node) NewProcess(cfg ProcessConfig) *Process {
	p := &Process{Name: cfg.Name, node: n}
	p.task = n.CPU.NewTask(sched.TaskConfig{
		Name:   cfg.Name,
		RT:     cfg.RT,
		Share:  cfg.Share,
		Strict: cfg.Strict,
		Work:   p.work,
	})
	n.procs = append(n.procs, p)
	return p
}

// Task exposes the scheduler task (for wake-latency statistics).
func (p *Process) Task() *sched.Task { return p.task }

// OpenUDP binds port and registers handler, called in process context
// (i.e. after scheduling) for each received packet.
func (p *Process) OpenUDP(port uint16, handler func(pkt *packet.Packet)) (*Socket, error) {
	n := p.node
	if _, busy := n.udpPorts[port]; busy {
		return nil, fmt.Errorf("netem: %s UDP port %d already bound", n.name, port)
	}
	if _, busy := n.stackUDP[port]; busy {
		return nil, fmt.Errorf("netem: %s UDP port %d already listened", n.name, port)
	}
	s := &Socket{proc: p, port: port, handler: handler}
	n.udpPorts[port] = s
	p.socks = append(p.socks, s)
	return s, nil
}

// OpenPortRange binds a contiguous UDP/TCP port span to the process, the
// capture an egress node needs so NAT return traffic from external hosts
// re-enters the slice's Click forwarder (Section 4.2.3).
func (p *Process) OpenPortRange(lo, hi uint16, handler func(pkt *packet.Packet)) (*Socket, error) {
	if lo > hi {
		return nil, fmt.Errorf("netem: bad port range %d-%d", lo, hi)
	}
	s := &Socket{proc: p, handler: handler}
	p.socks = append(p.socks, s)
	p.node.portRanges = append(p.node.portRanges, portRange{lo: lo, hi: hi, sock: s})
	return s, nil
}

// OpenTap creates the slice's tap0 device: a socket that receives the
// kernel packets matching prefix (10.0.0.0/8 in PL-VINI).
func (p *Process) OpenTap(prefix netip.Prefix, handler func(pkt *packet.Packet)) *Socket {
	s := &Socket{proc: p, handler: handler}
	p.socks = append(p.socks, s)
	p.node.addTapRoute(prefix, s)
	return s
}

// enqueue adds a packet to the socket buffer, waking the process; tail
// drops when the receive buffer is full.
func (s *Socket) enqueue(p *packet.Packet) {
	if s.closed || s.proc.paused {
		// A closed socket has no consumer; a paused process models a
		// stopped slice whose kernel buffers fill and tail-drop. Either
		// way the packet dies here.
		s.Drops++
		p.Release()
		return
	}
	prof := s.proc.node.prof
	if s.bufB+p.Len() > prof.SocketBuf {
		s.Drops++
		p.Release()
		return
	}
	if s.queued == len(s.buf) {
		grown := make([]*packet.Packet, max(8, 2*len(s.buf)))
		for i := range s.buf {
			grown[i] = s.buf[(s.head+i)&(len(s.buf)-1)]
		}
		s.buf, s.head = grown, 0
	}
	s.buf[(s.head+s.queued)&(len(s.buf)-1)] = p
	s.queued++
	s.bufB += p.Len()
	s.proc.pending++
	s.Received++
	s.proc.task.Wake()
}

// SendUDP transmits payload from the process's port to dst — Click's
// sendto on a tunnel socket. The CPU cost was charged when the packet
// that triggered this send was processed. The payload is copied (into
// pooled headroom), so callers may reuse it.
func (p *Process) SendUDP(srcPort uint16, dst netip.AddrPort, payload []byte, ttl uint8) {
	pkt := packet.Get()
	pkt.SetData(payload)
	p.SendUDPPacket(srcPort, dst, pkt, ttl)
}

// SendUDPPacket is SendUDP for a packet the caller owns: the UDP and IPv4
// headers are written into the packet's headroom in place (no copy when
// the packet has its headroom available, as tunnel-decapsulated
// packets do). Ownership transfers to the substrate.
func (p *Process) SendUDPPacket(srcPort uint16, dst netip.AddrPort, pkt *packet.Packet, ttl uint8) {
	src := p.node.addr
	packet.EncapUDP(pkt, src, dst.Addr(), srcPort, dst.Port())
	packet.EncapIPv4(pkt, &packet.IPv4{TTL: ttl, Proto: packet.ProtoUDP, Src: src, Dst: dst.Addr()})
	p.node.sendPacket(pkt)
}

// SendIPPacket transmits a raw IP datagram the process owns (Click's
// external sink); its overlay annotations do not leave with it.
func (p *Process) SendIPPacket(pkt *packet.Packet) {
	pkt.Anno = packet.Annotations{}
	p.node.sendPacket(pkt)
}

// work is the scheduler WorkFunc: it consumes the CPU cost of the oldest
// buffered packet and delivers it to the handler when that cost has
// elapsed, so per-packet processing time appears as forwarding latency
// (the +130 µs the paper's Table 3 measures) and not just as CPU load.
func (p *Process) work(budget time.Duration) (time.Duration, bool) {
	s := p.nextReady()
	if s == nil {
		p.pending = 0
		return 0, false
	}
	pkt := s.pop()
	cost := p.node.prof.userPacketCost(pkt.Len())
	if cost > budget {
		cost = budget // a grain is the scheduler's accounting floor
	}
	p.pending--
	p.node.dom.Send(p.node.dom, cost, s, pkt)
	return cost, p.pending > 0
}

// pop dequeues the oldest packet, clearing its slot so the ring never
// pins a packet it no longer holds.
func (s *Socket) pop() *packet.Packet {
	pkt := s.buf[s.head]
	s.buf[s.head] = nil
	s.head = (s.head + 1) & (len(s.buf) - 1)
	s.queued--
	s.bufB -= pkt.Len()
	return pkt
}

// Invoke hands a packet whose processing cost has elapsed to the handler.
func (s *Socket) Invoke(arg any) {
	pkt := arg.(*packet.Packet)
	if s.closed {
		// The process was torn down while this delivery was in flight;
		// the handler's world no longer exists.
		pkt.Release()
		return
	}
	s.handler(pkt)
}

// DropArg releases a delivery that a replica domain refuses to schedule.
func (s *Socket) DropArg(arg any) { arg.(*packet.Packet).Release() }

// SetPaused freezes or thaws the process: inbound packets tail-drop at
// its sockets and the scheduler task is parked (so buffered work stops
// too). Must run in the node's domain or at a barrier.
func (p *Process) SetPaused(v bool) {
	if p.closed || p.paused == v {
		return
	}
	p.paused = v
	p.task.SetSuspended(v)
}

// Close tears the process down: every socket is closed and its buffered
// packets returned to the pool, port bindings and tap/port-range
// captures are removed from the node, the process is deregistered, and
// its scheduler task removed. Idempotent. Must run in the node's domain
// or at a barrier. Deliveries already paid for (scheduled by work) drain
// harmlessly: the closed flag makes them release their packet.
func (p *Process) Close() {
	if p.closed {
		return
	}
	p.closed = true
	n := p.node
	for _, s := range p.socks {
		s.closed = true
		if s.port != 0 && n.udpPorts[s.port] == s {
			delete(n.udpPorts, s.port)
		}
		for s.queued > 0 {
			s.pop().Release()
		}
	}
	p.pending = 0
	taps := n.taps[:0]
	for _, t := range n.taps {
		if t.sock.proc != p {
			taps = append(taps, t)
		}
	}
	n.taps = taps
	ranges := n.portRanges[:0]
	for _, r := range n.portRanges {
		if r.sock.proc != p {
			ranges = append(ranges, r)
		}
	}
	n.portRanges = ranges
	for i, x := range n.procs {
		if x == p {
			n.procs = append(n.procs[:i], n.procs[i+1:]...)
			break
		}
	}
	n.CPU.RemoveTask(p.task)
}

// nextReady returns the socket with the oldest waiting packet, so service
// order matches arrival order across sockets (what poll gives Click).
func (p *Process) nextReady() *Socket {
	var best *Socket
	var bestT time.Duration
	for _, s := range p.socks {
		if s.queued == 0 {
			continue
		}
		t := s.buf[s.head].Anno.Timestamp
		if best == nil || t < bestT {
			best, bestT = s, t
		}
	}
	return best
}
