package traffic

// The workload runtime: every measurement tool in this package (ping,
// UDP CBR, iperf-TCP, traceroute, the adaptive sender) is a Workload
// that borrows kernel-stack registrations from a per-node Endpoint and
// returns them on Close. Before this seam existed each tool re-derived
// clock wiring, timer chains and endpoint registration by hand — and
// two of them leaked on teardown (the CBR listener and the ping
// interval timer). The runtime makes teardown auditable: an Endpoint
// counts its live registrations, and simtest's churn-style regimes
// assert the count returns to zero and the domain heaps drain.

import (
	"encoding/binary"
	"net/netip"
	"time"

	"vini/internal/netem"
	"vini/internal/packet"
	"vini/internal/sim"
)

// Workload is the common lifecycle contract. The Start* constructors
// build a workload and call Start; Stop halts send activity (idempotent,
// and re-Startable); Close additionally releases every stack
// registration and pending timer the workload owns, leaving the node
// exactly as it was before the workload attached.
type Workload interface {
	Start()
	Stop()
	Close()
}

// Endpoint owns one node's kernel-stack registrations on behalf of
// workloads: UDP and TCP ports, plus the node's shared ICMP dispatcher.
// Every registration made through it is recorded, and Close releases
// them all (LIFO) so churn-regime ledger audits stay balanced. Create
// endpoints through a Runtime when several workloads share nodes.
type Endpoint struct {
	node    *netem.Node
	udp     []uint16
	tcp     []uint16
	host    *ICMPHost
	closers []func()
	closed  bool
}

// NewEndpoint attaches a fresh endpoint to the node. A node must have at
// most one ICMP-owning endpoint; use Runtime.At for shared access.
func NewEndpoint(node *netem.Node) *Endpoint { return &Endpoint{node: node} }

// Node returns the owning node.
func (e *Endpoint) Node() *netem.Node { return e.node }

// Clock returns the node's domain clock — the timeline every timer and
// send of a workload attached here must use.
func (e *Endpoint) Clock() sim.Clock { return e.node.Clock() }

// ListenUDP registers a kernel UDP listener and records it for Close.
func (e *Endpoint) ListenUDP(port uint16, h netem.StackHandler) error {
	if err := e.node.StackListenUDP(port, h); err != nil {
		return err
	}
	e.udp = append(e.udp, port)
	return nil
}

// UnlistenUDP releases one recorded UDP listener early.
func (e *Endpoint) UnlistenUDP(port uint16) {
	for i, p := range e.udp {
		if p == port {
			e.udp = append(e.udp[:i], e.udp[i+1:]...)
			e.node.StackUnlistenUDP(port)
			return
		}
	}
}

// ListenTCP registers a kernel TCP endpoint and records it for Close.
func (e *Endpoint) ListenTCP(port uint16, h netem.StackHandler) error {
	if err := e.node.StackListenTCP(port, h); err != nil {
		return err
	}
	e.tcp = append(e.tcp, port)
	return nil
}

// ICMP returns the node's ICMP dispatcher, attaching it on first use.
// The endpoint owns the attachment and releases it on Close.
func (e *Endpoint) ICMP() *ICMPHost {
	if e.host == nil {
		e.host = NewICMPHost(e.node)
	}
	return e.host
}

// OnClose registers a teardown hook; hooks run LIFO before the
// registrations are released.
func (e *Endpoint) OnClose(fn func()) { e.closers = append(e.closers, fn) }

// Open counts live registrations (the teardown ledger).
func (e *Endpoint) Open() int {
	if e.closed {
		return 0
	}
	n := len(e.udp) + len(e.tcp)
	if e.host != nil {
		n++
	}
	return n
}

// Close runs the teardown hooks and releases every registration. It is
// idempotent.
func (e *Endpoint) Close() {
	if e.closed {
		return
	}
	for i := len(e.closers) - 1; i >= 0; i-- {
		e.closers[i]()
	}
	e.closers = nil
	for i := len(e.udp) - 1; i >= 0; i-- {
		e.node.StackUnlistenUDP(e.udp[i])
	}
	e.udp = nil
	for i := len(e.tcp) - 1; i >= 0; i-- {
		e.node.StackUnlistenTCP(e.tcp[i])
	}
	e.tcp = nil
	if e.host != nil {
		e.host.Close()
		e.host = nil
	}
	e.closed = true
}

// FrameHeaderLen is the datagram preamble shared by the CBR and
// adaptive workloads: payload[0:4] holds a big-endian sequence number
// and payload[4:12] the sender clock's nanoseconds at transmission —
// the layout the original CBR tool used, now the runtime's common
// framing.
const FrameHeaderLen = 12

// putFrame writes the seq/timestamp preamble.
func putFrame(payload []byte, seq uint32, sentAt time.Duration) {
	binary.BigEndian.PutUint32(payload[0:4], seq)
	binary.BigEndian.PutUint64(payload[4:12], uint64(sentAt))
}

// sendFrame emits one framed UDP datagram of n payload bytes from node,
// written in place into a pooled packet. The payload past the preamble
// is zeroed: the wire bytes of packet.BuildUDP over make([]byte, n).
func sendFrame(node *netem.Node, src, dst netip.Addr, sport, dport uint16,
	n int, seq uint32, sentAt time.Duration) {
	p := packet.Get()
	clear(p.Extend(n))
	putFrame(p.Data, seq, sentAt)
	packet.EncapUDP(p, src, dst, sport, dport)
	packet.EncapIPv4(p, &packet.IPv4{TTL: 64, Proto: packet.ProtoUDP, Src: src, Dst: dst})
	node.StackSendPacket(p)
}

// parseFrame reads the preamble back; ok is false on a short payload.
func parseFrame(payload []byte) (seq uint32, sentAt time.Duration, ok bool) {
	if len(payload) < FrameHeaderLen {
		return 0, 0, false
	}
	return binary.BigEndian.Uint32(payload[0:4]),
		time.Duration(binary.BigEndian.Uint64(payload[4:12])), true
}

// RateController is the datagram half of the runtime's rate seam (the
// window half is tcpm.Reno): the paced sender asks it for the
// current target rate before every datagram. Implementations must be
// deterministic and must only be driven from the sender's domain.
type RateController interface {
	// TargetBps returns the current target send rate in bits/second.
	TargetBps() float64
}

// FixedRate is the constant-bit-rate controller the classic CBR tool
// runs on.
type FixedRate struct{ bps float64 }

// NewFixedRate builds a controller pinned at bps.
func NewFixedRate(bps float64) *FixedRate { return &FixedRate{bps: bps} }

// TargetBps returns the pinned rate.
func (f *FixedRate) TargetBps() float64 { return f.bps }

// Set retargets the rate (the experiment-spec `rate` action). Call it
// from the sender's domain or at a barrier (driver time, a control event).
func (f *FixedRate) Set(bps float64) { f.bps = bps }

// paceInterval is the CBR interarrival formula, preserved verbatim from
// the original sender so FixedRate pacing is bit-identical: wire bytes
// (payload + UDP + IP headers) times 8, over the rate, in seconds.
func paceInterval(wireBytes int, rateBps float64) time.Duration {
	return time.Duration(float64(wireBytes) * 8 / rateBps * float64(time.Second))
}

// Interface conformance for every tool in the package.
var (
	_ Workload = (*Ping)(nil)
	_ Workload = (*UDPCBR)(nil)
	_ Workload = (*IperfTCP)(nil)
	_ Workload = (*Traceroute)(nil)
	_ Workload = (*Adaptive)(nil)
	_ Workload = (*DemandFlows)(nil)
)
