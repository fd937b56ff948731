package traffic

// What the measurement tools of this package (ping, UDP CBR, iperf-TCP,
// traceroute, the adaptive sender) share: each has Start, Stop
// (idempotent, re-Startable) and Close, and Close leaves the node as it
// was before the tool attached. The tools that listen on kernel ports
// do it through an endpoint, which records every registration and
// releases them all on close, so simtest's churn-style regimes can
// assert that stack listeners return to zero and the domain heaps drain.

import (
	"encoding/binary"
	"net/netip"
	"time"

	"vini/internal/netem"
	"vini/internal/packet"
)

// endpoint owns one node's kernel-stack registrations on behalf of a
// tool: UDP and TCP ports. Every registration made through it is
// recorded, and close releases them all (LIFO) so churn-regime ledger
// audits stay balanced.
type endpoint struct {
	node   *netem.Node
	udp    []uint16
	tcp    []uint16
	closed bool
}

func newEndpoint(node *netem.Node) *endpoint { return &endpoint{node: node} }

// listenUDP registers a kernel UDP listener and records it for close.
func (e *endpoint) listenUDP(port uint16, h netem.StackHandler) error {
	if err := e.node.StackListenUDP(port, h); err != nil {
		return err
	}
	e.udp = append(e.udp, port)
	return nil
}

// listenTCP registers a kernel TCP endpoint and records it for close.
func (e *endpoint) listenTCP(port uint16, h netem.StackHandler) error {
	if err := e.node.StackListenTCP(port, h); err != nil {
		return err
	}
	e.tcp = append(e.tcp, port)
	return nil
}

// close releases every registration. It is idempotent.
func (e *endpoint) close() {
	if e.closed {
		return
	}
	for i := len(e.udp) - 1; i >= 0; i-- {
		e.node.StackUnlistenUDP(e.udp[i])
	}
	e.udp = nil
	for i := len(e.tcp) - 1; i >= 0; i-- {
		e.node.StackUnlistenTCP(e.tcp[i])
	}
	e.tcp = nil
	e.closed = true
}

// frameHeaderLen is the datagram preamble shared by the CBR and
// adaptive workloads: payload[0:4] holds a big-endian sequence number
// and payload[4:12] the sender clock's nanoseconds at transmission —
// the layout the original CBR tool used.
const frameHeaderLen = 12

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
	if len(payload) < frameHeaderLen {
		return 0, 0, false
	}
	return binary.BigEndian.Uint32(payload[0:4]),
		time.Duration(binary.BigEndian.Uint64(payload[4:12])), true
}

// paceInterval is the CBR interarrival formula, preserved verbatim from
// the original sender so CBR pacing is bit-identical: wire bytes
// (payload + UDP + IP headers) times 8, over the rate, in seconds.
func paceInterval(wireBytes int, rateBps float64) time.Duration {
	return time.Duration(float64(wireBytes) * 8 / rateBps * float64(time.Second))
}
