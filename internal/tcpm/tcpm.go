// Package tcpm implements the TCP Reno endpoints the paper's traffic
// tools need: iperf's bulk-transfer test (Tables 2 and 4, Figure 9) is a
// Reno sender against a fixed receive window — 16 KB in Figure 9, which
// is what caps throughput at ~window/RTT — and the per-packet arrival
// log a receiver keeps is exactly the tcpdump trace Figure 9(b) plots.
//
// Implemented behaviour: three-way handshake, slow start, congestion
// avoidance, fast retransmit/fast recovery on triple duplicate ACKs,
// RFC 6298 retransmission timeout with exponential backoff, delayed
// ACKs, receive-window flow control with out-of-order reassembly, and
// slow-start restart after idle (visible in Figure 9(b)).
package tcpm

import (
	"net/netip"
	"time"

	"vini/internal/packet"
	"vini/internal/sim"
)

const (
	// mss is the maximum segment size: Ethernet MTU minus IP and TCP
	// headers plus the timestamp option budget iperf saw.
	mss = 1448
	// minRTO clamps the retransmission timeout: the Linux minimum of the
	// era.
	minRTO = 200 * time.Millisecond
	// initialSsthresh is the slow-start threshold a connection opens with.
	initialSsthresh = 64 << 10
)

// Config parameterizes an endpoint pair.
type Config struct {
	// RcvWnd is the receiver's advertised window in bytes (default
	// 16 KB, iperf 1.7.0's default per the paper).
	RcvWnd int
}

func (c *Config) setDefaults() {
	if c.RcvWnd <= 0 {
		c.RcvWnd = 16 << 10
	}
}

// Output transmits an IP datagram the endpoint built in a pooled packet
// (typically Node.StackSendPacket). Ownership of the packet transfers.
type Output func(p *packet.Packet)

// segment builds an IPv4/TCP datagram with n zero payload bytes in place
// in a pooled packet: the bytes of packet.BuildTCP over make([]byte, n).
func segment(src, dst netip.Addr, th *packet.TCP, n int) *packet.Packet {
	p := packet.Get()
	clear(p.Extend(n))
	packet.EncapTCP(p, src, dst, th)
	packet.EncapIPv4(p, &packet.IPv4{TTL: 64, Proto: packet.ProtoTCP, Src: src, Dst: dst})
	return p
}

// Arrival is one data-segment arrival at the receiver, Figure 9(b)'s
// y-axis (position in the byte stream) against its x-axis (time).
type Arrival struct {
	At     time.Duration
	Offset uint32 // position in stream of the segment's first byte
	Len    uint32 // 32 bits, like Offset: an Arrival is 16 bytes, not 24
}

// Receiver is the sink endpoint.
type Receiver struct {
	cfg     Config
	clock   sim.Clock
	out     Output
	local   netip.Addr
	port    uint16
	peer    netip.Addr
	pport   uint16
	started bool
	// rcvNxt is the next expected sequence number.
	rcvNxt uint32
	isn    uint32
	// ooo holds out-of-order segments by sequence number.
	ooo map[uint32]int
	// Bytes counts in-order payload bytes delivered.
	Bytes uint64
	// Arrivals is the tcpdump-style per-segment log (data segments that
	// advanced or filled the stream, including retransmissions).
	Arrivals []Arrival
	// delayed-ACK state: one un-ACKed segment allowed.
	ackPending bool
	ackTimer   sim.Timer
	onAckTimer func() // r.sendAckNow bound once (no method value per ACK)
}

// NewReceiver creates a listening endpoint; wire its Deliver to the
// node's TCP stack handler for the chosen port.
func NewReceiver(clock sim.Clock, cfg Config, local netip.Addr, port uint16, out Output) *Receiver {
	cfg.setDefaults()
	r := &Receiver{cfg: cfg, clock: clock, out: out, local: local, port: port,
		ooo: make(map[uint32]int)}
	r.onAckTimer = r.sendAckNow
	return r
}

// Close cancels the receiver's pending delayed-ACK timer so workload
// teardown leaves the domain heap clean (the owning endpoint releases
// the port registration separately).
func (r *Receiver) Close() {
	if !r.ackTimer.IsZero() {
		r.ackTimer.Stop()
		r.ackTimer = sim.Timer{}
	}
	r.ackPending = false
}

// Deliver feeds an incoming IP datagram addressed to the receiver.
func (r *Receiver) Deliver(dgram []byte) {
	var ip packet.IPv4
	seg, err := ip.Parse(dgram)
	if err != nil {
		return
	}
	var th packet.TCP
	payload, err := th.Parse(seg)
	if err != nil || th.DstPort != r.port {
		return
	}
	switch {
	case th.Flags&packet.TCPSyn != 0:
		r.peer = ip.Src
		r.pport = th.SrcPort
		r.isn = th.Seq
		r.rcvNxt = th.Seq + 1
		r.started = true
		r.Bytes = 0
		r.sendFlags(packet.TCPSyn|packet.TCPAck, 0, r.rcvNxt)
	case !r.started:
		// Data before SYN: ignore.
	case len(payload) > 0:
		r.Arrivals = append(r.Arrivals, Arrival{
			At: r.clock.Now(), Offset: th.Seq - r.isn - 1, Len: uint32(len(payload))})
		r.accept(th.Seq, len(payload))
	case th.Flags&packet.TCPFin != 0:
		r.rcvNxt++
		r.sendAckNow()
	}
}

// accept integrates a data segment and schedules acknowledgement.
func (r *Receiver) accept(seq uint32, n int) {
	switch {
	case seq == r.rcvNxt:
		r.rcvNxt += uint32(n)
		r.Bytes += uint64(n)
		// Pull any contiguous out-of-order segments.
		for {
			l, ok := r.ooo[r.rcvNxt]
			if !ok {
				break
			}
			delete(r.ooo, r.rcvNxt)
			r.rcvNxt += uint32(l)
			r.Bytes += uint64(l)
		}
		r.scheduleAck()
	case seqAfter(seq, r.rcvNxt):
		// Out of order within the window: buffer and send immediate
		// duplicate ACK (fast-retransmit trigger at the sender).
		if seq-r.rcvNxt < uint32(r.cfg.RcvWnd) {
			r.ooo[seq] = n
		}
		r.sendAckNow()
	default:
		// Below rcvNxt: a retransmission we already have; ACK at once.
		r.sendAckNow()
	}
}

// scheduleAck implements delayed ACKs: every second segment, or 40 ms.
func (r *Receiver) scheduleAck() {
	if r.ackPending {
		r.sendAckNow()
		return
	}
	r.ackPending = true
	r.ackTimer = r.clock.Schedule(40*time.Millisecond, r.onAckTimer)
}

func (r *Receiver) sendAckNow() {
	if !r.ackTimer.IsZero() {
		r.ackTimer.Stop()
		r.ackTimer = sim.Timer{}
	}
	r.ackPending = false
	r.sendFlags(packet.TCPAck, 0, r.rcvNxt)
}

func (r *Receiver) sendFlags(flags uint8, seq, ack uint32) {
	wnd := r.cfg.RcvWnd - r.oooBytes()
	if wnd < 0 {
		wnd = 0
	}
	if wnd > 0xffff {
		wnd = 0xffff
	}
	th := packet.TCP{SrcPort: r.port, DstPort: r.pport, Seq: seq, Ack: ack,
		Flags: flags, Window: uint16(wnd)}
	r.out(segment(r.local, r.peer, &th, 0))
}

func (r *Receiver) oooBytes() int {
	total := 0
	for _, n := range r.ooo {
		total += n
	}
	return total
}

// seqAfter reports a > b in 32-bit sequence space.
func seqAfter(a, b uint32) bool { return int32(a-b) > 0 }
