package tcpm

import (
	"net/netip"
	"time"

	"vini/internal/packet"
	"vini/internal/sim"
)

// Sender is the Reno bulk-transfer endpoint.
type Sender struct {
	cfg   Config
	clock sim.Clock
	out   Output

	local, peer netip.Addr
	port, pport uint16
	totalBytes  uint64 // 0 = unlimited (run until Stop)
	state       string // "idle", "syn-sent", "established", "done"
	isn         uint32
	sndUna      uint32 // oldest unacknowledged
	sndNxt      uint32 // next to send
	cc          *reno
	rwnd        int
	dupAcks     int
	inRecovery  bool
	recoverSeq  uint32
	// RTO state per RFC 6298.
	srtt, rttvar time.Duration
	rto          time.Duration
	backoff      int
	rtoTimer     sim.Timer
	onRTOTimer   func() // s.onRTO bound once (no method value per re-arm)
	// rttSeq/rttAt sample one segment per window (Karn's algorithm:
	// never sample retransmitted segments).
	rttSeq   uint32
	rttAt    time.Duration
	rttValid bool
	lastSend time.Duration
	// Stats.
	Retransmits uint64
	Timeouts    uint64
}

// NewSender creates a connected sender; wire Deliver to the node's TCP
// stack handler for the source port.
func NewSender(clock sim.Clock, cfg Config, local netip.Addr, port uint16,
	peer netip.Addr, pport uint16, out Output) *Sender {
	cfg.setDefaults()
	s := &Sender{
		cfg: cfg, clock: clock, out: out,
		local: local, peer: peer, port: port, pport: pport,
		state: "idle",
		rto:   time.Second,
		rwnd:  cfg.RcvWnd,
		cc:    newReno(),
	}
	s.onRTOTimer = s.onRTO
	return s
}

// Start begins a transfer of total bytes (0 = unbounded).
func (s *Sender) Start(total uint64) {
	s.totalBytes = total
	s.state = "syn-sent"
	s.isn = 0
	s.sndUna = s.isn
	s.sndNxt = s.isn
	s.cc.open()
	s.sendSeg(packet.TCPSyn, s.sndNxt, 0)
	s.sndNxt++
	s.armRTO()
}

// Stop abandons the transfer.
func (s *Sender) Stop() {
	s.state = "done"
	if !s.rtoTimer.IsZero() {
		s.rtoTimer.Stop()
	}
}

// acked returns the number of payload bytes acknowledged so far.
func (s *Sender) acked() uint64 {
	if s.state == "idle" || s.state == "syn-sent" {
		return 0
	}
	return uint64(s.sndUna - s.isn - 1)
}

// Deliver feeds an incoming IP datagram (ACKs from the receiver).
func (s *Sender) Deliver(dgram []byte) {
	if s.state == "done" || s.state == "idle" {
		return
	}
	var ip packet.IPv4
	seg, err := ip.Parse(dgram)
	if err != nil {
		return
	}
	var th packet.TCP
	if _, err := th.Parse(seg); err != nil || th.DstPort != s.port {
		return
	}
	if th.Flags&packet.TCPAck == 0 {
		return
	}
	s.rwnd = int(th.Window)
	if s.state == "syn-sent" {
		if th.Flags&packet.TCPSyn == 0 || th.Ack != s.sndNxt {
			return
		}
		s.state = "established"
		s.sndUna = s.sndNxt
		s.sendSeg(packet.TCPAck, s.sndNxt, 0) // complete handshake
		s.clearRTO()
		s.pump()
		return
	}
	s.handleAck(th.Ack)
}

func (s *Sender) handleAck(ack uint32) {
	switch {
	case seqAfter(ack, s.sndUna):
		acked := ack - s.sndUna
		s.sndUna = ack
		s.backoff = 0
		// RTT sample (Karn: only if the sampled segment wasn't
		// retransmitted, tracked via rttValid).
		if s.rttValid && seqAfter(ack, s.rttSeq) {
			s.sampleRTT(s.clock.Now() - s.rttAt)
			s.rttValid = false
		}
		if s.inRecovery {
			if !seqAfter(s.recoverSeq, ack) {
				// Full recovery: deflate.
				s.inRecovery = false
				s.cc.exitRecovery()
				s.dupAcks = 0
			} else {
				// Partial ACK: retransmit next hole immediately.
				s.retransmitFirst()
				s.cc.onPartialAck(float64(acked))
			}
		} else {
			s.dupAcks = 0
			s.cc.onNewAck()
		}
		if s.done() {
			s.state = "done"
			s.clearRTO()
			return
		}
		s.armRTO()
		s.pump()
	case ack == s.sndUna && s.inflight() > 0:
		s.dupAcks++
		if s.inRecovery {
			// Window inflation during recovery.
			s.cc.onDupAckInRecovery()
			s.pump()
		} else if s.dupAcks == 3 {
			// Fast retransmit.
			s.cc.enterRecovery(s.inflightF())
			s.inRecovery = true
			s.recoverSeq = s.sndNxt
			s.retransmitFirst()
		}
	}
}

func max64(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func (s *Sender) inflight() int      { return int(s.sndNxt - s.sndUna) }
func (s *Sender) inflightF() float64 { return float64(s.sndNxt - s.sndUna) }

// done reports whether every payload byte is acknowledged.
func (s *Sender) done() bool {
	return s.totalBytes > 0 && s.acked() >= s.totalBytes
}

// pump sends new segments while the congestion and receive windows
// allow, applying slow-start restart after idle periods.
func (s *Sender) pump() {
	if s.state != "established" {
		return
	}
	now := s.clock.Now()
	if s.inflight() == 0 && s.lastSend != 0 && now-s.lastSend > s.rto {
		// Slow-start restart (Figure 9(b)): the connection idled through
		// the outage; restart from a small window.
		s.cc.onIdleRestart()
	}
	for {
		wnd := int(s.cc.window())
		if s.rwnd < wnd {
			wnd = s.rwnd
		}
		if s.inflight() >= wnd {
			return
		}
		sent := uint64(s.sndNxt - s.isn - 1)
		if s.totalBytes > 0 && sent >= s.totalBytes {
			return
		}
		n := mss
		if s.totalBytes > 0 && s.totalBytes-sent < uint64(n) {
			n = int(s.totalBytes - sent)
		}
		if s.inflight()+n > wnd && s.inflight() > 0 {
			return
		}
		seq := s.sndNxt
		s.sendSeg(packet.TCPAck, seq, n)
		s.sndNxt += uint32(n)
		if !s.rttValid {
			s.rttSeq = seq + uint32(n)
			s.rttAt = now
			s.rttValid = true
		}
		s.lastSend = now
		if s.rtoTimer.IsZero() {
			s.armRTO()
		}
	}
}

// retransmitFirst resends the oldest unacknowledged segment.
func (s *Sender) retransmitFirst() {
	n := mss
	if int(s.sndNxt-s.sndUna) < n {
		n = int(s.sndNxt - s.sndUna)
	}
	if n <= 0 {
		return
	}
	s.Retransmits++
	s.rttValid = false // Karn's algorithm
	s.sendSeg(packet.TCPAck, s.sndUna, n)
	s.lastSend = s.clock.Now()
}

// sendSeg emits a segment of n payload bytes (the bulk stream is zeros).
func (s *Sender) sendSeg(flags uint8, seq uint32, n int) {
	th := packet.TCP{SrcPort: s.port, DstPort: s.pport, Seq: seq,
		Flags: flags, Window: uint16(min(s.cfg.RcvWnd, 0xffff))}
	s.out(segment(s.local, s.peer, &th, n))
}

func (s *Sender) sampleRTT(rtt time.Duration) {
	if s.srtt == 0 {
		s.srtt = rtt
		s.rttvar = rtt / 2
	} else {
		d := s.srtt - rtt
		if d < 0 {
			d = -d
		}
		s.rttvar = (3*s.rttvar + d) / 4
		s.srtt = (7*s.srtt + rtt) / 8
	}
	s.rto = s.srtt + 4*s.rttvar
	if s.rto < minRTO {
		s.rto = minRTO
	}
}

func (s *Sender) armRTO() {
	s.clearRTO()
	rto := s.rto << s.backoff
	if rto > time.Minute {
		rto = time.Minute
	}
	s.rtoTimer = s.clock.Schedule(rto, s.onRTOTimer)
}

func (s *Sender) clearRTO() {
	if !s.rtoTimer.IsZero() {
		s.rtoTimer.Stop()
		s.rtoTimer = sim.Timer{}
	}
}

func (s *Sender) onRTO() {
	s.rtoTimer = sim.Timer{}
	if s.state == "done" {
		return
	}
	s.Timeouts++
	if s.state == "syn-sent" {
		s.sendSeg(packet.TCPSyn, s.isn, 0)
		s.backoff++
		s.armRTO()
		return
	}
	if s.inflight() == 0 {
		return // nothing outstanding; timer was stale
	}
	// Timeout: collapse to one segment and re-enter slow start.
	s.cc.onTimeout(s.inflightF())
	s.inRecovery = false
	s.dupAcks = 0
	s.backoff++
	s.retransmitFirst()
	s.armRTO()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
