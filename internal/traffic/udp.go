package traffic

import (
	"net/netip"
	"time"

	"vini/internal/netem"
	"vini/internal/packet"
	"vini/internal/sim"
)

// UDPCBRConfig parameterizes iperf's UDP constant-bit-rate test.
type UDPCBRConfig struct {
	// RateBps is the target bit rate.
	RateBps float64
	// Payload is the UDP payload size (the paper uses 1430 bytes).
	Payload int
	// Port is the server port.
	Port uint16
	// SrcAddr/DstAddr override node primary addresses (tap0 for overlay).
	SrcAddr, DstAddr netip.Addr
}

// UDPCBR is a running CBR test: sender on the client node, receiver on
// the server node. The receiver computes iperf's jitter (the RFC 1889
// interarrival-jitter estimator) and loss from sequence gaps — the
// quantities Tables 3/5/6 and Figure 6 report.
type UDPCBR struct {
	// send is the client node's clock, recv the server's: the tick loop
	// runs in the client's domain and the receive path in the server's,
	// so each side reads its own timeline.
	send sim.Clock
	recv sim.Clock
	// cfg.RateBps is read from the client's domain before every datagram
	// and retargeted by SetRate.
	cfg       UDPCBRConfig
	client    *netem.Node
	src       netip.Addr
	dst       netip.Addr
	ep        *endpoint
	seq       uint32
	tickTimer sim.Timer
	onTick    func() // t.tick bound once (no method value per datagram)
	active    bool
	closed    bool
	// Receiver state.
	received  uint32
	maxSeq    uint32
	jitter    float64 // seconds, RFC 1889 smoothed
	lastTrans time.Duration
	haveTrans bool
}

// StartUDPCBR begins the test; Stop it after the measurement interval,
// Close it to release the server-side listener.
func StartUDPCBR(w *netem.Network, client, server *netem.Node, cfg UDPCBRConfig) (*UDPCBR, error) {
	if cfg.Payload <= 0 {
		cfg.Payload = 1430
	}
	if cfg.Payload < frameHeaderLen {
		cfg.Payload = frameHeaderLen
	}
	if cfg.Port == 0 {
		cfg.Port = 5001
	}
	t := &UDPCBR{send: client.Clock(), recv: server.Clock(), cfg: cfg,
		client: client, src: client.Addr(), dst: server.Addr(),
		ep: newEndpoint(server)}
	t.onTick = t.tick
	if cfg.SrcAddr.IsValid() {
		t.src = cfg.SrcAddr
	}
	if cfg.DstAddr.IsValid() {
		t.dst = cfg.DstAddr
	}
	if err := t.ep.listenUDP(cfg.Port, t.receive); err != nil {
		return nil, err
	}
	t.start()
	return t, nil
}

// start begins (or resumes) the paced sender.
func (t *UDPCBR) start() {
	if t.active || t.closed {
		return
	}
	t.active = true
	t.tick()
}

// Stop halts the sender, cancelling the pending tick; the receiver keeps
// listening (and counting late arrivals) until Close.
func (t *UDPCBR) Stop() {
	t.active = false
	if !t.tickTimer.IsZero() {
		t.tickTimer.Stop()
		t.tickTimer = sim.Timer{}
	}
}

// Close stops the sender and releases the server-side UDP listener.
func (t *UDPCBR) Close() {
	t.Stop()
	if !t.closed {
		t.closed = true
		t.ep.close()
	}
}

// SetRate retargets the sending rate (the experiment-spec `rate`
// action); the next datagram is paced at bps. Call it from the client's
// domain or at a barrier (driver time, a control event).
func (t *UDPCBR) SetRate(bps float64) { t.cfg.RateBps = bps }

func (t *UDPCBR) tick() {
	if !t.active {
		return
	}
	sendFrame(t.client, t.src, t.dst, t.cfg.Port+1000, t.cfg.Port,
		t.cfg.Payload, t.seq, t.send.Now())
	t.seq++
	interval := paceInterval(t.cfg.Payload+packet.UDPHeaderLen+packet.IPv4HeaderLen,
		t.cfg.RateBps)
	t.tickTimer = t.send.Schedule(interval, t.onTick)
}

func (t *UDPCBR) receive(dgram []byte) {
	var ip packet.IPv4
	seg, err := ip.Parse(dgram)
	if err != nil {
		return
	}
	var u packet.UDP
	payload, err := u.Parse(seg)
	if err != nil {
		return
	}
	seq, sentAt, ok := parseFrame(payload)
	if !ok {
		return
	}
	t.received++
	if seq > t.maxSeq {
		t.maxSeq = seq
	}
	transit := t.recv.Now() - sentAt
	if t.haveTrans {
		d := transit - t.lastTrans
		if d < 0 {
			d = -d
		}
		// RFC 1889: J += (|D| - J) / 16. The division compiles to a
		// multiply; the conversion rounds it so it is never fused.
		t.jitter += float64((d.Seconds() - t.jitter) / 16)
	}
	t.haveTrans = true
	t.lastTrans = transit
}

// LossRate returns the fraction of sent packets never received,
// counting only packets that had a chance to arrive (sequence space up
// to the highest received, as iperf does).
func (t *UDPCBR) LossRate() float64 {
	if t.maxSeq == 0 && t.received == 0 {
		return 0
	}
	expected := t.maxSeq + 1
	if t.received >= expected {
		return 0
	}
	return float64(expected-t.received) / float64(expected)
}

// Received returns the packets delivered.
func (t *UDPCBR) Received() uint32 { return t.received }

// Sent returns the datagrams emitted so far.
func (t *UDPCBR) Sent() uint32 { return t.seq }

// Jitter returns the final smoothed jitter estimate in milliseconds.
func (t *UDPCBR) Jitter() float64 { return float64(t.jitter * 1000) } // rounded: callers may add it
