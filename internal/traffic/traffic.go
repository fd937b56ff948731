// Package traffic implements the measurement tools the paper's
// evaluation uses: iperf 1.7.0's TCP throughput test (N parallel
// streams) and UDP constant-bit-rate test (RFC 1889 interarrival jitter
// and loss), plus ping -f's RTT statistics. The endpoints attach to
// netem nodes as kernel-resident applications and work identically over
// the native network and over an IIAS overlay (where the node's tap0
// route hands their packets to the slice's Click process).
package traffic

import (
	"fmt"
	"net/netip"
	"time"

	"vini/internal/netem"
	"vini/internal/packet"
	"vini/internal/sim"
)

// ICMPHost owns a node's ICMP delivery: it answers echo requests (every
// host does), dispatches echo replies to the ping clients that sent
// them, and routes ICMP errors to running traceroutes. Create at most
// one per node.
type ICMPHost struct {
	node    *netem.Node
	clients map[uint16]*Ping
	traces  []*Traceroute
	// nextID allocates ping identifiers per host (per world): a shared
	// package counter here would be cross-world mutable state.
	nextID uint16
}

// NewICMPHost attaches the dispatcher to the node.
func NewICMPHost(node *netem.Node) *ICMPHost {
	h := &ICMPHost{node: node, clients: make(map[uint16]*Ping), nextID: 0x1000}
	node.StackListenICMP(h.deliver)
	return h
}

func (h *ICMPHost) deliver(dgram []byte) {
	var ip packet.IPv4
	payload, err := ip.Parse(dgram)
	if err != nil {
		return
	}
	var ic packet.ICMP
	body, err := ic.Parse(payload)
	if err != nil {
		return
	}
	switch ic.Type {
	case packet.ICMPEcho:
		// Respond, echoing the body, from the address that was pinged.
		reply := packet.BuildICMPEcho(ip.Dst, ip.Src, true, ic.ID, ic.Seq, 64, body)
		h.node.StackSend(reply)
	case packet.ICMPEchoReply:
		if p, ok := h.clients[ic.ID]; ok {
			p.reply(ic.Seq)
		}
	case packet.ICMPTimeExceeded, packet.ICMPUnreachable:
		for _, tr := range h.traces {
			if tr.handleError(ip.Src, ic.Type, body) {
				return
			}
		}
	}
}

// PingConfig parameterizes a ping client.
type PingConfig struct {
	Src, Dst netip.Addr
	Interval time.Duration // default 200 ms (ping -f adaptive floor here)
	Count    int           // 0 = until Stop
	Timeout  time.Duration // per-echo loss timeout (default 2 s)
}

// pingPayload is the echo payload in bytes, ping's default.
const pingPayload = 56

// PingSample is one echo's outcome, Figure 8's plotted points.
type PingSample struct {
	At   time.Duration // send time
	RTT  time.Duration
	Lost bool
}

// Ping is a running echo client.
type Ping struct {
	host   *ICMPHost
	clock  sim.Clock
	cfg    PingConfig
	id     uint16
	seq    uint16
	sent   map[uint16]time.Duration
	timers map[uint16]sim.Timer
	// tickTimer is the pending interval tick; Stop cancels it so
	// teardown leaves nothing live in the domain heap.
	tickTimer sim.Timer
	onTick    func() // p.tick bound once (no method value per echo)
	stopped   bool
	// RTTs aggregates in milliseconds (ping's min/avg/max/mdev line).
	RTTs sim.Stats
	// Timeline records every sample in order.
	Timeline []PingSample
	// Sent and Lost count totals.
	Sent, Lost int
}

// StartPing launches a ping client through the host dispatcher, clocked
// by the host node so the echo tick and the reply path share its time
// domain.
func (h *ICMPHost) StartPing(cfg PingConfig) *Ping {
	if cfg.Interval <= 0 {
		cfg.Interval = 200 * time.Millisecond
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	h.nextID++
	p := &Ping{host: h, clock: h.node.Clock(), cfg: cfg, id: h.nextID,
		sent: make(map[uint16]time.Duration), timers: make(map[uint16]sim.Timer)}
	h.clients[p.id] = p
	p.onTick = p.tick
	p.tick()
	return p
}

// Stop halts the client, cancelling its pending echo-loss timeouts and
// the interval tick so nothing of it stays live in the domain heap.
func (p *Ping) Stop() {
	p.stopped = true
	delete(p.host.clients, p.id)
	for _, t := range p.timers {
		t.Stop()
	}
	if !p.tickTimer.IsZero() {
		p.tickTimer.Stop()
		p.tickTimer = sim.Timer{}
	}
}

func (p *Ping) tick() {
	if p.stopped || (p.cfg.Count > 0 && p.Sent >= p.cfg.Count) {
		return
	}
	p.seq++
	seq := p.seq
	now := p.clock.Now()
	p.sent[seq] = now
	p.Sent++
	echo := packet.BuildICMPEcho(p.cfg.Src, p.cfg.Dst, false, p.id, seq, 64,
		make([]byte, pingPayload))
	p.host.node.StackSend(echo)
	p.timers[seq] = p.clock.Schedule(p.cfg.Timeout, func() {
		if at, ok := p.sent[seq]; ok {
			delete(p.sent, seq)
			delete(p.timers, seq)
			p.Lost++
			p.Timeline = append(p.Timeline, PingSample{At: at, Lost: true})
		}
	})
	p.tickTimer = p.clock.Schedule(p.cfg.Interval, p.onTick)
}

func (p *Ping) reply(seq uint16) {
	at, ok := p.sent[seq]
	if !ok {
		return // late duplicate
	}
	delete(p.sent, seq)
	if t, ok := p.timers[seq]; ok {
		t.Stop()
		delete(p.timers, seq)
	}
	rtt := p.clock.Now() - at
	p.RTTs.AddDuration(rtt)
	p.Timeline = append(p.Timeline, PingSample{At: at, RTT: rtt})
}

// LossRate returns the fraction of echoes lost.
func (p *Ping) LossRate() float64 {
	if p.Sent == 0 {
		return 0
	}
	return float64(p.Lost) / float64(p.Sent)
}

// String summarises like ping's last line.
func (p *Ping) String() string {
	return fmt.Sprintf("%d sent, %.1f%% loss, rtt %s",
		p.Sent, 100*p.LossRate(), p.RTTs.String())
}
