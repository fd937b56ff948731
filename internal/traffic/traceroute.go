package traffic

import (
	"net/netip"
	"time"

	"vini/internal/packet"
	"vini/internal/sim"
)

// Hop is one traceroute result line.
type Hop struct {
	TTL  int
	Addr netip.Addr // responder (invalid if timed out)
	RTT  time.Duration
}

// TracerouteConfig parameterizes a trace.
type TracerouteConfig struct {
	Src, Dst netip.Addr
	// maxTTL bounds the probe depth (16 when zero); timeout is the wait
	// per probe (2 s when zero). Only tests shorten them.
	maxTTL  int
	timeout time.Duration
}

// traceroutePort is the probes' UDP destination port base, one no
// service listens on, as classic traceroute uses.
const traceroutePort = 33434

// Traceroute runs UDP-probe traceroute through the node's stack: each
// virtual Click hop that expires the TTL answers with an ICMP time
// exceeded from its tap address, and the destination answers port
// unreachable — exactly the behaviour the IIAS ICMPError elements
// implement. Call Run, advance the simulation, then read Hops.
type Traceroute struct {
	host    *ICMPHost
	clock   sim.Clock
	cfg     TracerouteConfig
	Hops    []Hop
	Done    bool
	current int
	sentAt  time.Duration
	timer   sim.Timer
}

// StartTraceroute begins a trace through the host's node, on its clock.
func (h *ICMPHost) StartTraceroute(cfg TracerouteConfig) *Traceroute {
	if cfg.maxTTL <= 0 {
		cfg.maxTTL = 16
	}
	if cfg.timeout <= 0 {
		cfg.timeout = 2 * time.Second
	}
	tr := &Traceroute{host: h, clock: h.node.Clock(), cfg: cfg}
	h.traces = append(h.traces, tr)
	tr.probe(1)
	return tr
}

// stop abandons the trace, cancelling the pending probe timeout.
func (tr *Traceroute) stop() {
	if tr.Done {
		return
	}
	tr.Done = true
	if !tr.timer.IsZero() {
		tr.timer.Stop()
		tr.timer = sim.Timer{}
	}
}

// Close abandons the trace and detaches it from the host dispatcher.
func (tr *Traceroute) Close() {
	tr.stop()
	for i, t := range tr.host.traces {
		if t == tr {
			tr.host.traces = append(tr.host.traces[:i], tr.host.traces[i+1:]...)
			return
		}
	}
}

func (tr *Traceroute) probe(ttl int) {
	if ttl > tr.cfg.maxTTL {
		tr.Done = true
		return
	}
	tr.current = ttl
	tr.sentAt = tr.clock.Now()
	d := packet.BuildUDP(tr.cfg.Src, tr.cfg.Dst, 44444, traceroutePort+uint16(ttl), uint8(ttl), nil)
	tr.host.node.StackSend(d)
	tr.timer = tr.clock.Schedule(tr.cfg.timeout, func() {
		tr.Hops = append(tr.Hops, Hop{TTL: ttl}) // * * *
		tr.probe(ttl + 1)
	})
}

// handleError processes an ICMP error that may answer the current probe.
// It reports whether the error was consumed.
func (tr *Traceroute) handleError(from netip.Addr, icmpType uint8, quote []byte) bool {
	if tr.Done {
		return false
	}
	// The quote is the offending datagram's header plus 8 payload bytes
	// (RFC 792). It is deliberately truncated, so extract fields by
	// offset rather than with the strict parser.
	if len(quote) < packet.IPv4HeaderLen || quote[0]>>4 != 4 {
		return false
	}
	ihl := int(quote[0]&0xf) * 4
	if len(quote) < ihl+4 {
		return false
	}
	osrc := netip.AddrFrom4([4]byte(quote[12:16]))
	odst := netip.AddrFrom4([4]byte(quote[16:20]))
	if odst != tr.cfg.Dst || osrc != tr.cfg.Src {
		return false
	}
	dport := uint16(quote[ihl+2])<<8 | uint16(quote[ihl+3])
	if dport != traceroutePort+uint16(tr.current) {
		return false
	}
	if !tr.timer.IsZero() {
		tr.timer.Stop()
	}
	tr.Hops = append(tr.Hops, Hop{TTL: tr.current, Addr: from, RTT: tr.clock.Now() - tr.sentAt})
	if icmpType == packet.ICMPUnreachable || from == tr.cfg.Dst {
		tr.Done = true
		return true
	}
	tr.probe(tr.current + 1)
	return true
}
