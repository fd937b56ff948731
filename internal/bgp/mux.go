package bgp

import (
	"fmt"
	"net/netip"
	"time"

	"vini/internal/sim"
)

// Mux is the BGP multiplexer of Section 6.1: external networks will not
// maintain one session per experiment, so the mux terminates the single
// session with the neighboring domain and fans it out to per-experiment
// speakers. It enforces two safeguards the paper calls out:
//
//   - each experiment announces only prefixes inside its allocated slice
//     of VINI's address block (announcements outside it are dropped and
//     counted), and
//   - the rate of BGP updates an experiment may propagate upstream is
//     capped by a token bucket, so unstable experimental software cannot
//     destabilize the real Internet.
type Mux struct {
	speaker     *Speaker
	clock       sim.Clock
	experiments map[string]*muxExperiment
	// Rejected counts announcements dropped by the ownership filter.
	Rejected uint64
	// RateDropped counts updates dropped by rate limiting.
	RateDropped uint64
}

type muxExperiment struct {
	name   string
	block  netip.Prefix
	tokens float64
	rate   float64 // updates per second
	burst  float64
	last   time.Duration
}

// MuxConfig configures the shared external side.
type MuxConfig struct {
	// Speaker is the mux's own BGP instance holding the external
	// session(s); callers add the external peer to it directly.
	ASN         uint32
	RouterID    uint32
	NextHopSelf netip.Addr
	HoldTime    time.Duration
}

// NewMux creates a multiplexer.
func NewMux(clock sim.Clock, cfg MuxConfig) *Mux {
	return &Mux{
		speaker: NewSpeaker(clock, Config{ASN: cfg.ASN, RouterID: cfg.RouterID,
			NextHopSelf: cfg.NextHopSelf, HoldTime: cfg.HoldTime}),
		clock:       clock,
		experiments: make(map[string]*muxExperiment),
	}
}

// Speaker exposes the mux's external-facing BGP instance so the single
// upstream adjacency can be attached (AddPeer with EBGP: true).
func (m *Mux) Speaker() *Speaker { return m.speaker }

// Register admits an experiment with its allocated address block and an
// update rate limit (updates/second with the given burst).
func (m *Mux) Register(name string, block netip.Prefix, rate, burst float64) error {
	if _, dup := m.experiments[name]; dup {
		return fmt.Errorf("bgp: experiment %q already registered", name)
	}
	if rate <= 0 {
		rate = 1
	}
	if burst <= 0 {
		burst = 5
	}
	m.experiments[name] = &muxExperiment{
		name: name, block: block.Masked(), rate: rate, burst: burst,
		tokens: burst, last: m.clock.Now(),
	}
	return nil
}

// Announce propagates an experiment's announcement upstream if it passes
// the ownership filter and rate limit.
func (m *Mux) Announce(experiment string, p netip.Prefix, attrs PathAttrs) error {
	e, ok := m.experiments[experiment]
	if !ok {
		return fmt.Errorf("bgp: unknown experiment %q", experiment)
	}
	if !prefixWithin(e.block, p) {
		m.Rejected++
		return fmt.Errorf("bgp: %s may not announce %v (allocated %v)", experiment, p, e.block)
	}
	if !e.takeToken(m.clock.Now()) {
		m.RateDropped++
		return fmt.Errorf("bgp: %s exceeded its update rate", experiment)
	}
	m.speaker.Originate(p, attrs)
	return nil
}

// ExternalRoutes returns the routes learned from the shared external
// adjacency, which the mux redistributes to every experiment's routing
// table (the experiments see the full external view).
func (m *Mux) ExternalRoutes() []Route {
	var out []Route
	for _, r := range m.speaker.LocRIB() {
		if r.From != "" {
			out = append(out, r)
		}
	}
	return out
}

func (e *muxExperiment) takeToken(now time.Duration) bool {
	dt := (now - e.last).Seconds()
	e.last = now
	e.tokens += float64(dt * e.rate) // rounded: no fused multiply-add
	if e.tokens > e.burst {
		e.tokens = e.burst
	}
	if e.tokens < 1 {
		return false
	}
	e.tokens--
	return true
}

// prefixWithin reports whether p is equal to or a subnet of block.
func prefixWithin(block, p netip.Prefix) bool {
	return p.Bits() >= block.Bits() && block.Contains(p.Addr())
}
