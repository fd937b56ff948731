// Package rip implements a RIPv2-style distance-vector protocol, the
// second interior protocol in the XORP suite IIAS uses as its control
// plane. It exists both for completeness and for the paper's concluding
// usage mode — running different routing protocols in parallel on the
// same physical infrastructure (one slice OSPF, another RIP).
//
// Implemented behaviour: periodic full updates, split horizon with
// poisoned reverse, triggered updates on metric changes, the 16-hop
// infinity, route timeout and garbage collection.
package rip

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"slices"
	"time"

	"vini/internal/fib"
	"vini/internal/sim"
)

// infinity is the RIP unreachable metric.
const infinity = 16

// Transport sends a RIP packet out a virtual interface (same contract as
// ospf.Transport: payload is lent until SendRouting returns).
type Transport interface {
	SendRouting(ifIndex int, payload []byte)
}

// Interface is one point-to-point virtual interface.
type Interface struct {
	Name   string
	Index  int
	Addr   netip.Addr
	Prefix netip.Prefix
}

// Config parameterizes a router.
type Config struct {
	// Update is the periodic advertisement interval (RFC: 30 s).
	Update time.Duration
	// Stubs are local prefixes advertised at metric 1.
	Stubs []netip.Prefix
	// Ticks, when set, carries the periodic update timer — typically a
	// sim.TickWheel coalescing many routers' ticks into shared slot
	// events. Nil means the main clock.
	Ticks sim.Clock

	// timeout marks a route stale (6 updates when zero: RFC 180 s); gc
	// removes a stale route after advertising its death (4 updates when
	// zero: RFC 120 s). Only this package's tests set them.
	timeout, gc time.Duration
}

func (c *Config) setDefaults() {
	if c.Update <= 0 {
		c.Update = 30 * time.Second
	}
	if c.timeout <= 0 {
		c.timeout = 6 * c.Update
	}
	if c.gc <= 0 {
		c.gc = 4 * c.Update
	}
}

// entry is one learned route.
type entry struct {
	prefix  netip.Prefix
	metric  uint32
	nextHop netip.Addr
	ifIndex int
	learned time.Duration
	deadAt  time.Duration // when metric became Infinity (for GC)
	local   bool
}

// Router is one RIP speaker.
type Router struct {
	cfg   Config
	clock sim.Clock
	// ticks carries the periodic timer (cfg.Ticks, or clock when unset).
	ticks    sim.Clock
	tr       Transport
	ifaces   []*Interface
	table    map[netip.Prefix]*entry
	onRoutes func([]fib.Route)
	// onEvent observes protocol activity (telemetry hook): "advertise"
	// with the number of routes emitted, "expire" with the number of
	// routes newly marked unreachable.
	onEvent func(event string, n int)
	// lastRoutes is the most recently emitted route set (see Routes).
	lastRoutes []fib.Route
	started    bool
	timer      sim.Timer
	// periodicFn is the update timer's callback, bound once.
	periodicFn func()
}

// New creates a router; call AddInterface then Start.
func New(clock sim.Clock, cfg Config, tr Transport) *Router {
	cfg.setDefaults()
	ticks := cfg.Ticks
	if ticks == nil {
		ticks = clock
	}
	r := &Router{cfg: cfg, clock: clock, ticks: ticks, tr: tr, table: make(map[netip.Prefix]*entry)}
	r.periodicFn = r.periodic
	return r
}

// AddInterface registers an interface before Start.
func (r *Router) AddInterface(ifc Interface) error {
	if r.started {
		return fmt.Errorf("rip: AddInterface after Start")
	}
	c := ifc
	r.ifaces = append(r.ifaces, &c)
	return nil
}

// OnRoutes installs the FEA hook.
func (r *Router) OnRoutes(fn func([]fib.Route)) { r.onRoutes = fn }

// OnEvent installs an observer for protocol activity; it fires in the
// router's clock domain (telemetry timeline hook).
func (r *Router) OnEvent(fn func(event string, n int)) { r.onEvent = fn }

// Start seeds local routes and begins periodic updates.
func (r *Router) Start() {
	if r.started {
		return
	}
	r.started = true
	for _, p := range r.cfg.Stubs {
		r.table[p.Masked()] = &entry{prefix: p.Masked(), metric: 0, local: true}
	}
	for _, ifc := range r.ifaces {
		p := ifc.Prefix.Masked()
		r.table[p] = &entry{prefix: p, metric: 0, local: true, ifIndex: ifc.Index}
	}
	r.emit()
	r.periodic()
}

// Stop cancels the periodic timer.
func (r *Router) Stop() {
	r.started = false
	if !r.timer.IsZero() {
		r.timer.Stop()
	}
}

func (r *Router) periodic() {
	if !r.started {
		return
	}
	r.expire()
	r.sendUpdates(false)
	r.timer = r.ticks.Schedule(r.cfg.Update, r.periodicFn)
}

func (r *Router) expire() {
	now := r.clock.Now()
	expired := 0
	for p, e := range r.table {
		if e.local {
			continue
		}
		if e.metric < infinity && now-e.learned > r.cfg.timeout {
			e.metric = infinity
			e.deadAt = now
			expired++
		}
		if e.metric >= infinity && e.deadAt != 0 && now-e.deadAt > r.cfg.gc {
			delete(r.table, p)
		}
	}
	if expired > 0 {
		if r.onEvent != nil {
			r.onEvent("expire", expired)
		}
		r.emit()
	}
}

// sendUpdates advertises the table on every interface with split horizon
// and poisoned reverse.
func (r *Router) sendUpdates(_ bool) {
	if r.onEvent != nil && len(r.ifaces) > 0 {
		r.onEvent("advertise", len(r.table))
	}
	for _, ifc := range r.ifaces {
		var ads []advert
		prefixes := make([]netip.Prefix, 0, len(r.table))
		for p := range r.table {
			prefixes = append(prefixes, p)
		}
		slices.SortFunc(prefixes, fib.PrefixTextCompare)
		for _, p := range prefixes {
			e := r.table[p]
			m := e.metric + 1
			if m > infinity {
				m = infinity
			}
			if !e.local && e.ifIndex == ifc.Index {
				m = infinity // poisoned reverse
			}
			ads = append(ads, advert{prefix: p, metric: m})
		}
		if len(ads) > 0 {
			r.tr.SendRouting(ifc.Index, marshalUpdate(ads))
		}
	}
}

// Receive processes a RIP packet from a neighbor.
func (r *Router) Receive(ifIndex int, src netip.Addr, payload []byte) error {
	if !r.started {
		return nil
	}
	ads, err := parseUpdate(payload)
	if err != nil {
		return err
	}
	now := r.clock.Now()
	changed := false
	for _, ad := range ads {
		p := ad.prefix.Masked()
		m := ad.metric
		if m > infinity {
			m = infinity
		}
		cur, have := r.table[p]
		switch {
		case have && cur.local:
			// Never override local routes.
		case !have && m < infinity:
			r.table[p] = &entry{prefix: p, metric: m, nextHop: src, ifIndex: ifIndex, learned: now}
			changed = true
		case have && cur.nextHop == src && cur.ifIndex == ifIndex:
			// Update from the current next hop always applies.
			if m != cur.metric {
				cur.metric = m
				changed = true
				if m >= infinity {
					cur.deadAt = now
				}
			}
			if m < infinity {
				cur.learned = now
			}
		case have && m < cur.metric:
			cur.metric = m
			cur.nextHop = src
			cur.ifIndex = ifIndex
			cur.learned = now
			changed = true
		}
	}
	if changed {
		r.emit()
		r.sendUpdates(true) // triggered update
	}
	return nil
}

// emit pushes the current route set to the FEA hook.
func (r *Router) emit() {
	if r.onRoutes == nil {
		return
	}
	var routes []fib.Route
	for _, e := range r.table {
		if e.local || e.metric >= infinity {
			continue
		}
		routes = append(routes, fib.Route{
			Prefix:  e.prefix,
			NextHop: e.nextHop,
			OutPort: e.ifIndex,
			Metric:  e.metric,
		})
	}
	slices.SortFunc(routes, byPrefixText)
	r.lastRoutes = append(r.lastRoutes[:0], routes...)
	r.onRoutes(routes)
}

// Routes returns a copy of the route set most recently handed to the
// FEA, for the control-plane/data-plane consistency checkers.
func (r *Router) Routes() []fib.Route {
	out := make([]fib.Route, len(r.lastRoutes))
	copy(out, r.lastRoutes)
	return out
}

func byPrefixText(a, b fib.Route) int { return fib.PrefixTextCompare(a.Prefix, b.Prefix) }

// advert is one route in an update.
type advert struct {
	prefix netip.Prefix
	metric uint32
}

// marshalUpdate encodes a RIPv2-style response packet.
func marshalUpdate(ads []advert) []byte {
	out := make([]byte, 4, 4+len(ads)*12)
	out[0] = 2 // command: response
	out[1] = 2 // version
	binary.BigEndian.PutUint16(out[2:4], uint16(len(ads)))
	for _, ad := range ads {
		a := ad.prefix.Addr().As4()
		out = append(out, a[:]...)
		out = append(out, byte(ad.prefix.Bits()), 0, 0, 0)
		out = binary.BigEndian.AppendUint32(out, ad.metric)
	}
	return out
}

func parseUpdate(b []byte) ([]advert, error) {
	if len(b) < 4 || b[0] != 2 || b[1] != 2 {
		return nil, fmt.Errorf("rip: bad packet header")
	}
	n := int(binary.BigEndian.Uint16(b[2:4]))
	b = b[4:]
	if len(b) < 12*n {
		return nil, fmt.Errorf("rip: truncated update")
	}
	ads := make([]advert, 0, n)
	for i := 0; i < n; i++ {
		addr := netip.AddrFrom4([4]byte(b[0:4]))
		bits := int(b[4])
		if bits > 32 {
			return nil, fmt.Errorf("rip: bad prefix length %d", bits)
		}
		ads = append(ads, advert{
			prefix: netip.PrefixFrom(addr, bits),
			metric: binary.BigEndian.Uint32(b[8:12]),
		})
		b = b[12:]
	}
	return ads, nil
}
