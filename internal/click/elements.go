package click

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"time"

	"vini/internal/fib"
	"vini/internal/nat"
	"vini/internal/packet"
	"vini/internal/telemetry"
)

func init() {
	register("FromTap", newPassthrough("FromTap"))
	register("FromTunnel", newPassthrough("FromTunnel"))
	register("FromVPN", newPassthrough("FromVPN"))
	register("Discard", newDiscard)
	register("CheckIPHeader", newCheckIPHeader)
	register("DecIPTTL", newDecIPTTL)
	register("LookupIPRoute", newLookupIPRoute)
	register("EncapTunnel", newEncapTunnel)
	register("ToTap", newToTap)
	register("IPNAPT", newIPNAPT)
	register("BandwidthShaper", newBandwidthShaper)
	register("LinkFail", newLinkFail)
	register("DupSuppress", newDupSuppress)
	register("ToTunnel", newToTunnel)
	register("ICMPError", newICMPError)
	register("ToExternal", newToExternal)
	register("ToVPN", newToVPN)
}

// passthrough forwards input 0 to output 0. It names the graph entry
// points (FromTap, FromTunnel, FromVPN) that external drivers push into.
type passthrough struct {
	base
	class string
}

func newPassthrough(class string) constructor {
	return func(name string, args []string) (Element, error) {
		return &passthrough{base: base{name: name}, class: class}, nil
	}
}

func (e *passthrough) Class() string { return e.class }
func (e *passthrough) Push(port int, p *packet.Packet) {
	e.trace("pass", p)
	e.out.output(0, p)
}

// discard drops everything, counting.
type discard struct {
	base
	count uint64
	mDrop *telemetry.Counter
}

func newDiscard(name string, args []string) (Element, error) {
	return &discard{base: base{name: name}}, nil
}

func (e *discard) Class() string                  { return "Discard" }
func (e *discard) Instrument(sc *telemetry.Scope) { e.mDrop = sc.Counter("drops") }
func (e *discard) Push(port int, p *packet.Packet) {
	e.count++
	e.mDrop.Inc()
	e.trace("discard", p)
	p.Release()
}

func (e *discard) Handler(name, value string) (string, error) {
	if name == "count" && value == "" {
		return strconv.FormatUint(e.count, 10), nil
	}
	return "", fmt.Errorf("discard: no handler %q", name)
}

// checkIPHeader validates IPv4 headers; valid packets exit port 0, bad
// ones exit port 1 (or are dropped if port 1 is unconnected).
type checkIPHeader struct {
	base
	bad  uint64
	mBad *telemetry.Counter
}

func newCheckIPHeader(name string, args []string) (Element, error) {
	return &checkIPHeader{base: base{name: name}}, nil
}

func (e *checkIPHeader) Class() string                  { return "CheckIPHeader" }
func (e *checkIPHeader) Instrument(sc *telemetry.Scope) { e.mBad = sc.Counter("bad") }
func (e *checkIPHeader) Push(port int, p *packet.Packet) {
	var ip packet.IPv4
	if _, err := ip.Parse(p.Data); err != nil {
		e.bad++
		e.mBad.Inc()
		e.trace("bad-ip", p)
		e.out.output(1, p)
		return
	}
	e.out.output(0, p)
}

func (e *checkIPHeader) Handler(name, value string) (string, error) {
	if name == "drops" && value == "" {
		return strconv.FormatUint(e.bad, 10), nil
	}
	return "", fmt.Errorf("checkipheader: no handler %q", name)
}

// decIPTTL decrements the TTL in place with an incremental checksum
// update; packets whose TTL would reach zero exit port 1 (toward
// ICMPError).
type decIPTTL struct {
	base
	expired  uint64
	mExpired *telemetry.Counter
}

func newDecIPTTL(name string, args []string) (Element, error) {
	return &decIPTTL{base: base{name: name}}, nil
}

func (e *decIPTTL) Class() string                  { return "DecIPTTL" }
func (e *decIPTTL) Instrument(sc *telemetry.Scope) { e.mExpired = sc.Counter("expired") }
func (e *decIPTTL) Push(port int, p *packet.Packet) {
	if len(p.Data) < packet.IPv4HeaderLen {
		p.Release()
		return
	}
	ttl := p.Data[8]
	if ttl <= 1 {
		e.expired++
		e.mExpired.Inc()
		e.trace("ttl-expired", p)
		e.out.output(1, p)
		return
	}
	packet.SetTTL(p.Data, ttl-1)
	e.out.output(0, p)
}

func (e *decIPTTL) Handler(name, value string) (string, error) {
	if name == "expired" && value == "" {
		return strconv.FormatUint(e.expired, 10), nil
	}
	return "", fmt.Errorf("decipttl: no handler %q", name)
}

// lookupIPRoute consults the shared FIB. A route with a valid NextHop
// sets the next-hop annotation and emits on the route's OutPort; a route
// with an invalid NextHop is directly-connected/local and emits on its
// OutPort unchanged. Packets with no route exit on the port named by the
// NOROUTE argument (default: dropped).
type lookupIPRoute struct {
	base
	norouteOut int
	noroute    uint64
	ctx        *Context
	// cache serves repeated destinations without the shared-table lookup;
	// it invalidates itself on every FIB version change.
	cache    *fib.Cache
	mLookups *telemetry.Counter
	mNoroute *telemetry.Counter
}

func newLookupIPRoute(name string, args []string) (Element, error) {
	e := &lookupIPRoute{base: base{name: name}, norouteOut: -1}
	for _, a := range args {
		f := strings.Fields(a)
		if len(f) == 2 && strings.EqualFold(f[0], "NOROUTE") {
			n, err := strconv.Atoi(f[1])
			if err != nil {
				return nil, fmt.Errorf("lookupiproute: bad NOROUTE %q", f[1])
			}
			e.norouteOut = n
		} else if a != "" {
			return nil, fmt.Errorf("lookupiproute: unknown arg %q", a)
		}
	}
	return e, nil
}

func (e *lookupIPRoute) Class() string { return "LookupIPRoute" }
func (e *lookupIPRoute) Initialize(ctx *Context) error {
	if ctx.FIB == nil {
		return fmt.Errorf("lookupiproute: no FIB in context")
	}
	e.ctx = ctx
	e.cache = fib.NewCache(ctx.FIB)
	return nil
}

func (e *lookupIPRoute) Instrument(sc *telemetry.Scope) {
	e.mLookups = sc.Counter("lookups")
	e.mNoroute = sc.Counter("noroute")
}

func (e *lookupIPRoute) Push(port int, p *packet.Packet) {
	var ip packet.IPv4
	if _, err := ip.Parse(p.Data); err != nil {
		p.Release()
		return
	}
	e.mLookups.Inc()
	r, ok := e.cache.Lookup(ip.Dst)
	if !ok {
		e.noroute++
		e.mNoroute.Inc()
		e.trace("no-route", p)
		if e.norouteOut >= 0 {
			e.out.output(e.norouteOut, p)
			return
		}
		p.Release()
		return
	}
	p.Anno.NextHop = r.NextHop
	e.trace("route", p)
	e.out.output(r.OutPort, p)
}

// Audit checks the per-element route cache against the FIB's reference
// trie (the stale-cache bug class: a route flip whose invalidation was
// skipped keeps forwarding on the old path).
func (e *lookupIPRoute) Audit() error { return e.cache.Verify() }

func (e *lookupIPRoute) Handler(name, value string) (string, error) {
	if name == "noroute" && value == "" {
		return strconv.FormatUint(e.noroute, 10), nil
	}
	return "", fmt.Errorf("lookupiproute: no handler %q", name)
}

// toTunnel transmits packets on one UDP tunnel; the per-link element
// that failure injection (LinkFail) sits in front of.
type toTunnel struct {
	base
	tunnel int
	ctx    *Context
	// Entry cached against the encap-table version (topology changes are
	// rare; per-packet resolution must not scan or allocate).
	cacheEnt   fib.EncapEntry
	cacheOK    bool
	cacheV     uint64
	cacheValid bool
}

func newToTunnel(name string, args []string) (Element, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("totunnel: want tunnel index arg")
	}
	idx, err := strconv.Atoi(args[0])
	if err != nil || idx < 0 {
		return nil, fmt.Errorf("totunnel: bad tunnel index %q", args[0])
	}
	return &toTunnel{base: base{name: name}, tunnel: idx}, nil
}

func (e *toTunnel) Class() string { return "ToTunnel" }
func (e *toTunnel) Initialize(ctx *Context) error {
	if ctx.Tunnels == nil {
		return fmt.Errorf("totunnel: no tunnel transport in context")
	}
	if ctx.Encap == nil {
		return fmt.Errorf("totunnel: no encap table in context")
	}
	e.ctx = ctx
	return nil
}

func (e *toTunnel) Push(port int, p *packet.Packet) {
	// Resolve the entry by tunnel index (the address details live in the
	// encapsulation table; this element owns just the socket identity).
	if v := e.ctx.Encap.Version(); !e.cacheValid || v != e.cacheV {
		e.cacheEnt, e.cacheOK = e.ctx.Encap.ByTunnel(e.tunnel)
		e.cacheV, e.cacheValid = v, true
	}
	if !e.cacheOK {
		e.trace("no-tunnel", p)
		p.Release()
		return
	}
	e.trace("tunnel", p)
	e.ctx.Tunnels.SendTunnel(e.cacheEnt, p)
}

// Audit re-resolves the cached encap entry when the cache claims to be
// current and reports any drift from the table.
func (e *toTunnel) Audit() error {
	if !e.cacheValid || e.cacheV != e.ctx.Encap.Version() {
		return nil // stale stamp; next Push re-resolves
	}
	ent, ok := e.ctx.Encap.ByTunnel(e.tunnel)
	if ok != e.cacheOK || (ok && ent != e.cacheEnt) {
		return fmt.Errorf("totunnel %d: cached entry %+v,%v != table %+v,%v",
			e.tunnel, e.cacheEnt, e.cacheOK, ent, ok)
	}
	return nil
}

// encapTunnel maps the next-hop annotation through the encapsulation
// table. When the output port matching the entry's tunnel index is
// connected, the packet is emitted there (the per-link LinkFail →
// ToTunnel chain); otherwise it is handed directly to the tunnel
// transport. Unresolvable next hops are dropped.
type encapTunnel struct {
	base
	ctx    *Context
	misses uint64
	sent   uint64
	// Last next-hop resolution, cached against the encap-table version —
	// steady flows re-resolve the same virtual neighbor every packet.
	cacheNH    netip.Addr
	cacheEnt   fib.EncapEntry
	cacheOK    bool
	cacheV     uint64
	cacheValid bool
	mSent      *telemetry.Counter
	mMisses    *telemetry.Counter
}

func newEncapTunnel(name string, args []string) (Element, error) {
	return &encapTunnel{base: base{name: name}}, nil
}

func (e *encapTunnel) Instrument(sc *telemetry.Scope) {
	e.mSent = sc.Counter("sent")
	e.mMisses = sc.Counter("misses")
}

func (e *encapTunnel) Class() string { return "EncapTunnel" }
func (e *encapTunnel) Initialize(ctx *Context) error {
	if ctx.Encap == nil {
		return fmt.Errorf("encaptunnel: no encap table in context")
	}
	if ctx.Tunnels == nil {
		return fmt.Errorf("encaptunnel: no tunnel transport in context")
	}
	e.ctx = ctx
	return nil
}

func (e *encapTunnel) Push(port int, p *packet.Packet) {
	if v := e.ctx.Encap.Version(); !e.cacheValid || v != e.cacheV || p.Anno.NextHop != e.cacheNH {
		e.cacheEnt, e.cacheOK = e.ctx.Encap.Lookup(p.Anno.NextHop)
		e.cacheNH, e.cacheV, e.cacheValid = p.Anno.NextHop, v, true
	}
	ent, ok := e.cacheEnt, e.cacheOK
	if !ok {
		e.misses++
		e.mMisses.Inc()
		e.trace("encap-miss", p)
		p.Release()
		return
	}
	e.sent++
	e.mSent.Inc()
	if e.out.connected(ent.Tunnel) {
		e.out.output(ent.Tunnel, p)
		return
	}
	e.trace("tunnel", p)
	e.ctx.Tunnels.SendTunnel(ent, p)
}

// Audit re-resolves the cached next hop when the version stamp is
// current; disagreement means an invalidation was missed.
func (e *encapTunnel) Audit() error {
	if !e.cacheValid || e.cacheV != e.ctx.Encap.Version() {
		return nil
	}
	ent, ok := e.ctx.Encap.Lookup(e.cacheNH)
	if ok != e.cacheOK || (ok && ent != e.cacheEnt) {
		return fmt.Errorf("encaptunnel: cached %v -> %+v,%v != table %+v,%v",
			e.cacheNH, e.cacheEnt, e.cacheOK, ent, ok)
	}
	return nil
}

func (e *encapTunnel) Handler(name, value string) (string, error) {
	switch {
	case name == "misses" && value == "":
		return strconv.FormatUint(e.misses, 10), nil
	case name == "sent" && value == "":
		return strconv.FormatUint(e.sent, 10), nil
	}
	return "", fmt.Errorf("encaptunnel: no handler %q", name)
}

// toTap delivers to the local host stack.
type toTap struct {
	base
	ctx *Context
}

func newToTap(name string, args []string) (Element, error) {
	return &toTap{base: base{name: name}}, nil
}

func (e *toTap) Class() string { return "ToTap" }
func (e *toTap) Initialize(ctx *Context) error {
	if ctx.Tap == nil {
		return fmt.Errorf("totap: no tap sink in context")
	}
	e.ctx = ctx
	return nil
}

func (e *toTap) Push(port int, p *packet.Packet) {
	e.trace("to-tap", p)
	e.ctx.Tap.DeliverTap(p)
}

// ipNAPT performs egress NAPT: input/output 0 is the outbound direction,
// input/output 1 the inbound (return) direction. Untranslatable inbound
// packets are dropped, matching the paper's egress behaviour.
type ipNAPT struct {
	base
	ext            netip.Addr
	timeout        time.Duration
	portLo, portHi uint16
	tbl            *nat.Table
	drops          uint64
	mDrops         *telemetry.Counter
}

func newIPNAPT(name string, args []string) (Element, error) {
	if len(args) < 1 {
		return nil, fmt.Errorf("ipnapt: want external address arg")
	}
	a, err := netip.ParseAddr(args[0])
	if err != nil {
		return nil, fmt.Errorf("ipnapt: bad external address %q", args[0])
	}
	e := &ipNAPT{base: base{name: name}, ext: a, timeout: 5 * time.Minute}
	for _, arg := range args[1:] {
		f := strings.Fields(arg)
		switch {
		case len(f) == 2 && strings.EqualFold(f[0], "TIMEOUT"):
			d, err := time.ParseDuration(f[1])
			if err != nil {
				return nil, fmt.Errorf("ipnapt: bad timeout %q", f[1])
			}
			e.timeout = d
		case len(f) == 3 && strings.EqualFold(f[0], "PORTS"):
			lo, err1 := strconv.ParseUint(f[1], 10, 16)
			hi, err2 := strconv.ParseUint(f[2], 10, 16)
			if err1 != nil || err2 != nil || lo == 0 || lo > hi {
				return nil, fmt.Errorf("ipnapt: bad port range %q", arg)
			}
			e.portLo, e.portHi = uint16(lo), uint16(hi)
		default:
			return nil, fmt.Errorf("ipnapt: unknown arg %q", arg)
		}
	}
	return e, nil
}

func (e *ipNAPT) Class() string                  { return "IPNAPT" }
func (e *ipNAPT) Instrument(sc *telemetry.Scope) { e.mDrops = sc.Counter("drops") }
func (e *ipNAPT) Initialize(ctx *Context) error {
	now := func() time.Duration { return 0 }
	if ctx.Clock != nil {
		now = ctx.Clock.Now
	}
	e.tbl = nat.New(nat.Config{External: e.ext, Timeout: e.timeout,
		PortLow: e.portLo, PortHigh: e.portHi}, now)
	return nil
}

func (e *ipNAPT) Push(port int, p *packet.Packet) {
	switch port {
	case 0:
		// In-place translation (RFC 1624 incremental checksums): the
		// packet keeps its buffer and headroom, so the NAPT egress path
		// forwards at zero allocations per packet.
		if err := e.tbl.TranslateOutbound(p.Data); err != nil {
			e.drops++
			e.mDrops.Inc()
			e.trace("napt-drop", p)
			p.Release()
			return
		}
		e.trace("napt-out", p)
		e.out.output(0, p)
	case 1:
		ok, err := e.tbl.TranslateInbound(p.Data)
		if err != nil || !ok {
			e.drops++
			e.mDrops.Inc()
			e.trace("napt-unmatched", p)
			p.Release()
			return
		}
		e.trace("napt-in", p)
		e.out.output(1, p)
	}
}

func (e *ipNAPT) Handler(name, value string) (string, error) {
	switch {
	case name == "bindings" && value == "":
		return strconv.Itoa(e.tbl.Len()), nil
	case name == "drops" && value == "":
		return strconv.FormatUint(e.drops, 10), nil
	}
	return "", fmt.Errorf("ipnapt: no handler %q", name)
}

// bandwidthShaper releases packets at a configured bit rate using the
// context clock, implementing the "setting link bandwidths via traffic
// shapers in Click" extension from Section 6.2. Packets beyond the
// internal queue capacity are dropped.
type bandwidthShaper struct {
	base
	rateBps float64
	cap     int
	buf     []*packet.Packet
	busy    bool
	drops   uint64
	mDrops  *telemetry.Counter
	ctx     *Context
}

func newBandwidthShaper(name string, args []string) (Element, error) {
	if len(args) < 1 {
		return nil, fmt.Errorf("bandwidthshaper: want rate arg (bits/s; 0 = unlimited)")
	}
	r, err := strconv.ParseFloat(args[0], 64)
	if err != nil || r < 0 {
		return nil, fmt.Errorf("bandwidthshaper: bad rate %q", args[0])
	}
	c := 100
	if len(args) >= 2 {
		c, err = strconv.Atoi(args[1])
		if err != nil || c < 1 {
			return nil, fmt.Errorf("bandwidthshaper: bad capacity %q", args[1])
		}
	}
	return &bandwidthShaper{base: base{name: name}, rateBps: r, cap: c}, nil
}

func (e *bandwidthShaper) Class() string                  { return "BandwidthShaper" }
func (e *bandwidthShaper) Instrument(sc *telemetry.Scope) { e.mDrops = sc.Counter("drops") }
func (e *bandwidthShaper) Initialize(ctx *Context) error {
	if ctx.Clock == nil {
		return fmt.Errorf("bandwidthshaper: no clock in context")
	}
	e.ctx = ctx
	return nil
}

func (e *bandwidthShaper) Push(port int, p *packet.Packet) {
	if e.rateBps <= 0 && !e.busy {
		// Unlimited: pass through (the §6.2 link-bandwidth knob is off).
		e.out.output(0, p)
		return
	}
	if len(e.buf) >= e.cap {
		e.drops++
		e.mDrops.Inc()
		e.trace("shape-drop", p)
		p.Release()
		return
	}
	e.buf = append(e.buf, p)
	if !e.busy {
		e.busy = true
		e.release()
	}
}

func (e *bandwidthShaper) release() {
	if len(e.buf) == 0 {
		e.busy = false
		return
	}
	p := e.buf[0]
	e.buf = e.buf[1:]
	var txTime time.Duration
	if e.rateBps > 0 {
		txTime = time.Duration(float64(p.Len()*8) / e.rateBps * float64(time.Second))
	}
	e.out.output(0, p)
	e.ctx.Clock.Schedule(txTime, e.release)
}

// Flush implements flusher. The release chain's pending timer finds an
// empty buffer and clears busy on its own; clearing busy here too lets
// teardown (which also cancels that timer via the slice's timer group)
// leave the element reusable.
func (e *bandwidthShaper) Flush() int {
	n := len(e.buf)
	for _, p := range e.buf {
		p.Release()
	}
	e.buf = nil
	e.busy = false
	return n
}

func (e *bandwidthShaper) Handler(name, value string) (string, error) {
	switch {
	case name == "drops" && value == "":
		return strconv.FormatUint(e.drops, 10), nil
	case name == "rate" && value == "":
		return strconv.FormatFloat(e.rateBps, 'f', -1, 64), nil
	case name == "rate":
		r, err := strconv.ParseFloat(value, 64)
		if err != nil || r < 0 {
			return "", fmt.Errorf("bandwidthshaper: bad rate %q", value)
		}
		e.rateBps = r
		return "", nil
	}
	return "", fmt.Errorf("bandwidthshaper: no handler %q", name)
}

// linkFail drops packets while active — the element the paper uses to
// inject the Denver–Kansas City failure inside Click. A DROP_PROB
// argument turns it into a lossy-link model instead.
type linkFail struct {
	base
	active   bool
	dropProb float64
	dropped  uint64
	mDrops   *telemetry.Counter
	ctx      *Context
}

func newLinkFail(name string, args []string) (Element, error) {
	e := &linkFail{base: base{name: name}}
	for _, a := range args {
		f := strings.Fields(a)
		switch {
		case len(f) == 2 && strings.EqualFold(f[0], "ACTIVE"):
			e.active = f[1] == "true" || f[1] == "1"
		case len(f) == 2 && strings.EqualFold(f[0], "DROP_PROB"):
			p, err := strconv.ParseFloat(f[1], 64)
			if err != nil || p < 0 || p > 1 {
				return nil, fmt.Errorf("linkfail: bad DROP_PROB %q", f[1])
			}
			e.dropProb = p
		case a == "":
		default:
			return nil, fmt.Errorf("linkfail: unknown arg %q", a)
		}
	}
	return e, nil
}

func (e *linkFail) Class() string { return "LinkFail" }
func (e *linkFail) Initialize(ctx *Context) error {
	e.ctx = ctx
	return nil
}

func (e *linkFail) Instrument(sc *telemetry.Scope) { e.mDrops = sc.Counter("drops") }

func (e *linkFail) Push(port int, p *packet.Packet) {
	if e.active {
		e.dropped++
		e.mDrops.Inc()
		e.trace("fail-drop", p)
		p.Release()
		return
	}
	if e.dropProb > 0 && e.ctx != nil && e.ctx.RNG != nil && e.ctx.RNG.Bool(e.dropProb) {
		e.dropped++
		e.mDrops.Inc()
		e.trace("loss-drop", p)
		p.Release()
		return
	}
	e.out.output(0, p)
}

func (e *linkFail) Handler(name, value string) (string, error) {
	switch {
	case name == "active" && value == "":
		return strconv.FormatBool(e.active), nil
	case name == "active":
		e.active = value == "true" || value == "1"
		return "", nil
	case name == "drops" && value == "":
		return strconv.FormatUint(e.dropped, 10), nil
	}
	return "", fmt.Errorf("linkfail: no handler %q", name)
}

// dupSuppress drops packets carrying the MigClone annotation — the
// stamped duplicates a migrating neighbor's peers send toward the shadow
// process during the make-before-break cutover window. Exactly one copy
// of every double-delivered packet is marked, and marked copies are
// dropped unconditionally at every receiver, so double-delivery can
// never become duplicate delivery. The check is a branch on an
// annotation bit: no per-packet state, no allocation, deterministic
// under any worker count. The active handler exists for the mutation
// tests, which disable suppression and assert the migration invariant
// checker catches the resulting duplicates.
type dupSuppress struct {
	base
	active  bool
	dropped uint64
	mDrops  *telemetry.Counter
}

func newDupSuppress(name string, args []string) (Element, error) {
	e := &dupSuppress{base: base{name: name}, active: true}
	for _, a := range args {
		f := strings.Fields(a)
		switch {
		case len(f) == 2 && strings.EqualFold(f[0], "ACTIVE"):
			e.active = f[1] == "true" || f[1] == "1"
		case a == "":
		default:
			return nil, fmt.Errorf("dupsuppress: unknown arg %q", a)
		}
	}
	return e, nil
}

func (e *dupSuppress) Class() string { return "DupSuppress" }

func (e *dupSuppress) Instrument(sc *telemetry.Scope) { e.mDrops = sc.Counter("drops") }

func (e *dupSuppress) Push(port int, p *packet.Packet) {
	if e.active && p.Anno.MigClone {
		e.dropped++
		e.mDrops.Inc()
		e.trace("dup-drop", p)
		p.Release()
		return
	}
	e.out.output(0, p)
}

func (e *dupSuppress) Handler(name, value string) (string, error) {
	switch {
	case name == "active" && value == "":
		return strconv.FormatBool(e.active), nil
	case name == "active":
		e.active = value == "true" || value == "1"
		return "", nil
	case name == "drops" && value == "":
		return strconv.FormatUint(e.dropped, 10), nil
	}
	return "", fmt.Errorf("dupsuppress: no handler %q", name)
}

// icmpError generates the ICMP error for the offending packet it
// receives, sourced from the node's overlay address, and emits it on
// output 0 to be routed back.
type icmpError struct {
	base
	typ, code uint8
	ctx       *Context
}

func newICMPError(name string, args []string) (Element, error) {
	if len(args) != 2 {
		return nil, fmt.Errorf("icmperror: want TYPE, CODE args")
	}
	t, err1 := strconv.Atoi(args[0])
	c, err2 := strconv.Atoi(args[1])
	if err1 != nil || err2 != nil || t < 0 || t > 255 || c < 0 || c > 255 {
		return nil, fmt.Errorf("icmperror: bad type/code %v", args)
	}
	return &icmpError{base: base{name: name}, typ: uint8(t), code: uint8(c)}, nil
}

func (e *icmpError) Class() string { return "ICMPError" }
func (e *icmpError) Initialize(ctx *Context) error {
	if !ctx.LocalAddr.Src.IsValid() {
		return fmt.Errorf("icmperror: no local address in context")
	}
	e.ctx = ctx
	return nil
}

// Push writes the error straight into a pooled packet: the quote (the
// offending IP header plus the first 8 payload bytes, RFC 792) behind
// the default headroom, then the ICMP and IPv4 headers in place. The
// bytes are packet.BuildICMPError's.
func (e *icmpError) Push(port int, p *packet.Packet) {
	var oip packet.IPv4
	payload, err := oip.Parse(p.Data)
	if err != nil {
		p.Release()
		return
	}
	// RFC 1122: never generate an ICMP error about an ICMP error.
	if oip.Proto == packet.ProtoICMP {
		var ic packet.ICMP
		if _, err := ic.Parse(payload); err == nil &&
			(ic.Type == packet.ICMPUnreachable || ic.Type == packet.ICMPTimeExceeded) {
			p.Release()
			return
		}
	}
	quote := p.Data
	if max := oip.HeaderLen + 8; len(quote) > max {
		quote = quote[:max]
	}
	q := packet.Get()
	q.Append(quote)
	q.Anno.Timestamp = p.Anno.Timestamp
	p.Release() // the error quotes a copy; the offending packet is done
	packet.EncapICMP(q, &packet.ICMP{Type: e.typ, Code: e.code})
	packet.EncapIPv4(q, &packet.IPv4{TTL: 64, Proto: packet.ProtoICMP, Src: e.ctx.LocalAddr.Src, Dst: oip.Src})
	e.trace("icmp-error", q)
	e.out.output(0, q)
}

// toExternal hands post-NAT packets to the node's real network stack so
// they travel the public Internet to hosts that never opted in.
type toExternal struct {
	base
	ctx *Context
}

func newToExternal(name string, args []string) (Element, error) {
	return &toExternal{base: base{name: name}}, nil
}

func (e *toExternal) Class() string { return "ToExternal" }
func (e *toExternal) Initialize(ctx *Context) error {
	if ctx.External == nil {
		return fmt.Errorf("toexternal: no external sink in context")
	}
	e.ctx = ctx
	return nil
}

func (e *toExternal) Push(port int, p *packet.Packet) {
	e.trace("to-external", p)
	e.ctx.External.SendExternal(p)
}

// toVPN returns packets to the opted-in client through the VPN server.
type toVPN struct {
	base
	ctx *Context
}

func newToVPN(name string, args []string) (Element, error) {
	return &toVPN{base: base{name: name}}, nil
}

func (e *toVPN) Class() string { return "ToVPN" }
func (e *toVPN) Initialize(ctx *Context) error {
	if ctx.VPN == nil {
		return fmt.Errorf("tovpn: no VPN sink in context")
	}
	e.ctx = ctx
	return nil
}

func (e *toVPN) Push(port int, p *packet.Packet) {
	e.trace("to-vpn", p)
	e.ctx.VPN.SendVPN(p)
}
