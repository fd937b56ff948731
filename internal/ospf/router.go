package ospf

import (
	"cmp"
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"vini/internal/fib"
	"vini/internal/sim"
)

// Transport sends an OSPF packet out a virtual interface toward the
// point-to-point neighbor. The IIAS overlay implements this by wrapping
// the payload in IP protocol 89 and pushing it through the Click graph,
// so routing traffic traverses (and is cut by failures of) the same
// tunnels as data traffic.
//
// payload is lent: it is the router's encode buffer, valid until
// SendRouting returns and overwritten by the next message. A transport
// that queues the message copies it (as it must copy what Receive is
// handed, which is lent the other way). SendRouting must not call back
// into the sending router's Receive.
type Transport interface {
	SendRouting(ifIndex int, payload []byte)
}

// Interface is one point-to-point virtual interface.
type Interface struct {
	Name   string
	Index  int        // element/tunnel port
	Addr   netip.Addr // local address on the /30
	Prefix netip.Prefix
	Cost   uint32
}

// Config parameterizes a router.
type Config struct {
	RouterID uint32
	// Hello and Dead are the §5.2 knobs (5 s and 10 s in the paper).
	Hello, Dead time.Duration
	// SPFDelay batches LSDB changes before recomputing (default 100 ms).
	SPFDelay time.Duration
	// Stubs are local prefixes advertised in the router LSA (the tap0
	// host route, in IIAS).
	Stubs []StubDesc
	// Ticks, when set, is the clock for coarse periodic timers (hello,
	// refresh, age sweep) — typically a sim.TickWheel that coalesces
	// many routers' ticks into shared slot events. Deadline-sensitive
	// timers (dead, retransmit, SPF delay) always use the main clock.
	// Nil means periodic timers use the main clock too.
	Ticks sim.Clock

	// Timers only this package's tests shorten; zero selects OSPF's.
	// rxmt is the LSA retransmission interval (2 s). refresh
	// re-originates our LSA periodically so neighbors' aging never
	// expires live state (30 minutes, OSPF's LSRefreshTime). maxAge
	// purges LSAs not refreshed within it (1 hour, OSPF's MaxAge).
	rxmt, refresh, maxAge time.Duration
}

func (c *Config) setDefaults() {
	if c.Hello <= 0 {
		c.Hello = 5 * time.Second
	}
	if c.Dead <= 0 {
		c.Dead = 2 * c.Hello
	}
	if c.rxmt <= 0 {
		c.rxmt = 2 * time.Second
	}
	if c.SPFDelay <= 0 {
		c.SPFDelay = 100 * time.Millisecond
	}
	if c.refresh <= 0 {
		c.refresh = 30 * time.Minute
	}
	if c.maxAge <= 0 {
		c.maxAge = time.Hour
	}
}

// neighborState is the simplified adjacency FSM: Down → Init (we heard
// them) → Full (they heard us too; database exchanged).
type neighborState int

const (
	nDown neighborState = iota
	nInit
	nFull
)

func (s neighborState) String() string {
	switch s {
	case nInit:
		return "Init"
	case nFull:
		return "Full"
	default:
		return "Down"
	}
}

type neighbor struct {
	id        uint32
	addr      netip.Addr // neighbor's interface address (hello source)
	ifc       *Interface
	state     neighborState
	deadTimer sim.Timer
	// pendingAcks maps LSA keys awaiting this neighbor's ack.
	pendingAcks map[lsaKey]LSA
	rxmtTimer   sim.Timer
	// deadFn and rxmtFn are the two timers' callbacks, bound once so
	// that re-arming them (every hello, every flood) allocates nothing.
	deadFn, rxmtFn func()
}

func (r *Router) newNeighbor(id uint32, addr netip.Addr, ifc *Interface) *neighbor {
	nb := &neighbor{id: id, addr: addr, ifc: ifc, pendingAcks: make(map[lsaKey]LSA)}
	nb.deadFn = func() { r.neighborDead(nb) }
	nb.rxmtFn = func() { r.retransmit(nb) }
	return nb
}

// NeighborInfo is the externally visible adjacency state.
type NeighborInfo struct {
	ID    uint32
	Addr  netip.Addr
	Iface string
	State string
}

// Router is one OSPF speaker.
type Router struct {
	cfg   Config
	clock sim.Clock
	// ticks carries the periodic hello/refresh/age timers (cfg.Ticks,
	// or clock when unset).
	ticks  sim.Clock
	tr     Transport
	ifaces []*Interface
	// neighbors holds at most one adjacency per interface (they are
	// point-to-point), ordered by interface index: the order every flood
	// and every LSA lists them in.
	neighbors []*neighbor
	// lsdb holds the latest LSA per origin; lsdbAt tracks when each
	// instance was installed, for MaxAge purging.
	lsdb   map[uint32]LSA
	lsdbAt map[uint32]time.Duration
	// mySeq is this router's LSA sequence counter.
	mySeq uint32
	// onRoutes receives the post-SPF route table (the FEA hook).
	onRoutes func([]fib.Route)
	// onNeighbor observes adjacency state transitions (telemetry hook).
	onNeighbor func(iface int, neighbor uint32, state string)
	// lastRoutes is the most recently emitted route set (see Routes).
	lastRoutes []fib.Route
	spfPending bool
	started    bool
	helloTimer sim.Timer
	// helloFn, refreshFn, ageFn and spfFn are the periodic and SPF-delay
	// callbacks, bound once (see neighbor.deadFn).
	helloFn, refreshFn, ageFn, spfFn func()
	// enc is the encode buffer every outgoing message is built in and
	// lent to the Transport from; dec is where incoming ones decode to.
	// seen, acks and spf are working storage for sendHellos, handleLSU
	// and runSPF. None of it outlives the call that fills it.
	enc  []byte
	dec  decoder
	seen [1]uint32
	acks []lsaKey
	spf  []spfNode
	// SPFRuns counts SPF executions, for convergence diagnostics.
	SPFRuns int
}

// poisonAfterSend makes the router overwrite its encode buffer with 0xDE
// as soon as SendRouting returns, so a Transport that kept the lent
// payload delivers garbage (which the checksum rejects), not a plausible
// stale message. Test binaries switch it on in TestMain.
var poisonAfterSend atomic.Bool

// PoisonAfterSendForTest sets send-time poisoning; it returns the
// previous setting.
func PoisonAfterSendForTest(on bool) (was bool) { return poisonAfterSend.Swap(on) }

// send lends the encoded message in r.enc to the transport.
func (r *Router) send(ifIndex int) {
	r.tr.SendRouting(ifIndex, r.enc)
	if poisonAfterSend.Load() {
		for i := range r.enc {
			r.enc[i] = 0xDE
		}
	}
}

// New creates a router; call AddInterface then Start.
func New(clock sim.Clock, cfg Config, tr Transport) *Router {
	cfg.setDefaults()
	ticks := cfg.Ticks
	if ticks == nil {
		ticks = clock
	}
	r := &Router{
		cfg:    cfg,
		clock:  clock,
		ticks:  ticks,
		tr:     tr,
		lsdb:   make(map[uint32]LSA),
		lsdbAt: make(map[uint32]time.Duration),
	}
	r.helloFn, r.refreshFn, r.ageFn = r.sendHellos, r.refresh, r.ageSweep
	r.spfFn = func() {
		r.spfPending = false
		r.runSPF()
	}
	return r
}

// AddInterface registers a point-to-point interface before Start.
func (r *Router) AddInterface(ifc Interface) error {
	if r.started {
		return fmt.Errorf("ospf: AddInterface after Start")
	}
	c := ifc
	r.ifaces = append(r.ifaces, &c)
	return nil
}

// OnRoutes installs the route sink invoked after every SPF run.
func (r *Router) OnRoutes(fn func([]fib.Route)) { r.onRoutes = fn }

// OnNeighborEvent installs an observer for adjacency state transitions
// (Init, Full, Down). It fires in the router's clock domain; telemetry
// uses it to populate the control-plane timeline.
func (r *Router) OnNeighborEvent(fn func(iface int, neighbor uint32, state string)) {
	r.onNeighbor = fn
}

func (r *Router) neighborEvent(iface int, id uint32, state string) {
	if r.onNeighbor != nil {
		r.onNeighbor(iface, id, state)
	}
}

// Start begins hello transmission and originates the initial LSA.
func (r *Router) Start() {
	if r.started {
		return
	}
	r.started = true
	r.originate()
	r.sendHellos()
	r.ticks.Schedule(r.cfg.refresh, r.refreshFn)
	r.ticks.Schedule(r.cfg.maxAge/4, r.ageFn)
}

// refresh periodically re-originates our LSA (LSRefreshTime) so it never
// ages out of neighbors' databases.
func (r *Router) refresh() {
	if !r.started {
		return
	}
	r.originate()
	r.ticks.Schedule(r.cfg.refresh, r.refreshFn)
}

// ageSweep purges LSAs that have not been refreshed within MaxAge — the
// garbage left by routers that disappeared without withdrawing state.
func (r *Router) ageSweep() {
	if !r.started {
		return
	}
	now := r.clock.Now()
	changed := false
	for origin, at := range r.lsdbAt {
		if origin == r.cfg.RouterID {
			continue
		}
		if now-at > r.cfg.maxAge {
			delete(r.lsdb, origin)
			delete(r.lsdbAt, origin)
			changed = true
		}
	}
	if changed {
		r.scheduleSPF()
	}
	r.ticks.Schedule(r.cfg.maxAge/4, r.ageFn)
}

// Started reports whether the router is speaking: after Start, until Stop.
func (r *Router) Started() bool { return r.started }

// Stop cancels timers; the router stops speaking.
func (r *Router) Stop() {
	r.started = false
	if !r.helloTimer.IsZero() {
		r.helloTimer.Stop()
	}
	for _, nb := range r.neighbors {
		if !nb.deadTimer.IsZero() {
			nb.deadTimer.Stop()
		}
		if !nb.rxmtTimer.IsZero() {
			nb.rxmtTimer.Stop()
		}
	}
}

// Neighbors reports adjacency state sorted by interface index.
func (r *Router) Neighbors() []NeighborInfo {
	out := make([]NeighborInfo, 0, len(r.neighbors))
	for _, nb := range r.neighbors {
		out = append(out, NeighborInfo{ID: nb.id, Addr: nb.addr, Iface: nb.ifc.Name, State: nb.state.String()})
	}
	return out
}

// LSDB returns the database sorted by origin.
func (r *Router) LSDB() []LSA {
	out := make([]LSA, 0, len(r.lsdb))
	for _, l := range r.lsdb {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Origin < out[j].Origin })
	return out
}

func (r *Router) sendHellos() {
	if !r.started {
		return
	}
	for _, ifc := range r.ifaces {
		seen := r.seen[:0]
		if nb := r.neighbor(ifc.Index); nb != nil && nb.state >= nInit {
			seen = append(seen, nb.id)
		}
		r.enc = appendHello(r.enc[:0], r.cfg.RouterID, Hello{
			HelloInterval: uint16(r.cfg.Hello / time.Second),
			DeadInterval:  uint16(r.cfg.Dead / time.Second),
			Neighbors:     seen,
		})
		r.send(ifc.Index)
	}
	r.helloTimer = r.ticks.Schedule(r.cfg.Hello, r.helloFn)
}

// Receive processes an OSPF packet arriving on interface ifIndex from
// the neighbor address src. Malformed packets are dropped with an error
// for the caller's logs. payload is lent for the call; the message
// decodes into the router's own storage and only an LSA that is
// installed is copied out of it.
func (r *Router) Receive(ifIndex int, src netip.Addr, payload []byte) error {
	if !r.started {
		return nil
	}
	h, body, err := parseHeader(payload)
	if err != nil {
		return err
	}
	if h.RouterID == r.cfg.RouterID {
		return nil // our own packet reflected
	}
	switch h.Type {
	case typeHello:
		hello, err := r.dec.hello(body)
		if err != nil {
			return err
		}
		r.handleHello(ifIndex, src, h.RouterID, hello)
	case typeLSU:
		u, err := r.dec.lsu(body)
		if err != nil {
			return err
		}
		r.handleLSU(ifIndex, u)
	case typeLSAck:
		a, err := r.dec.lsack(body)
		if err != nil {
			return err
		}
		r.handleAck(ifIndex, a)
	default:
		return fmt.Errorf("ospf: unknown type %d", h.Type)
	}
	return nil
}

func (r *Router) iface(idx int) *Interface {
	for _, ifc := range r.ifaces {
		if ifc.Index == idx {
			return ifc
		}
	}
	return nil
}

// neighbor returns the adjacency on interface idx, or nil.
func (r *Router) neighbor(idx int) *neighbor {
	for _, nb := range r.neighbors {
		if nb.ifc.Index == idx {
			return nb
		}
	}
	return nil
}

// setNeighbor installs nb as its interface's adjacency, in index order,
// in place of any other.
func (r *Router) setNeighbor(nb *neighbor) {
	i, found := slices.BinarySearchFunc(r.neighbors, nb.ifc.Index,
		func(o *neighbor, idx int) int { return cmp.Compare(o.ifc.Index, idx) })
	switch {
	case found:
		r.neighbors[i] = nb
	case r.neighbors == nil: // the interfaces are fixed by now
		r.neighbors = append(make([]*neighbor, 0, len(r.ifaces)), nb)
	default:
		r.neighbors = slices.Insert(r.neighbors, i, nb)
	}
}

func (r *Router) handleHello(ifIndex int, src netip.Addr, id uint32, h Hello) {
	ifc := r.iface(ifIndex)
	if ifc == nil {
		return
	}
	nb := r.neighbor(ifIndex)
	if nb == nil || nb.id != id {
		nb = r.newNeighbor(id, src, ifc)
		r.setNeighbor(nb)
	}
	nb.addr = src
	// Reset the dead timer.
	if !nb.deadTimer.IsZero() {
		nb.deadTimer.Stop()
	}
	nb.deadTimer = r.clock.Schedule(r.cfg.Dead, nb.deadFn)
	// Two-way check: do they list us?
	twoWay := false
	for _, n := range h.Neighbors {
		if n == r.cfg.RouterID {
			twoWay = true
			break
		}
	}
	switch {
	case nb.state == nDown:
		nb.state = nInit
		r.neighborEvent(ifIndex, id, "Init")
	case nb.state == nInit && twoWay:
		r.adjacencyUp(nb)
		r.neighborEvent(ifIndex, id, "Full")
	case nb.state == nFull && !twoWay:
		// Neighbor restarted and forgot us.
		nb.state = nInit
		r.originate()
		r.neighborEvent(ifIndex, id, "Init")
	}
}

// adjacencyUp brings the neighbor Full: exchange the database (the
// simplified stand-in for ExStart/Exchange/Loading) and re-originate our
// LSA to include the new link.
func (r *Router) adjacencyUp(nb *neighbor) {
	nb.state = nFull
	r.originate()
	// Database exchange: send everything we have.
	if all := r.LSDB(); len(all) > 0 {
		r.sendLSU(nb, all)
	}
}

func (r *Router) neighborDead(nb *neighbor) {
	i := slices.Index(r.neighbors, nb)
	if i < 0 {
		return // replaced by another router on the same interface
	}
	r.neighbors = slices.Delete(r.neighbors, i, i+1)
	if !nb.rxmtTimer.IsZero() {
		nb.rxmtTimer.Stop()
	}
	r.originate()
	r.neighborEvent(nb.ifc.Index, nb.id, "Down")
}

// originate rebuilds and floods our router LSA.
func (r *Router) originate() {
	r.mySeq++
	// Both lists at their final size: one allocation each, not one per
	// doubling on the way to the interface count.
	lsa := LSA{Origin: r.cfg.RouterID, Seq: r.mySeq,
		Stubs: append(make([]StubDesc, 0, len(r.cfg.Stubs)+len(r.ifaces)), r.cfg.Stubs...)}
	// Advertise interface subnets as stubs plus links to Full neighbors.
	for _, nb := range r.neighbors {
		if nb.state == nFull {
			if lsa.Links == nil {
				lsa.Links = make([]LinkDesc, 0, len(r.ifaces))
			}
			lsa.Links = append(lsa.Links, LinkDesc{NeighborID: nb.id, Cost: nb.ifc.Cost})
		}
	}
	for _, ifc := range r.ifaces {
		lsa.Stubs = append(lsa.Stubs, StubDesc{Prefix: ifc.Prefix.Masked(), Cost: ifc.Cost})
	}
	r.lsdb[r.cfg.RouterID] = lsa
	r.lsdbAt[r.cfg.RouterID] = r.clock.Now()
	r.flood(lsa, -1)
	r.scheduleSPF()
}

// flood sends the LSA to every Full neighbor except the one on exceptIf,
// tracking acknowledgements for retransmission, in interface order so
// runs are bit-reproducible. lsa is retained (pending its acks): it must
// own its lists.
func (r *Router) flood(lsa LSA, exceptIf int) {
	for _, nb := range r.neighbors {
		if nb.ifc.Index == exceptIf || nb.state != nFull {
			continue
		}
		r.sendLSU(nb, []LSA{lsa})
	}
}

func (r *Router) sendLSU(nb *neighbor, lsas []LSA) {
	for _, l := range lsas {
		// Supersede any older pending instance of the same origin.
		for k := range nb.pendingAcks {
			if k.Origin == l.Origin && k.Seq < l.Seq {
				delete(nb.pendingAcks, k)
			}
		}
		nb.pendingAcks[l.key()] = l
	}
	r.enc = appendLSU(r.enc[:0], r.cfg.RouterID, lsas)
	r.send(nb.ifc.Index)
	if nb.rxmtTimer.IsZero() {
		nb.rxmtTimer = r.clock.Schedule(r.cfg.rxmt, nb.rxmtFn)
	}
}

func (r *Router) retransmit(nb *neighbor) {
	nb.rxmtTimer = sim.Timer{}
	if len(nb.pendingAcks) == 0 || nb.state != nFull {
		return
	}
	var lsas []LSA
	for _, l := range nb.pendingAcks {
		lsas = append(lsas, l)
	}
	sort.Slice(lsas, func(i, j int) bool { return lsas[i].Origin < lsas[j].Origin })
	r.enc = appendLSU(r.enc[:0], r.cfg.RouterID, lsas)
	r.send(nb.ifc.Index)
	nb.rxmtTimer = r.clock.Schedule(r.cfg.rxmt, nb.rxmtFn)
}

func (r *Router) handleLSU(ifIndex int, u LSU) {
	nb := r.neighbor(ifIndex)
	acks := r.acks[:0]
	changed := false
	for _, lsa := range u.LSAs {
		acks = append(acks, lsa.key())
		if lsa.Origin == r.cfg.RouterID {
			// Someone floods a stale copy of our own LSA: outrace it.
			if lsa.Seq >= r.mySeq {
				r.mySeq = lsa.Seq
				r.originate()
			}
			continue
		}
		cur, have := r.lsdb[lsa.Origin]
		if have && cur.Seq >= lsa.Seq {
			continue // old news
		}
		lsa = lsa.clone() // out of the decoder: the LSDB and the floods keep it
		r.lsdb[lsa.Origin] = lsa
		r.lsdbAt[lsa.Origin] = r.clock.Now()
		changed = true
		r.flood(lsa, ifIndex)
	}
	r.acks = acks
	if nb != nil && len(acks) > 0 {
		r.enc = appendLSAck(r.enc[:0], r.cfg.RouterID, acks)
		r.send(ifIndex)
	}
	if changed {
		r.scheduleSPF()
	}
}

func (r *Router) handleAck(ifIndex int, a lsAck) {
	nb := r.neighbor(ifIndex)
	if nb == nil {
		return
	}
	for _, k := range a.Keys {
		delete(nb.pendingAcks, k)
	}
}

func (r *Router) scheduleSPF() {
	if r.spfPending {
		return
	}
	r.spfPending = true
	r.clock.Schedule(r.cfg.SPFDelay, r.spfFn)
}

// spfNode is one LSDB entry in runSPF's working array, which is ordered
// by origin: Dijkstra's state lives in it, not in maps.
type spfNode struct {
	lsa  LSA
	dist uint64    // spfInf until reached
	hop  *neighbor // first hop from this router; nil if none is Full
	done bool
}

const spfInf = ^uint64(0)

// linkCost returns the cost of the edge from u to v: the cheapest of u's
// links to v, usable only if v lists u as well.
func linkCost(u, v LSA) (cost uint32, ok bool) {
	if !slices.ContainsFunc(v.Links, func(l LinkDesc) bool { return l.NeighborID == u.Origin }) {
		return 0, false
	}
	for _, l := range u.Links {
		if l.NeighborID == v.Origin && (!ok || l.Cost < cost) {
			cost, ok = l.Cost, true
		}
	}
	return cost, ok
}

// runSPF computes shortest paths over the LSDB and emits routes. An edge
// u→v is used only if both u and v advertise it (the bidirectional
// check), which is what makes half-propagated failures produce the
// transient paths Figure 8 shows rather than loops. The route set is
// lent to the sink for the call.
func (r *Router) runSPF() {
	r.SPFRuns++
	if r.onRoutes == nil {
		return
	}
	nodes := r.spf[:0]
	for _, lsa := range r.lsdb {
		nodes = append(nodes, spfNode{lsa: lsa, dist: spfInf})
	}
	r.spf = nodes
	slices.SortFunc(nodes, func(a, b spfNode) int { return cmp.Compare(a.lsa.Origin, b.lsa.Origin) })
	find := func(id uint32) (int, bool) {
		return slices.BinarySearchFunc(nodes, id, func(n spfNode, id uint32) int { return cmp.Compare(n.lsa.Origin, id) })
	}
	self, ok := find(r.cfg.RouterID)
	if ok {
		nodes[self].dist = 0
	}
	for {
		// Extract the nearest unvisited node, the lowest router id among
		// equals.
		u, best := -1, spfInf
		for i := range nodes {
			if !nodes[i].done && nodes[i].dist < best {
				u, best = i, nodes[i].dist
			}
		}
		if u < 0 {
			break
		}
		nu := &nodes[u]
		nu.done = true
		for _, l := range nu.lsa.Links {
			v, ok := find(l.NeighborID)
			if !ok {
				continue
			}
			nv := &nodes[v]
			c, ok := linkCost(nu.lsa, nv.lsa)
			if !ok {
				continue
			}
			if nd := nu.dist + uint64(c); nd < nv.dist {
				nv.dist = nd
				// Propagate first hop.
				if u == self {
					nv.hop = r.neighborByID(l.NeighborID)
				} else {
					nv.hop = nu.hop
				}
			}
		}
	}
	routes := r.lastRoutes[:0]
	for i := range nodes {
		n := &nodes[i]
		if n.hop == nil {
			continue // this router, an island, or behind a neighbor not Full
		}
		for _, s := range n.lsa.Stubs {
			routes = append(routes, fib.Route{
				Prefix:  s.Prefix,
				NextHop: n.hop.addr,
				OutPort: n.hop.ifc.Index,
				Metric:  uint32(n.dist) + s.Cost,
			})
		}
	}
	// Deduplicate: several routers may advertise the same subnet (both
	// ends of a /30); keep the lowest metric, equal metrics broken on
	// next-hop address. Sorted that way the winner is the first of each
	// prefix, and the set comes out in the order it is handed on in.
	slices.SortFunc(routes, func(a, b fib.Route) int {
		return cmp.Or(fib.PrefixTextCompare(a.Prefix, b.Prefix),
			cmp.Compare(a.Metric, b.Metric), a.NextHop.Compare(b.NextHop))
	})
	routes = slices.CompactFunc(routes, func(a, b fib.Route) bool { return a.Prefix == b.Prefix })
	r.lastRoutes = routes
	r.onRoutes(routes)
}

// Routes returns a copy of the route set produced by the most recent
// SPF run — the protocol's RIB as last handed to the FEA. The
// simulation invariant checkers compare it against the merged RIB and
// the installed FIB (control-plane/data-plane consistency).
func (r *Router) Routes() []fib.Route {
	out := make([]fib.Route, len(r.lastRoutes))
	copy(out, r.lastRoutes)
	return out
}

// NeighborSnapshot is one adjacency in an exported State.
type NeighborSnapshot struct {
	Iface int
	ID    uint32
	Addr  netip.Addr
	Full  bool
}

// State is a transferable snapshot of a router's control-plane state:
// the LSA sequence counter, the link-state database, and the adjacency
// table. A migration shadow imports it before Start so its first
// originated LSA supersedes the old instance's (Seq+1) and its first
// hello already lists every Full neighbor — peers never observe the
// "neighbor restarted and forgot us" transition, so no adjacency reset
// and no route churn.
type State struct {
	Seq       uint32
	LSAs      []LSA
	Neighbors []NeighborSnapshot
}

// ExportState snapshots the router's control-plane state for transfer to
// a migration shadow. Must run in the router's clock domain or at a
// barrier.
func (r *Router) ExportState() State {
	st := State{Seq: r.mySeq, LSAs: r.LSDB()}
	for _, nb := range r.neighbors {
		st.Neighbors = append(st.Neighbors, NeighborSnapshot{
			Iface: nb.ifc.Index, ID: nb.id, Addr: nb.addr, Full: nb.state == nFull})
	}
	return st
}

// ImportState installs a transferred snapshot into a not-yet-started
// router: the sequence counter, the LSDB (installed as of now for MaxAge
// accounting), and the adjacencies, whose dead timers are armed fresh on
// this router's clock. Pending-ack state is not transferred — if an LSU
// to the old instance was in flight, the peer retransmits and the shadow
// (holding the same-seq LSDB) acknowledges. Call between AddInterface
// and Start; the interfaces named by the snapshot must exist.
func (r *Router) ImportState(st State) error {
	if r.started {
		return fmt.Errorf("ospf: ImportState after Start")
	}
	r.mySeq = st.Seq
	now := r.clock.Now()
	for _, lsa := range st.LSAs {
		r.lsdb[lsa.Origin] = lsa
		r.lsdbAt[lsa.Origin] = now
	}
	for _, ns := range st.Neighbors {
		ifc := r.iface(ns.Iface)
		if ifc == nil {
			return fmt.Errorf("ospf: ImportState: no interface with index %d", ns.Iface)
		}
		nb := r.newNeighbor(ns.ID, ns.Addr, ifc)
		if ns.Full {
			nb.state = nFull
		} else {
			nb.state = nInit
		}
		nb.deadTimer = r.clock.Schedule(r.cfg.Dead, nb.deadFn)
		r.setNeighbor(nb)
	}
	return nil
}

// neighborByID returns the Full adjacency with router id on the lowest
// interface index.
func (r *Router) neighborByID(id uint32) *neighbor {
	for _, nb := range r.neighbors {
		if nb.id == id && nb.state == nFull {
			return nb
		}
	}
	return nil
}
