package ospf

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"vini/internal/fib"
	"vini/internal/sim"
)

// Transport sends an OSPF packet out a virtual interface toward the
// point-to-point neighbor. The IIAS overlay implements this by wrapping
// the payload in IP protocol 89 and pushing it through the Click graph,
// so routing traffic traverses (and is cut by failures of) the same
// tunnels as data traffic.
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
	// Rxmt is the LSA retransmission interval (default 2s).
	Rxmt time.Duration
	// SPFDelay batches LSDB changes before recomputing (default 100 ms).
	SPFDelay time.Duration
	// Refresh re-originates our LSA periodically so neighbors' aging
	// never expires live state (default 30 minutes, as OSPF's
	// LSRefreshTime; tests shorten it).
	Refresh time.Duration
	// MaxAge purges LSAs not refreshed within it (default 1 hour,
	// OSPF's MaxAge).
	MaxAge time.Duration
	// Stubs are local prefixes advertised in the router LSA (the tap0
	// host route, in IIAS).
	Stubs []StubDesc
	// Ticks, when set, is the clock for coarse periodic timers (hello,
	// refresh, age sweep) — typically a sim.TickWheel that coalesces
	// many routers' ticks into shared slot events. Deadline-sensitive
	// timers (dead, retransmit, SPF delay) always use the main clock.
	// Nil means periodic timers use the main clock too.
	Ticks sim.Clock
}

func (c *Config) setDefaults() {
	if c.Hello <= 0 {
		c.Hello = 5 * time.Second
	}
	if c.Dead <= 0 {
		c.Dead = 2 * c.Hello
	}
	if c.Rxmt <= 0 {
		c.Rxmt = 2 * time.Second
	}
	if c.SPFDelay <= 0 {
		c.SPFDelay = 100 * time.Millisecond
	}
	if c.Refresh <= 0 {
		c.Refresh = 30 * time.Minute
	}
	if c.MaxAge <= 0 {
		c.MaxAge = time.Hour
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
	pendingAcks map[Key]LSA
	rxmtTimer   sim.Timer
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
	// neighbors keyed by interface index (point-to-point: one each).
	neighbors map[int]*neighbor
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
	// SPFRuns counts SPF executions, for convergence diagnostics.
	SPFRuns int
}

// New creates a router; call AddInterface then Start.
func New(clock sim.Clock, cfg Config, tr Transport) *Router {
	cfg.setDefaults()
	ticks := cfg.Ticks
	if ticks == nil {
		ticks = clock
	}
	return &Router{
		cfg:       cfg,
		clock:     clock,
		ticks:     ticks,
		tr:        tr,
		neighbors: make(map[int]*neighbor),
		lsdb:      make(map[uint32]LSA),
		lsdbAt:    make(map[uint32]time.Duration),
	}
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
	r.ticks.Schedule(r.cfg.Refresh, r.refresh)
	r.ticks.Schedule(r.cfg.MaxAge/4, r.ageSweep)
}

// refresh periodically re-originates our LSA (LSRefreshTime) so it never
// ages out of neighbors' databases.
func (r *Router) refresh() {
	if !r.started {
		return
	}
	r.originate()
	r.ticks.Schedule(r.cfg.Refresh, r.refresh)
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
		if now-at > r.cfg.MaxAge {
			delete(r.lsdb, origin)
			delete(r.lsdbAt, origin)
			changed = true
		}
	}
	if changed {
		r.scheduleSPF()
	}
	r.ticks.Schedule(r.cfg.MaxAge/4, r.ageSweep)
}

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
	idxs := make([]int, 0, len(r.neighbors))
	for i := range r.neighbors {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	out := make([]NeighborInfo, 0, len(idxs))
	for _, i := range idxs {
		nb := r.neighbors[i]
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
		var seen []uint32
		if nb, ok := r.neighbors[ifc.Index]; ok && nb.state >= nInit {
			seen = append(seen, nb.id)
		}
		pkt := MarshalHello(r.cfg.RouterID, Hello{
			HelloInterval: uint16(r.cfg.Hello / time.Second),
			DeadInterval:  uint16(r.cfg.Dead / time.Second),
			Neighbors:     seen,
		})
		r.tr.SendRouting(ifc.Index, pkt)
	}
	r.helloTimer = r.ticks.Schedule(r.cfg.Hello, r.sendHellos)
}

// Receive processes an OSPF packet arriving on interface ifIndex from
// the neighbor address src. Malformed packets are dropped with an error
// for the caller's logs.
func (r *Router) Receive(ifIndex int, src netip.Addr, payload []byte) error {
	if !r.started {
		return nil
	}
	h, body, err := ParseHeader(payload)
	if err != nil {
		return err
	}
	if h.RouterID == r.cfg.RouterID {
		return nil // our own packet reflected
	}
	switch h.Type {
	case TypeHello:
		hello, err := ParseHello(body)
		if err != nil {
			return err
		}
		r.handleHello(ifIndex, src, h.RouterID, hello)
	case TypeLSU:
		u, err := ParseLSU(body)
		if err != nil {
			return err
		}
		r.handleLSU(ifIndex, h.RouterID, u)
	case TypeLSAck:
		a, err := ParseLSAck(body)
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

func (r *Router) handleHello(ifIndex int, src netip.Addr, id uint32, h Hello) {
	ifc := r.iface(ifIndex)
	if ifc == nil {
		return
	}
	nb := r.neighbors[ifIndex]
	if nb == nil || nb.id != id {
		nb = &neighbor{id: id, addr: src, ifc: ifc, pendingAcks: make(map[Key]LSA)}
		r.neighbors[ifIndex] = nb
	}
	nb.addr = src
	// Reset the dead timer.
	if !nb.deadTimer.IsZero() {
		nb.deadTimer.Stop()
	}
	nb.deadTimer = r.clock.Schedule(r.cfg.Dead, func() { r.neighborDead(ifIndex, nb) })
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
	var all []LSA
	for _, l := range r.lsdb {
		all = append(all, l)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Origin < all[j].Origin })
	if len(all) > 0 {
		r.sendLSU(nb, all)
	}
}

func (r *Router) neighborDead(ifIndex int, nb *neighbor) {
	if r.neighbors[ifIndex] != nb {
		return
	}
	delete(r.neighbors, ifIndex)
	if !nb.rxmtTimer.IsZero() {
		nb.rxmtTimer.Stop()
	}
	r.originate()
	r.neighborEvent(ifIndex, nb.id, "Down")
}

// originate rebuilds and floods our router LSA.
func (r *Router) originate() {
	r.mySeq++
	lsa := LSA{Origin: r.cfg.RouterID, Seq: r.mySeq, Stubs: append([]StubDesc(nil), r.cfg.Stubs...)}
	// Advertise interface subnets as stubs plus links to Full neighbors.
	idxs := make([]int, 0, len(r.neighbors))
	for i := range r.neighbors {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		nb := r.neighbors[i]
		if nb.state == nFull {
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
// tracking acknowledgements for retransmission. Interface order is
// sorted so runs are bit-reproducible (map order would perturb the
// shared simulation RNG).
func (r *Router) flood(lsa LSA, exceptIf int) {
	idxs := make([]int, 0, len(r.neighbors))
	for i := range r.neighbors {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		nb := r.neighbors[i]
		if i == exceptIf || nb.state != nFull {
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
		nb.pendingAcks[l.Key()] = l
	}
	r.tr.SendRouting(nb.ifc.Index, MarshalLSU(r.cfg.RouterID, LSU{LSAs: lsas}))
	if nb.rxmtTimer.IsZero() {
		nb.rxmtTimer = r.clock.Schedule(r.cfg.Rxmt, func() { r.retransmit(nb) })
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
	r.tr.SendRouting(nb.ifc.Index, MarshalLSU(r.cfg.RouterID, LSU{LSAs: lsas}))
	nb.rxmtTimer = r.clock.Schedule(r.cfg.Rxmt, func() { r.retransmit(nb) })
}

func (r *Router) handleLSU(ifIndex int, from uint32, u LSU) {
	nb := r.neighbors[ifIndex]
	var acks []Key
	changed := false
	for _, lsa := range u.LSAs {
		acks = append(acks, lsa.Key())
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
		r.lsdb[lsa.Origin] = lsa
		r.lsdbAt[lsa.Origin] = r.clock.Now()
		changed = true
		r.flood(lsa, ifIndex)
	}
	if nb != nil && len(acks) > 0 {
		r.tr.SendRouting(ifIndex, MarshalLSAck(r.cfg.RouterID, LSAck{Keys: acks}))
	}
	if changed {
		r.scheduleSPF()
	}
}

func (r *Router) handleAck(ifIndex int, a LSAck) {
	nb := r.neighbors[ifIndex]
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
	r.clock.Schedule(r.cfg.SPFDelay, func() {
		r.spfPending = false
		r.runSPF()
	})
}

// runSPF computes shortest paths over the LSDB and emits routes. An edge
// u→v is used only if both u and v advertise it (the bidirectional
// check), which is what makes half-propagated failures produce the
// transient paths Figure 8 shows rather than loops.
func (r *Router) runSPF() {
	r.SPFRuns++
	if r.onRoutes == nil {
		return
	}
	type nodeDist struct {
		id   uint32
		dist uint64
	}
	const inf = ^uint64(0)
	dist := map[uint32]uint64{r.cfg.RouterID: 0}
	firstHop := map[uint32]*neighbor{} // dest -> first-hop neighbor
	visited := map[uint32]bool{}
	// cost returns the bidirectional-checked edge cost u->v.
	cost := func(u, v uint32) (uint32, bool) {
		lu, ok := r.lsdb[u]
		if !ok {
			return 0, false
		}
		lv, ok := r.lsdb[v]
		if !ok {
			return 0, false
		}
		var cuv uint32
		found := false
		for _, l := range lu.Links {
			if l.NeighborID == v && (!found || l.Cost < cuv) {
				cuv, found = l.Cost, true
			}
		}
		if !found {
			return 0, false
		}
		back := false
		for _, l := range lv.Links {
			if l.NeighborID == u {
				back = true
				break
			}
		}
		if !back {
			return 0, false
		}
		return cuv, true
	}
	for {
		// Extract min unvisited.
		best := nodeDist{dist: inf}
		ids := make([]uint32, 0, len(dist))
		for id := range dist {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			if !visited[id] && dist[id] < best.dist {
				best = nodeDist{id: id, dist: dist[id]}
			}
		}
		if best.dist == inf {
			break
		}
		u := best.id
		visited[u] = true
		// Relax u's edges.
		lu := r.lsdb[u]
		for _, l := range lu.Links {
			v := l.NeighborID
			c, ok := cost(u, v)
			if !ok {
				continue
			}
			nd := dist[u] + uint64(c)
			cur, have := dist[v]
			if !have || nd < cur {
				dist[v] = nd
				// Propagate first hop.
				if u == r.cfg.RouterID {
					firstHop[v] = r.neighborByID(v)
				} else {
					firstHop[v] = firstHop[u]
				}
			}
		}
	}
	var routes []fib.Route
	for dst, d := range dist {
		if dst == r.cfg.RouterID {
			continue
		}
		nb := firstHop[dst]
		if nb == nil {
			continue
		}
		lsa := r.lsdb[dst]
		for _, s := range lsa.Stubs {
			routes = append(routes, fib.Route{
				Prefix:  s.Prefix,
				NextHop: nb.addr,
				OutPort: nb.ifc.Index,
				Metric:  uint32(d) + s.Cost,
			})
		}
	}
	// Deduplicate: several routers may advertise the same subnet (both
	// ends of a /30); keep the lowest metric. Equal-metric ties break on
	// next-hop address — `routes` was accumulated in map-range order, so
	// without a total order here the winner would vary run to run and
	// replay determinism would be lost.
	bestRoute := map[netip.Prefix]fib.Route{}
	for _, rt := range routes {
		cur, ok := bestRoute[rt.Prefix]
		if !ok || rt.Metric < cur.Metric ||
			(rt.Metric == cur.Metric && rt.NextHop.Less(cur.NextHop)) {
			bestRoute[rt.Prefix] = rt
		}
	}
	routes = routes[:0]
	for _, rt := range bestRoute {
		routes = append(routes, rt)
	}
	sort.Slice(routes, func(i, j int) bool {
		return fib.PrefixTextLess(routes[i].Prefix, routes[j].Prefix)
	})
	r.lastRoutes = append(r.lastRoutes[:0], routes...)
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
	idxs := make([]int, 0, len(r.neighbors))
	for i := range r.neighbors {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		nb := r.neighbors[i]
		st.Neighbors = append(st.Neighbors, NeighborSnapshot{
			Iface: i, ID: nb.id, Addr: nb.addr, Full: nb.state == nFull})
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
		nb := &neighbor{id: ns.ID, addr: ns.Addr, ifc: ifc, pendingAcks: make(map[Key]LSA)}
		if ns.Full {
			nb.state = nFull
		} else {
			nb.state = nInit
		}
		idx := ns.Iface
		nb.deadTimer = r.clock.Schedule(r.cfg.Dead, func() { r.neighborDead(idx, nb) })
		r.neighbors[idx] = nb
	}
	return nil
}

func (r *Router) neighborByID(id uint32) *neighbor {
	idxs := make([]int, 0, len(r.neighbors))
	for i := range r.neighbors {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		if nb := r.neighbors[i]; nb.id == id && nb.state == nFull {
			return nb
		}
	}
	return nil
}
