package ospf

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"vini/internal/fib"
	"vini/internal/sim"
	"vini/internal/topology"
)

// mesh wires Routers together with delayed, failable point-to-point
// pipes, standing in for the overlay tunnels.
type mesh struct {
	loop    *sim.Loop
	routers map[string]*meshNode
	loss    float64 // per-packet loss probability on every pipe
}

type meshNode struct {
	m      *mesh
	name   string
	r      *Router
	routes []fib.Route
	pipes  map[int]*pipe // by local ifIndex
}

type pipe struct {
	peer     *meshNode
	peerIf   int
	peerAddr netip.Addr
	delay    time.Duration
	down     *bool
}

func newMesh(loop *sim.Loop) *mesh {
	return &mesh{loop: loop, routers: make(map[string]*meshNode)}
}

func (m *mesh) addRouter(name string, id uint32, cfg Config) *meshNode {
	cfg.RouterID = id
	n := &meshNode{m: m, name: name, pipes: make(map[int]*pipe)}
	n.r = New(m.loop, cfg, n)
	n.r.OnRoutes(func(rs []fib.Route) { n.routes = append([]fib.Route(nil), rs...) }) // rs is lent
	m.routers[name] = n
	return n
}

// SendRouting implements Transport with the pipe's delay and failure.
func (n *meshNode) SendRouting(ifIndex int, payload []byte) {
	p, ok := n.pipes[ifIndex]
	if !ok {
		return
	}
	if n.m.loss > 0 && n.m.loop.RNG().Bool(n.m.loss) {
		return
	}
	buf := append([]byte(nil), payload...)
	src := localAddr(n, ifIndex)
	n.m.loop.Schedule(p.delay, func() {
		if *p.down {
			return
		}
		p.peer.r.Receive(p.peerIf, src, buf)
	})
}

func localAddr(n *meshNode, ifIndex int) netip.Addr {
	for _, ifc := range n.r.ifaces {
		if ifc.Index == ifIndex {
			return ifc.Addr
		}
	}
	return netip.Addr{}
}

var subnetCounter int

// connect links two routers with a fresh /30 and the given cost/delay.
// It returns a pointer to the link's failure flag.
func (m *mesh) connect(a, b *meshNode, cost uint32, delay time.Duration) *bool {
	subnetCounter++
	base := netip.MustParseAddr("10.1.0.0").As4()
	base[2] = byte(subnetCounter >> 6)
	base[3] = byte(subnetCounter << 2 & 0xff)
	addrA := netip.AddrFrom4([4]byte{base[0], base[1], base[2], base[3] + 1})
	addrB := netip.AddrFrom4([4]byte{base[0], base[1], base[2], base[3] + 2})
	prefix := netip.PrefixFrom(netip.AddrFrom4(base), 30)
	ifA := len(a.pipes)
	ifB := len(b.pipes)
	a.r.AddInterface(Interface{Name: fmt.Sprintf("%s-%s", a.name, b.name), Index: ifA, Addr: addrA, Prefix: prefix, Cost: cost})
	b.r.AddInterface(Interface{Name: fmt.Sprintf("%s-%s", b.name, a.name), Index: ifB, Addr: addrB, Prefix: prefix, Cost: cost})
	down := new(bool)
	a.pipes[ifA] = &pipe{peer: b, peerIf: ifB, peerAddr: addrB, delay: delay, down: down}
	b.pipes[ifB] = &pipe{peer: a, peerIf: ifA, peerAddr: addrA, delay: delay, down: down}
	return down
}

func (m *mesh) startAll() {
	// Start in sorted name order: map range order would vary run to
	// run, permuting the shared-RNG draw sequence (loss decisions) and
	// making loss-dependent tests flaky.
	names := make([]string, 0, len(m.routers))
	for name := range m.routers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m.routers[name].r.Start()
	}
}

// routeTo finds n's route for the given prefix.
func (n *meshNode) routeTo(prefix string) (fib.Route, bool) {
	p := netip.MustParsePrefix(prefix)
	for _, r := range n.routes {
		if r.Prefix == p {
			return r, true
		}
	}
	return fib.Route{}, false
}

func stub(p string) StubDesc { return StubDesc{Prefix: netip.MustParsePrefix(p), Cost: 0} }

func fastCfg(stubs ...StubDesc) Config {
	return Config{Hello: time.Second, Dead: 3 * time.Second,
		rxmt: 500 * time.Millisecond, SPFDelay: 50 * time.Millisecond, Stubs: stubs}
}

func TestWireRoundTrips(t *testing.T) {
	h := Hello{HelloInterval: 5, DeadInterval: 10, Neighbors: []uint32{7, 9}}
	pkt := MarshalHello(42, h)
	hdr, body, err := parseHeader(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Type != typeHello || hdr.RouterID != 42 {
		t.Fatalf("header = %+v", hdr)
	}
	h2, err := new(decoder).hello(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(h2.Neighbors) != 2 || h2.Neighbors[0] != 7 || h2.DeadInterval != 10 {
		t.Fatalf("hello = %+v", h2)
	}

	lsa := LSA{Origin: 1, Seq: 3,
		Links: []LinkDesc{{NeighborID: 2, Cost: 100}},
		Stubs: []StubDesc{{Prefix: netip.MustParsePrefix("10.0.0.1/32"), Cost: 0}}}
	u := LSU{LSAs: []LSA{lsa}}
	pkt = MarshalLSU(1, u)
	_, body, err = parseHeader(pkt)
	if err != nil {
		t.Fatal(err)
	}
	u2, err := new(decoder).lsu(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(u2.LSAs) != 1 || u2.LSAs[0].Origin != 1 || u2.LSAs[0].Links[0].Cost != 100 ||
		u2.LSAs[0].Stubs[0].Prefix.String() != "10.0.0.1/32" {
		t.Fatalf("lsu = %+v", u2)
	}

	a := lsAck{Keys: []lsaKey{{Origin: 1, Seq: 3}}}
	pkt = appendLSAck(nil, 2, a.Keys)
	_, body, err = parseHeader(pkt)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := new(decoder).lsack(body)
	if err != nil || len(a2.Keys) != 1 || a2.Keys[0] != (lsaKey{1, 3}) {
		t.Fatalf("ack = %+v err=%v", a2, err)
	}
}

func TestWireRejectsCorruption(t *testing.T) {
	pkt := MarshalHello(42, Hello{HelloInterval: 5, DeadInterval: 10})
	for i := range pkt {
		bad := append([]byte(nil), pkt...)
		bad[i] ^= 0x5a
		if _, _, err := parseHeader(bad); err == nil {
			// Flipping the checksum field itself must also fail.
			t.Fatalf("corruption at byte %d accepted", i)
		}
	}
	if _, _, err := parseHeader([]byte{2, 1}); err == nil {
		t.Fatal("truncated packet accepted")
	}
}

// TestWireAcceptsEitherZeroChecksum pins RFC 1071 verification on a
// packet whose ones'-complement sum makes the checksum zero: the field
// may hold 0x0000 or its other representation, 0xffff.
func TestWireAcceptsEitherZeroChecksum(t *testing.T) {
	pkt := MarshalHello(42, Hello{HelloInterval: 5, DeadInterval: 10})
	// Adding the checksum into a body word (ones'-complement addition)
	// moves the packet's sum to the value whose checksum is zero.
	c := uint32(binary.BigEndian.Uint16(pkt[12:14]))
	w := uint32(binary.BigEndian.Uint16(pkt[headerLen:])) + c
	binary.BigEndian.PutUint16(pkt[headerLen:], uint16(w+w>>16))
	for _, field := range []uint16{0x0000, 0xffff} {
		binary.BigEndian.PutUint16(pkt[12:14], field)
		if _, _, err := parseHeader(pkt); err != nil {
			t.Errorf("checksum field %#04x: %v", field, err)
		}
	}
	binary.BigEndian.PutUint16(pkt[12:14], 0x0001)
	if _, _, err := parseHeader(pkt); err == nil {
		t.Error("checksum field 0x0001 accepted")
	}
}

func TestWireFuzzNoPanic(t *testing.T) {
	f := func(b []byte) bool {
		if h, body, err := parseHeader(b); err == nil {
			switch h.Type {
			case typeHello:
				new(decoder).hello(body)
			case typeLSU:
				new(decoder).lsu(body)
			case typeLSAck:
				new(decoder).lsack(body)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestTwoRoutersConverge(t *testing.T) {
	loop := sim.NewLoop(1)
	m := newMesh(loop)
	a := m.addRouter("a", 1, fastCfg(stub("10.0.0.1/32")))
	b := m.addRouter("b", 2, fastCfg(stub("10.0.0.2/32")))
	m.connect(a, b, 10, time.Millisecond)
	m.startAll()
	loop.Run(10 * time.Second)
	if nbs := a.r.Neighbors(); len(nbs) != 1 || nbs[0].State != "Full" {
		t.Fatalf("a neighbors = %+v", nbs)
	}
	r, ok := a.routeTo("10.0.0.2/32")
	if !ok {
		t.Fatalf("a has no route to b's stub: %v", a.routes)
	}
	if r.Metric != 10 {
		t.Fatalf("metric = %d, want 10", r.Metric)
	}
	if _, ok := b.routeTo("10.0.0.1/32"); !ok {
		t.Fatal("b has no route to a's stub")
	}
}

func TestLineOfThreeNextHops(t *testing.T) {
	loop := sim.NewLoop(1)
	m := newMesh(loop)
	a := m.addRouter("a", 1, fastCfg(stub("10.0.0.1/32")))
	b := m.addRouter("b", 2, fastCfg(stub("10.0.0.2/32")))
	c := m.addRouter("c", 3, fastCfg(stub("10.0.0.3/32")))
	m.connect(a, b, 5, time.Millisecond)
	m.connect(b, c, 7, time.Millisecond)
	m.startAll()
	loop.Run(15 * time.Second)
	r, ok := a.routeTo("10.0.0.3/32")
	if !ok {
		t.Fatalf("a cannot reach c: %v", a.routes)
	}
	if r.Metric != 12 {
		t.Fatalf("a->c metric = %d, want 12", r.Metric)
	}
	// Next hop must be b's interface address on the a-b subnet.
	nbs := a.r.Neighbors()
	if r.NextHop != nbs[0].Addr {
		t.Fatalf("next hop = %v, want %v", r.NextHop, nbs[0].Addr)
	}
}

func TestFailureDetectionAndReroute(t *testing.T) {
	loop := sim.NewLoop(1)
	m := newMesh(loop)
	a := m.addRouter("a", 1, fastCfg(stub("10.0.0.1/32")))
	b := m.addRouter("b", 2, fastCfg(stub("10.0.0.2/32")))
	c := m.addRouter("c", 3, fastCfg(stub("10.0.0.3/32")))
	downAB := m.connect(a, b, 1, time.Millisecond)
	m.connect(a, c, 10, time.Millisecond)
	m.connect(c, b, 10, time.Millisecond)
	m.startAll()
	loop.Run(10 * time.Second)
	r, _ := a.routeTo("10.0.0.2/32")
	if r.Metric != 1 {
		t.Fatalf("initial metric = %d, want 1 (direct)", r.Metric)
	}
	// Fail a-b. Within the dead interval plus SPF delay, a must reroute
	// via c with metric 20.
	*downAB = true
	failAt := loop.Now()
	loop.Run(failAt + 4*time.Second)
	r, ok := a.routeTo("10.0.0.2/32")
	if !ok {
		t.Fatalf("no route after failure: %v", a.routes)
	}
	if r.Metric != 20 {
		t.Fatalf("post-failure metric = %d, want 20 (via c)", r.Metric)
	}
	// Restore: routes revert to the direct path.
	*downAB = false
	loop.Run(loop.Now() + 6*time.Second)
	r, _ = a.routeTo("10.0.0.2/32")
	if r.Metric != 1 {
		t.Fatalf("post-restore metric = %d, want 1", r.Metric)
	}
}

func TestFloodingSurvivesLoss(t *testing.T) {
	loop := sim.NewLoop(99)
	m := newMesh(loop)
	m.loss = 0.3 // drop 30% of all routing packets
	a := m.addRouter("a", 1, fastCfg(stub("10.0.0.1/32")))
	b := m.addRouter("b", 2, fastCfg(stub("10.0.0.2/32")))
	c := m.addRouter("c", 3, fastCfg(stub("10.0.0.3/32")))
	m.connect(a, b, 1, time.Millisecond)
	m.connect(b, c, 1, time.Millisecond)
	m.startAll()
	loop.Run(60 * time.Second)
	if _, ok := a.routeTo("10.0.0.3/32"); !ok {
		t.Fatalf("retransmission did not deliver LSAs under loss: %v", a.routes)
	}
	if _, ok := c.routeTo("10.0.0.1/32"); !ok {
		t.Fatal("reverse direction missing too")
	}
}

// TestAbileneMatchesReference brings up OSPF on the full Abilene topology
// with the paper's weights and checks that every router's OSPF metrics
// equal the reference Dijkstra over the same graph.
func TestAbileneMatchesReference(t *testing.T) {
	loop := sim.NewLoop(1)
	m := newMesh(loop)
	g := topology.Abilene()
	nodes := map[string]*meshNode{}
	ids := map[string]uint32{}
	for i, name := range g.Nodes() {
		id := uint32(i + 1)
		ids[name] = id
		nodes[name] = m.addRouter(name, id, fastCfg(StubDesc{
			Prefix: netip.PrefixFrom(addrFromRouterID(0x0a000000+id), 32)}))
	}
	for _, l := range g.Links() {
		m.connect(nodes[l.A], nodes[l.B], l.CostAB, l.Delay)
	}
	m.startAll()
	loop.Run(30 * time.Second)
	for _, src := range g.Nodes() {
		ref := g.ShortestPaths(src, nil)
		for _, dst := range g.Nodes() {
			if dst == src {
				continue
			}
			want := ref[dst].Cost
			pfx := netip.PrefixFrom(addrFromRouterID(0x0a000000+ids[dst]), 32)
			var got fib.Route
			found := false
			for _, r := range nodes[src].routes {
				if r.Prefix == pfx {
					got, found = r, true
					break
				}
			}
			if !found {
				t.Fatalf("%s has no route to %s", src, dst)
			}
			if got.Metric != want {
				t.Fatalf("%s->%s metric = %d, want %d", src, dst, got.Metric, want)
			}
		}
	}
}

func TestStopSilencesRouter(t *testing.T) {
	loop := sim.NewLoop(1)
	m := newMesh(loop)
	a := m.addRouter("a", 1, fastCfg())
	b := m.addRouter("b", 2, fastCfg(stub("10.0.0.2/32")))
	m.connect(a, b, 1, time.Millisecond)
	m.startAll()
	loop.Run(10 * time.Second)
	a.r.Stop()
	// After b's dead interval, b should drop the adjacency.
	loop.Run(loop.Now() + 5*time.Second)
	if nbs := b.r.Neighbors(); len(nbs) != 0 {
		t.Fatalf("b still has neighbors after a stopped: %+v", nbs)
	}
}

func TestRouterIDAddrRoundTrip(t *testing.T) {
	f := func(a, b, c, d byte) bool {
		addr := netip.AddrFrom4([4]byte{a, b, c, d})
		return addrFromRouterID(RouterIDFromAddr(addr)) == addr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAgingPurgesDeadRouterState: a router that vanishes without
// withdrawing leaves its LSA behind; refresh keeps live state alive and
// MaxAge sweeps the corpse out of everyone's database.
func TestAgingPurgesDeadRouterState(t *testing.T) {
	loop := sim.NewLoop(1)
	m := newMesh(loop)
	cfg := fastCfg(stub("10.0.0.1/32"))
	cfg.refresh = 10 * time.Second
	cfg.maxAge = 30 * time.Second
	mk := func(name string, id uint32, st string) *meshNode {
		c := cfg
		c.Stubs = []StubDesc{stub(st)}
		return m.addRouter(name, id, c)
	}
	a := mk("a", 1, "10.0.0.1/32")
	b := mk("b", 2, "10.0.0.2/32")
	c := mk("c", 3, "10.0.0.3/32")
	m.connect(a, b, 1, time.Millisecond)
	m.connect(b, c, 1, time.Millisecond)
	m.startAll()
	loop.Run(10 * time.Second)
	if len(a.r.LSDB()) != 3 {
		t.Fatalf("a LSDB = %d entries", len(a.r.LSDB()))
	}
	// c dies silently.
	c.r.Stop()
	// Refresh keeps a and b alive in each other's databases well past
	// MaxAge; c's LSA ages out.
	loop.Run(loop.Now() + 2*time.Minute)
	db := a.r.LSDB()
	for _, l := range db {
		if l.Origin == 3 {
			t.Fatalf("dead router's LSA survived aging: %+v", db)
		}
	}
	found := map[uint32]bool{}
	for _, l := range db {
		found[l.Origin] = true
	}
	if !found[1] || !found[2] {
		t.Fatalf("live LSAs aged out: %+v", db)
	}
	// And live routes still work.
	if _, ok := a.routeTo("10.0.0.2/32"); !ok {
		t.Fatal("live route lost")
	}
}

// TestStateTransferPreservesAdjacencies: exporting a router's state,
// stopping it, and importing into a fresh instance before Start (the
// make-before-break migration hand-off) must be invisible to peers — no
// adjacency reset, no neighbor events, no route change.
func TestStateTransferPreservesAdjacencies(t *testing.T) {
	loop := sim.NewLoop(1)
	m := newMesh(loop)
	a := m.addRouter("a", 1, fastCfg(stub("10.0.0.1/32")))
	b := m.addRouter("b", 2, fastCfg(stub("10.0.0.2/32")))
	c := m.addRouter("c", 3, fastCfg(stub("10.0.0.3/32")))
	m.connect(a, b, 1, time.Millisecond)
	m.connect(b, c, 1, time.Millisecond)
	m.startAll()
	loop.Run(10 * time.Second)
	if _, ok := a.routeTo("10.0.0.3/32"); !ok {
		t.Fatal("no route a->c before migration")
	}
	routesBefore := fmt.Sprintf("%v", a.routes)

	// Swap b for a fresh instance carrying b's exported state. The new
	// instance reuses b's identity, interfaces, and pipes — only the
	// Router object (and, in a real migration, the hosting process) is
	// new.
	b2 := &meshNode{m: m, name: "b", pipes: b.pipes}
	b2.r = New(loop, fastCfg(stub("10.0.0.2/32")), b2)
	b2.r.cfg.RouterID = 2
	b2.r.OnRoutes(func(rs []fib.Route) { b2.routes = append([]fib.Route(nil), rs...) })
	for _, ifc := range b.r.ifaces {
		b2.r.AddInterface(*ifc)
	}
	for _, p := range b.pipes {
		// Point the peers' pipes at the new instance.
		p.peer.pipes[p.peerIf].peer = b2
	}
	st := b.r.ExportState()
	b.r.Stop()
	if err := b2.r.ImportState(st); err != nil {
		t.Fatalf("ImportState: %v", err)
	}
	var events []string
	a.r.OnNeighborEvent(func(iface int, id uint32, state string) {
		events = append(events, fmt.Sprintf("a: if%d n%d %s", iface, id, state))
	})
	c.r.OnNeighborEvent(func(iface int, id uint32, state string) {
		events = append(events, fmt.Sprintf("c: if%d n%d %s", iface, id, state))
	})
	b2.r.Start()
	m.routers["b"] = b2

	// Run well past the dead interval: peers must never notice.
	loop.Run(loop.Now() + 15*time.Second)
	if len(events) != 0 {
		t.Fatalf("peers observed adjacency churn across migration: %v", events)
	}
	for _, n := range []*meshNode{a, c} {
		for _, nb := range n.r.Neighbors() {
			if nb.State != "Full" {
				t.Fatalf("%s adjacency degraded: %+v", n.name, nb)
			}
		}
	}
	if after := fmt.Sprintf("%v", a.routes); after != routesBefore {
		t.Fatalf("routes changed across migration:\nbefore %s\nafter  %s", routesBefore, after)
	}
	// The shadow must itself be Full toward both peers and forwarding.
	if got := len(b2.r.Neighbors()); got != 2 {
		t.Fatalf("shadow has %d neighbors, want 2", got)
	}
	if _, ok := b2.routeTo("10.0.0.3/32"); !ok {
		t.Fatal("shadow has no route to c")
	}
}

// TestImportStateRejectsMisuse: importing after Start or naming a
// missing interface must error, not corrupt state.
func TestImportStateRejectsMisuse(t *testing.T) {
	loop := sim.NewLoop(1)
	m := newMesh(loop)
	a := m.addRouter("a", 1, fastCfg())
	b := m.addRouter("b", 2, fastCfg())
	m.connect(a, b, 1, time.Millisecond)
	m.startAll()
	loop.Run(5 * time.Second)
	st := a.r.ExportState()
	if err := a.r.ImportState(st); err == nil {
		t.Fatal("ImportState after Start accepted")
	}
	fresh := New(loop, fastCfg(), b)
	fresh.cfg.RouterID = 9
	st.Neighbors = append(st.Neighbors, NeighborSnapshot{Iface: 99, ID: 7, Full: true})
	if err := fresh.ImportState(st); err == nil {
		t.Fatal("ImportState with unknown interface accepted")
	}
}

// referenceSPF is runSPF as it stood before it moved onto reusable dense
// arrays — three maps, a sorted id slice and a sort.Slice per iteration,
// a map to deduplicate — kept as the oracle the rewrite is compared
// against. Only the neighbor lookup differs: the adjacencies are a slice
// in interface order now, not a map whose keys had to be sorted first.
func referenceSPF(r *Router) []fib.Route {
	neighborByID := func(id uint32) *neighbor {
		for _, nb := range r.neighbors {
			if nb.id == id && nb.state == nFull {
				return nb
			}
		}
		return nil
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
					firstHop[v] = neighborByID(v)
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
		return fib.PrefixTextCompare(routes[i].Prefix, routes[j].Prefix) < 0
	})
	return routes
}

// randomLSDB fills a router (id 1) with a random link-state database and
// adjacency table built to hit every branch of SPF: asymmetric costs,
// one-way links (the bidirectional check), parallel links (the cheapest
// counts; toward a neighbor, the lowest Full interface carries it),
// costs from a small set (equal-cost ties on distance and on metric),
// both ends of a /30 advertising it at different costs, neighbors that
// are not Full, links to routers nobody has an LSA for, and islands no
// path reaches.
func randomLSDB(rng *rand.Rand) *Router {
	r := New(sim.NewLoop(1), Config{RouterID: 1}, discardTransport{})
	n := 2 + rng.Intn(12)
	lsas := make([]LSA, n+1) // by router id; 0 unused
	for id := 1; id <= n; id++ {
		lsas[id] = LSA{Origin: uint32(id), Seq: 1, Stubs: []StubDesc{
			{Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, 0, byte(id)}), 32), Cost: uint32(rng.Intn(2))}}}
	}
	island := n + 1
	if n > 4 && rng.Intn(3) == 0 {
		island = n - 1 - rng.Intn(2) // routers from here up only link among themselves
	}
	subnet := 0
	link := func(a, b int) {
		subnet++
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 1, byte(subnet), byte(rng.Intn(2))}), 30) // sometimes unmasked
		ca, cb := uint32(1+rng.Intn(3)), uint32(1+rng.Intn(3))
		if rng.Intn(8) != 0 { // else one-way: b never lists a
			lsas[b].Links = append(lsas[b].Links, LinkDesc{NeighborID: uint32(a), Cost: cb})
		}
		lsas[a].Links = append(lsas[a].Links, LinkDesc{NeighborID: uint32(b), Cost: ca})
		lsas[a].Stubs = append(lsas[a].Stubs, StubDesc{Prefix: p, Cost: ca})
		lsas[b].Stubs = append(lsas[b].Stubs, StubDesc{Prefix: p, Cost: cb})
		if a == 1 || b == 1 {
			peer := a + b - 1
			ifc := &Interface{Index: len(r.ifaces), Cost: ca}
			r.ifaces = append(r.ifaces, ifc)
			nb := r.newNeighbor(uint32(peer), netip.AddrFrom4([4]byte{10, 1, byte(subnet), 2}), ifc)
			if nb.state = nFull; rng.Intn(6) == 0 {
				nb.state = nInit
			}
			r.setNeighbor(nb)
		}
	}
	for a := 1; a <= n; a++ {
		for b := a + 1; b <= n; b++ {
			if (a < island) != (b < island) {
				continue
			}
			for k := rng.Intn(4) - 1; k > 0; k-- { // 0, 0, 1 or 2 (parallel) links
				link(a, b)
			}
		}
	}
	if id := 1 + rng.Intn(n); rng.Intn(4) == 0 {
		lsas[id].Links = append(lsas[id].Links, LinkDesc{NeighborID: 99, Cost: 1}) // no such LSA
	}
	for id := 1; id <= n; id++ {
		if id != 1 && rng.Intn(10) == 0 {
			continue // an LSA that never arrived
		}
		rng.Shuffle(len(lsas[id].Links), func(i, j int) {
			lsas[id].Links[i], lsas[id].Links[j] = lsas[id].Links[j], lsas[id].Links[i]
		})
		r.lsdb[uint32(id)] = lsas[id]
	}
	return r
}

// TestSPFMatchesReference compares the dense-array SPF with the original
// over seeded random databases, route for route and in order, then runs
// every database a second time: the working arrays are reused, and what
// the last run left in them must not leak into the next.
func TestSPFMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20060911))
	var prev *Router
	routed := 0
	for i := 0; i < 400; i++ {
		r := randomLSDB(rng)
		if prev != nil && i%3 == 0 {
			// Reuse the previous router's working storage on a new database.
			r.spf, r.lastRoutes = prev.spf, prev.lastRoutes
		}
		var got []fib.Route
		r.OnRoutes(func(rs []fib.Route) { got = rs })
		for run := 0; run < 2; run++ {
			want := referenceSPF(r)
			r.runSPF()
			if !slices.Equal(got, want) {
				t.Fatalf("database %d, run %d (%d LSAs, %d neighbors):\n got %v\nwant %v",
					i, run, len(r.lsdb), len(r.neighbors), got, want)
			}
		}
		routed += len(got)
		prev = r
	}
	if routed < 2000 {
		t.Fatalf("only %d routes over 400 databases: the generator stopped producing connected ones", routed)
	}
}

// TestSPFMatchesReferenceOnAbilene does the same on every router of a
// converged Abilene area, where the databases are the protocol's own.
func TestSPFMatchesReferenceOnAbilene(t *testing.T) {
	loop := sim.NewLoop(1)
	m := newMesh(loop)
	g := topology.Abilene()
	nodes := map[string]*meshNode{}
	for i, name := range g.Nodes() {
		id := uint32(i + 1)
		nodes[name] = m.addRouter(name, id, fastCfg(StubDesc{
			Prefix: netip.PrefixFrom(addrFromRouterID(0x0a000000+id), 32)}))
	}
	for _, l := range g.Links() {
		m.connect(nodes[l.A], nodes[l.B], l.CostAB, l.Delay)
	}
	m.startAll()
	loop.Run(30 * time.Second)
	for name, n := range nodes {
		want := referenceSPF(n.r)
		if len(want) < len(g.Nodes())-1 {
			t.Fatalf("%s: area not converged, %d routes", name, len(want))
		}
		if got := n.r.Routes(); !slices.Equal(got, want) {
			t.Fatalf("%s:\n got %v\nwant %v", name, got, want)
		}
	}
}

// addrFromRouterID is the inverse of RouterIDFromAddr.
func addrFromRouterID(id uint32) netip.Addr {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], id)
	return netip.AddrFrom4(b)
}
