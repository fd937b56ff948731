package rip

import (
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"vini/internal/fib"
	"vini/internal/sim"
)

// harness wires RIP routers over delayed pipes.
type harness struct {
	loop  *sim.Loop
	nodes []*hnode
}

type hnode struct {
	h      *harness
	r      *Router
	routes []fib.Route
	pipes  map[int]hpipe
	addrs  map[int]netip.Addr
}

type hpipe struct {
	peer   *hnode
	peerIf int
	delay  time.Duration
	down   *bool
}

func (n *hnode) SendRouting(ifIndex int, payload []byte) {
	p, ok := n.pipes[ifIndex]
	if !ok {
		return
	}
	src := n.addrs[ifIndex]
	buf := append([]byte(nil), payload...)
	n.h.loop.Schedule(p.delay, func() {
		if *p.down {
			return
		}
		p.peer.r.Receive(p.peerIf, src, buf)
	})
}

func newHarness() *harness { return &harness{loop: sim.NewLoop(1)} }

func (h *harness) addRouter(stubs ...string) *hnode {
	cfg := Config{Update: time.Second, timeout: 4 * time.Second, gc: 3 * time.Second}
	for _, s := range stubs {
		cfg.Stubs = append(cfg.Stubs, netip.MustParsePrefix(s))
	}
	n := &hnode{h: h, pipes: make(map[int]hpipe), addrs: make(map[int]netip.Addr)}
	n.r = New(h.loop, cfg, n)
	n.r.OnRoutes(func(rs []fib.Route) { n.routes = rs })
	h.nodes = append(h.nodes, n)
	return n
}

var subnetSeq byte

func (h *harness) connect(a, b *hnode, delay time.Duration) *bool {
	subnetSeq++
	pa := netip.AddrFrom4([4]byte{10, 9, subnetSeq, 1})
	pb := netip.AddrFrom4([4]byte{10, 9, subnetSeq, 2})
	prefix := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 9, subnetSeq, 0}), 30)
	ia, ib := len(a.pipes), len(b.pipes)
	a.r.AddInterface(Interface{Index: ia, Addr: pa, Prefix: prefix})
	b.r.AddInterface(Interface{Index: ib, Addr: pb, Prefix: prefix})
	a.addrs[ia], b.addrs[ib] = pa, pb
	down := new(bool)
	a.pipes[ia] = hpipe{peer: b, peerIf: ib, delay: delay, down: down}
	b.pipes[ib] = hpipe{peer: a, peerIf: ia, delay: delay, down: down}
	return down
}

func (n *hnode) routeTo(p string) (fib.Route, bool) {
	pfx := netip.MustParsePrefix(p)
	for _, r := range n.routes {
		if r.Prefix == pfx {
			return r, true
		}
	}
	return fib.Route{}, false
}

func TestTwoRoutersLearnStubs(t *testing.T) {
	h := newHarness()
	a := h.addRouter("10.0.0.1/32")
	b := h.addRouter("10.0.0.2/32")
	h.connect(a, b, time.Millisecond)
	a.r.Start()
	b.r.Start()
	h.loop.Run(5 * time.Second)
	r, ok := a.routeTo("10.0.0.2/32")
	if !ok || r.Metric != 1 {
		t.Fatalf("a->b = %+v ok=%v", r, ok)
	}
	if _, ok := b.routeTo("10.0.0.1/32"); !ok {
		t.Fatal("b missing a's stub")
	}
}

func TestMetricAccumulatesAlongLine(t *testing.T) {
	h := newHarness()
	a := h.addRouter("10.0.0.1/32")
	b := h.addRouter()
	c := h.addRouter("10.0.0.3/32")
	h.connect(a, b, time.Millisecond)
	h.connect(b, c, time.Millisecond)
	for _, n := range h.nodes {
		n.r.Start()
	}
	h.loop.Run(10 * time.Second)
	r, ok := a.routeTo("10.0.0.3/32")
	if !ok || r.Metric != 2 {
		t.Fatalf("a->c = %+v ok=%v, want metric 2", r, ok)
	}
}

func TestRouteTimesOutAfterFailure(t *testing.T) {
	h := newHarness()
	a := h.addRouter("10.0.0.1/32")
	b := h.addRouter("10.0.0.2/32")
	down := h.connect(a, b, time.Millisecond)
	a.r.Start()
	b.r.Start()
	h.loop.Run(5 * time.Second)
	if _, ok := a.routeTo("10.0.0.2/32"); !ok {
		t.Fatal("route not learned")
	}
	*down = true
	h.loop.Run(15 * time.Second)
	if _, ok := a.routeTo("10.0.0.2/32"); ok {
		t.Fatal("route survived timeout after link failure")
	}
}

func TestFailoverToLongerPath(t *testing.T) {
	h := newHarness()
	a := h.addRouter("10.0.0.1/32")
	b := h.addRouter("10.0.0.2/32")
	c := h.addRouter()
	downAB := h.connect(a, b, time.Millisecond)
	h.connect(a, c, time.Millisecond)
	h.connect(c, b, time.Millisecond)
	for _, n := range h.nodes {
		n.r.Start()
	}
	h.loop.Run(6 * time.Second)
	r, _ := a.routeTo("10.0.0.2/32")
	if r.Metric != 1 {
		t.Fatalf("initial metric = %d", r.Metric)
	}
	*downAB = true
	h.loop.Run(30 * time.Second)
	r, ok := a.routeTo("10.0.0.2/32")
	if !ok || r.Metric != 2 {
		t.Fatalf("failover route = %+v ok=%v, want metric 2 via c", r, ok)
	}
}

func TestPoisonedReverseInUpdates(t *testing.T) {
	// Capture what a advertises back toward the interface it learned
	// from: the metric must be Infinity.
	h := newHarness()
	a := h.addRouter("10.0.0.1/32")
	b := h.addRouter("10.0.0.2/32")
	h.connect(a, b, time.Millisecond)
	a.r.Start()
	b.r.Start()
	h.loop.Run(5 * time.Second)
	var captured []advert
	tr := transportFunc(func(ifIndex int, payload []byte) {
		ads, err := parseUpdate(payload)
		if err == nil && ifIndex == 0 {
			captured = ads
		}
	})
	// Swap a's transport for a capturing one and force an update.
	a.r.tr = tr
	a.r.sendUpdates(false)
	found := false
	for _, ad := range captured {
		if ad.prefix.String() == "10.0.0.2/32" {
			found = true
			if ad.metric != infinity {
				t.Fatalf("b's stub advertised back at metric %d, want Infinity", ad.metric)
			}
		}
	}
	if !found {
		t.Fatal("update did not mention the learned prefix at all")
	}
}

type transportFunc func(ifIndex int, payload []byte)

func (f transportFunc) SendRouting(i int, p []byte) { f(i, p) }

func TestTriggeredUpdatePropagatesFast(t *testing.T) {
	h := newHarness()
	a := h.addRouter("10.0.0.1/32")
	b := h.addRouter()
	c := h.addRouter()
	h.connect(a, b, time.Millisecond)
	h.connect(b, c, time.Millisecond)
	for _, n := range h.nodes {
		n.r.Start()
	}
	// With 1s periodic updates, plain periodic convergence to c takes
	// ~2s; triggered updates deliver within a few ms of b learning.
	h.loop.Run(1100 * time.Millisecond)
	if _, ok := c.routeTo("10.0.0.1/32"); !ok {
		t.Fatalf("triggered update did not reach c quickly: %v", c.routes)
	}
}

func TestWireRoundTrip(t *testing.T) {
	f := func(a, b, c, d byte, bits8, metric8 uint8) bool {
		bits := int(bits8) % 33
		ads := []advert{{
			prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{a, b, c, d}), bits),
			metric: uint32(metric8) % 17,
		}}
		got, err := parseUpdate(marshalUpdate(ads))
		if err != nil || len(got) != 1 {
			return false
		}
		return got[0].prefix == ads[0].prefix && got[0].metric == ads[0].metric
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := parseUpdate([]byte{1, 2, 0, 0}); err == nil {
		t.Fatal("bad command accepted")
	}
	if _, err := parseUpdate([]byte{2, 2, 0, 5}); err == nil {
		t.Fatal("truncated accepted")
	}
	bad := marshalUpdate([]advert{{prefix: netip.MustParsePrefix("10.0.0.0/8"), metric: 1}})
	bad[8] = 77 // prefix bits
	if _, err := parseUpdate(bad); err == nil {
		t.Fatal("bad prefix bits accepted")
	}
}

func TestStopSilences(t *testing.T) {
	h := newHarness()
	a := h.addRouter("10.0.0.1/32")
	b := h.addRouter("10.0.0.2/32")
	h.connect(a, b, time.Millisecond)
	a.r.Start()
	b.r.Start()
	h.loop.Run(3 * time.Second)
	a.r.Stop()
	h.loop.Run(20 * time.Second)
	if _, ok := b.routeTo("10.0.0.1/32"); ok {
		t.Fatal("b kept a's route after a stopped (no timeout)")
	}
}
