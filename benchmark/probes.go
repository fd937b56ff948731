package main

// Isolated per-layer probes: each loops over one layer's exported
// functions with realistic inputs and reports wall per operation. They
// run only in the traced run and score nothing; their job is to say
// which layer moved when an end-to-end number does.

import (
	"encoding/binary"
	"flag"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"vini/internal/click"
	"vini/internal/core"
	"vini/internal/fea"
	"vini/internal/fib"
	"vini/internal/netem"
	"vini/internal/ospf"
	"vini/internal/packet"
	"vini/internal/rip"
	"vini/internal/sched"
	"vini/internal/sim"
	"vini/internal/telemetry"
	"vini/internal/topology"
	"vini/internal/traffic"
)

// probeResult is one probe's outcome.
type probeResult struct {
	Value       float64 `json:"value"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// bench runs fn under testing.Benchmark and returns ns/op (or the
// probe's own "ns/op" override, for probes that time a sub-step).
func bench(fn func(b *testing.B)) probeResult {
	r := testing.Benchmark(fn)
	ns := float64(r.T.Nanoseconds()) / float64(r.N)
	if v, ok := r.Extra["ns/op"]; ok {
		ns = v
	}
	return probeResult{Value: ns, AllocsPerOp: float64(r.MemAllocs) / float64(r.N)}
}

// runProbes executes every probe and returns values keyed by per-layer
// metric name, in that metric's declared unit.
func runProbes(seed int64, smoke bool) (map[string]probeResult, error) {
	// testing.Benchmark sizes b.N from -test.benchtime; 1 s per probe is
	// far more than these loops need.
	testing.Init()
	benchtime := "40ms"
	if smoke {
		benchtime = "2ms"
	}
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return nil, err
	}
	out := make(map[string]probeResult)
	ns := func(name string, fn func(b *testing.B)) { out[name] = bench(fn) }
	us := func(name string, fn func(b *testing.B)) {
		r := bench(fn)
		r.Value /= 1e3
		out[name] = r
	}

	// ---- sim ----
	ns("sim.schedule_fire_ns", func(b *testing.B) {
		loop := sim.NewLoop(seed)
		n := 0
		var tick func()
		tick = func() {
			if n++; n < b.N {
				loop.Schedule(time.Microsecond, tick)
			}
		}
		loop.Schedule(time.Microsecond, tick)
		b.ResetTimer()
		loop.RunAll()
	})
	ns("sim.tickwheel_ns", func(b *testing.B) {
		// 256 periodic protocol timers coalescing into shared slots.
		loop := sim.NewLoop(seed)
		wheel := sim.NewTickWheel(loop, 100*time.Millisecond)
		fired := 0
		for i := 0; i < 256; i++ {
			period := time.Second + time.Duration(i)*time.Millisecond
			var tick func()
			tick = func() {
				if fired++; fired < b.N {
					wheel.Schedule(period, tick)
				}
			}
			wheel.Schedule(period, tick)
		}
		b.ResetTimer()
		loop.RunAll()
	})
	ns("sim.timer_stop_ns", func(b *testing.B) {
		// The RTO pattern: arm a timer into a populated heap, cancel it.
		loop := sim.NewLoop(seed)
		for i := 0; i < 1000; i++ {
			loop.Schedule(time.Duration(i+1)*time.Millisecond, func() {})
		}
		fn := func() {}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			loop.Schedule(200*time.Millisecond, fn).Stop()
		}
	})
	ns("sim.xdomain_send_ns", func(b *testing.B) {
		const edge = time.Millisecond
		x := sim.NewExecutor(seed, 1)
		defer x.Shutdown()
		a, c := x.NewDomain("a"), x.NewDomain("b")
		c.ObserveInboundLink(a, edge)
		a.ObserveInboundLink(c, edge)
		h := countHandler{new(int)}
		until := time.Duration(0)
		cycle := func(n int) {
			for i := 0; i < n; i++ {
				a.Send(c, edge+time.Duration(i)*time.Microsecond, h, nil)
			}
			until += 5 * edge
			x.Run(until)
		}
		cycle(64)
		b.ResetTimer()
		for left := b.N; left > 0; left -= 64 {
			cycle(min(left, 64))
		}
	})

	// ---- packet ----
	tmpl := packet.BuildUDP(netip.MustParseAddr("10.1.0.9"), netip.MustParseAddr("10.1.0.7"),
		1, 2, 64, make([]byte, 1400))
	ns("packet.get_release_ns", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			packet.Get().Release()
		}
	})
	ns("packet.encap_ns", func(b *testing.B) {
		src, dst := netip.MustParseAddr("198.32.154.40"), netip.MustParseAddr("198.32.154.41")
		for i := 0; i < b.N; i++ {
			p := packet.Get()
			copy(p.Extend(len(tmpl)), tmpl)
			packet.EncapUDP(p, src, dst, 33000, 33001)
			packet.EncapIPv4(p, &packet.IPv4{TTL: 64, Proto: packet.ProtoUDP, Src: src, Dst: dst})
			p.Release()
		}
	})
	ns("packet.checksum_1500_ns", func(b *testing.B) {
		buf := make([]byte, 1500)
		var sum uint16
		for i := 0; i < b.N; i++ {
			sum += packet.Checksum(buf)
		}
		sinkU64 += uint64(sum)
	})
	var wireErr error
	ns("packet.wire_roundtrip_ns", func(b *testing.B) {
		p := packet.Get()
		copy(p.Extend(len(tmpl)), tmpl)
		defer p.Release()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = packet.AppendWire(buf[:0], p)
			q, err := packet.DecodeWire(buf)
			if err != nil {
				wireErr = err
				return
			}
			q.Release()
		}
	})
	if wireErr != nil {
		return nil, fmt.Errorf("probe packet.wire_roundtrip: %w", wireErr)
	}

	// ---- fib ----
	table := func() *fib.Table {
		t := fib.New()
		for i := 0; i < 1024; i++ {
			a := netip.AddrFrom4([4]byte{10, byte(i >> 4), byte(i << 4), 0})
			t.Add(fib.Route{Prefix: netip.PrefixFrom(a, 20)})
		}
		return t
	}
	dst := netip.MustParseAddr("10.1.2.3")
	ns("fib.lookup_ns", func(b *testing.B) {
		t := table()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.Lookup(dst)
		}
	})
	ns("fib.cache_lookup_ns", func(b *testing.B) {
		c := fib.NewCache(table())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Lookup(dst)
		}
	})
	ns("fib.install_ns", func(b *testing.B) {
		// The write beside the read: replace one route of a 1024-route
		// table, then look up through it, which pays the recompile.
		t := table()
		extra := netip.MustParsePrefix("10.200.0.0/16")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.Add(fib.Route{Prefix: extra, OutPort: i & 1})
			t.Lookup(dst)
		}
	})

	// ---- click ----
	var clickErr error
	ns("click.forward_ns", func(b *testing.B) {
		r, err := forwardGraph(seed)
		if err != nil {
			clickErr = err
			return
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := packet.Get()
			copy(p.Extend(len(tmpl)), tmpl)
			r.Push("fromtun", 0, p)
		}
	})
	if clickErr != nil {
		return nil, fmt.Errorf("probe click.forward: %w", clickErr)
	}

	// ---- sched ----
	ns("sched.dispatch_ns", func(b *testing.B) {
		// Two always-runnable tasks at half a CPU each: every grain is
		// one dispatch.
		loop := sim.NewLoop(seed)
		cpu := sched.New(loop, sched.Options{})
		work := func(budget time.Duration) (time.Duration, bool) { return budget, true }
		for _, name := range []string{"a", "b"} {
			cpu.NewTask(sched.TaskConfig{Name: name, Share: 0.5, Work: work}).Wake()
		}
		grain := cpu.Options().Grain
		b.ResetTimer()
		loop.Run(time.Duration(b.N) * grain)
	})

	// ---- netem ----
	var netErr error
	line := func(b *testing.B, names ...string) {
		// Raw UDP down a line of DETER nodes: no overlay, no Click.
		loop := sim.NewLoop(seed)
		w := netem.New(loop)
		nodes := make([]*netem.Node, len(names))
		for i, name := range names {
			n, err := w.AddNode(name, netip.AddrFrom4([4]byte{192, 0, 2, byte(i + 1)}),
				netem.DETERProfile(), sched.Options{})
			if err != nil {
				netErr = err
				return
			}
			nodes[i] = n
			if i > 0 {
				if _, err := w.AddLink(netem.LinkConfig{A: names[i-1], B: name,
					Bandwidth: 1e9, Delay: time.Millisecond}); err != nil {
					netErr = err
					return
				}
			}
		}
		w.ComputeRoutes()
		src, sink := nodes[0], nodes[len(nodes)-1]
		got := 0
		if err := sink.StackListenUDP(7000, func([]byte) { got++ }); err != nil {
			netErr = err
			return
		}
		dgram := packet.BuildUDP(src.Addr(), sink.Addr(), 7001, 7000, 64, make([]byte, 200))
		cycle := func(n int) {
			for i := 0; i < n; i++ {
				src.StackSend(append([]byte(nil), dgram...))
			}
			w.Run(loop.Now() + 10*time.Millisecond)
		}
		cycle(32)
		got = 0
		b.ResetTimer()
		for left := b.N; left > 0; left -= 32 {
			cycle(min(left, 32))
		}
		if got != b.N {
			netErr = fmt.Errorf("%d-node line delivered %d of %d datagrams", len(names), got, b.N)
		}
	}
	ns("netem.link_hop_ns", func(b *testing.B) { line(b, "a", "b") })
	ns("netem.kernel_fwd_ns", func(b *testing.B) { line(b, "a", "b", "c") })
	if netErr != nil {
		return nil, fmt.Errorf("probe netem: %w", netErr)
	}

	// ---- ospf ----
	var ospfErr error
	ospfProbe := func(name string, fn func(b *testing.B, m *ospfMesh)) {
		ns(name, func(b *testing.B) {
			m, err := newOSPFMesh(seed)
			if err != nil {
				ospfErr = err
				return
			}
			fn(b, m)
		})
	}
	ospfProbe("ospf.hello_rx_ns", func(b *testing.B, m *ospfMesh) {
		p := m.peers[0]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := m.r.Receive(p.ifIndex, p.addr, p.hello); err != nil {
				ospfErr = err
				return
			}
		}
	})
	ospfProbe("ospf.lsu_rx_ns", func(b *testing.B, m *ospfMesh) {
		// One new LSA per LSU: install, flood to the other neighbours,
		// acknowledge, schedule SPF.
		lsus := m.freshLSUs(b.N)
		b.ResetTimer()
		for _, lsu := range lsus {
			if err := m.r.Receive(m.peers[0].ifIndex, m.peers[0].addr, lsu); err != nil {
				ospfErr = err
				return
			}
		}
	})
	ospfProbe("ospf.marshal_lsu_ns", func(b *testing.B, m *ospfMesh) {
		lsdb := m.r.LSDB()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkU64 += uint64(len(ospf.MarshalLSU(m.selfID, ospf.LSU{LSAs: lsdb})))
		}
	})
	us("ospf.spf_us", func(b *testing.B) {
		m, err := newOSPFMesh(seed)
		if err != nil {
			ospfErr = err
			return
		}
		// Each LSU dirties the LSDB; only the loop advance that fires
		// the batched SPF is timed. The rest of the area is silenced, so
		// hellos are fed by hand to keep the adjacencies from expiring
		// as virtual time advances.
		lsus := m.freshLSUs(b.N)
		runs0 := m.r.SPFRuns
		var acc time.Duration
		for _, lsu := range lsus {
			for _, p := range m.peers {
				if err := m.r.Receive(p.ifIndex, p.addr, p.hello); err != nil {
					ospfErr = err
					return
				}
			}
			if err := m.r.Receive(m.peers[0].ifIndex, m.peers[0].addr, lsu); err != nil {
				ospfErr = err
				return
			}
			t0 := time.Now()
			m.loop.Run(m.loop.Now() + 110*time.Millisecond)
			acc += time.Since(t0)
		}
		if runs := m.r.SPFRuns - runs0; runs > 0 {
			b.ReportMetric(float64(acc.Nanoseconds())/float64(runs), "ns/op")
		}
	})
	if ospfErr != nil {
		return nil, fmt.Errorf("probe ospf: %w", ospfErr)
	}

	// ---- rip, fea ----
	var ripErr error
	ns("rip.update_rx_ns", func(b *testing.B) {
		loop := sim.NewLoop(seed)
		r := rip.New(loop, rip.Config{}, discardRouting{})
		for i := 0; i < 2; i++ {
			base := netip.AddrFrom4([4]byte{10, 9, byte(i), 0})
			if err := r.AddInterface(rip.Interface{Name: fmt.Sprint("if", i), Index: i,
				Addr: base.Next(), Prefix: netip.PrefixFrom(base, 30)}); err != nil {
				ripErr = err
				return
			}
		}
		r.OnRoutes(func([]fib.Route) {})
		r.Start()
		// Two 25-route responses whose metrics differ, so every update
		// changes the table and triggers emit plus a triggered update.
		var updates [2][]byte
		for k := range updates {
			u := []byte{2, 2, 0, 25}
			for i := 0; i < 25; i++ {
				u = append(u, 10, 50, byte(i), 0, 24, 0, 0, 0)
				u = binary.BigEndian.AppendUint32(u, uint32(2+k))
			}
			updates[k] = u
		}
		src := netip.MustParseAddr("10.9.0.2")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := r.Receive(0, src, updates[i&1]); err != nil {
				ripErr = err
				return
			}
		}
	})
	if ripErr != nil {
		return nil, fmt.Errorf("probe rip: %w", ripErr)
	}
	us("fea.set_routes_us", func(b *testing.B) {
		// A 64-route protocol table whose next hops alternate, as after
		// an SPF that moved every path.
		rib := fea.NewRIB(fib.New())
		var sets [2][]fib.Route
		for k := range sets {
			for i := 0; i < 64; i++ {
				sets[k] = append(sets[k], fib.Route{
					Prefix:  netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 60, byte(i), 0}), 24),
					NextHop: netip.AddrFrom4([4]byte{10, 61, 0, byte(1 + k)}), OutPort: k, Metric: 10})
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rib.SetRoutes("ospf", 110, sets[i&1])
		}
	})

	// ---- tcpm, traffic: wall per delivered unit on a two-node world ----
	var trafErr error
	pair := func() (*netem.Network, *netem.Node, *netem.Node) {
		loop := sim.NewLoop(seed)
		w := netem.New(loop)
		a, err := w.AddNode("a", netip.MustParseAddr("192.0.2.1"), netem.DETERProfile(), sched.Options{})
		if err != nil {
			trafErr = err
			return nil, nil, nil
		}
		c, err := w.AddNode("b", netip.MustParseAddr("192.0.2.2"), netem.DETERProfile(), sched.Options{})
		if err != nil {
			trafErr = err
			return nil, nil, nil
		}
		if _, err := w.AddLink(netem.LinkConfig{A: "a", B: "b", Bandwidth: 1e9, Delay: time.Millisecond}); err != nil {
			trafErr = err
			return nil, nil, nil
		}
		w.ComputeRoutes()
		return w, a, c
	}
	vs := 2 * time.Second
	if smoke {
		vs = 200 * time.Millisecond
	}
	if w, a, c := pair(); w != nil {
		t, err := traffic.StartIperfTCP(w, a, c, traffic.IperfTCPConfig{Streams: 4})
		if err != nil {
			return nil, fmt.Errorf("probe tcpm: %w", err)
		}
		t0 := time.Now()
		w.Run(vs)
		wall := time.Since(t0)
		segs := 0
		for _, r := range t.Receivers() {
			segs += len(r.Arrivals)
		}
		t.Close()
		if segs == 0 {
			return nil, fmt.Errorf("probe tcpm: no segments delivered")
		}
		out["tcpm.segment_ns"] = probeResult{Value: float64(wall.Nanoseconds()) / float64(segs)}
	}
	if w, a, c := pair(); w != nil {
		t, err := traffic.StartUDPCBR(w, a, c, traffic.UDPCBRConfig{RateBps: 100e6})
		if err != nil {
			return nil, fmt.Errorf("probe traffic: %w", err)
		}
		t0 := time.Now()
		w.Run(vs)
		wall := time.Since(t0)
		n := t.Received()
		t.Close()
		if n == 0 {
			return nil, fmt.Errorf("probe traffic: no datagrams delivered")
		}
		out["traffic.cbr_pkt_ns"] = probeResult{Value: float64(wall.Nanoseconds()) / float64(n)}
	}
	if trafErr != nil {
		return nil, fmt.Errorf("probe traffic world: %w", trafErr)
	}

	// ---- topology ----
	graphText, _ := topology.SynthRepetita(64, 64, seed)
	g, names, err := topology.ParseRepetita(graphText)
	if err != nil {
		return nil, fmt.Errorf("probe topology: %w", err)
	}
	us("topology.shortest_paths_us", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkU64 += uint64(len(g.ShortestPaths(names[i%len(names)], nil)))
		}
	})

	// ---- telemetry ----
	ns("telemetry.counter_add_ns", func(b *testing.B) {
		c := telemetry.NewRegistry().Counter("slice", "node", "probe")
		for i := 0; i < b.N; i++ {
			c.Add(1)
		}
	})
	if err := lifecycleProbes(seed, smoke, out); err != nil {
		return nil, fmt.Errorf("probe lifecycle: %w", err)
	}
	return out, nil
}

// sinkU64 keeps probe results alive.
var sinkU64 uint64

type countHandler struct{ n *int }

func (h countHandler) Invoke(any) { *h.n++ }

type discardRouting struct{}

func (discardRouting) SendRouting(int, []byte) {}

// tunnelEncap re-encapsulates in headroom and recycles: the substrate's
// fast-path hand-off, as cmd/vinibench's fastpath drives it.
type tunnelEncap struct{ local netip.Addr }

func (t tunnelEncap) SendTunnel(e fib.EncapEntry, p *packet.Packet) {
	packet.EncapUDP(p, t.local, e.Remote, 33000, e.Port)
	packet.EncapIPv4(p, &packet.IPv4{TTL: 64, Proto: packet.ProtoUDP, Src: t.local, Dst: e.Remote})
	p.Release()
}

type tapRelease struct{}

func (tapRelease) DeliverTap(p *packet.Packet) { p.Release() }

// forwardGraph builds the IIAS forwarding chain: tunnel-in, header
// check, TTL, FIB lookup, encap, tunnel-out.
func forwardGraph(seed int64) (*click.Router, error) {
	loop := sim.NewLoop(seed)
	ctx := &click.Context{
		Clock: loop, RNG: loop.RNG(),
		FIB:       fib.New(),
		Encap:     fib.NewEncapTable(),
		Tunnels:   tunnelEncap{local: netip.MustParseAddr("198.32.154.40")},
		Tap:       tapRelease{},
		LocalAddr: packet.Flow{Src: netip.MustParseAddr("10.1.0.1")},
	}
	nh := netip.MustParseAddr("10.1.128.2")
	ctx.FIB.Add(fib.Route{Prefix: netip.MustParsePrefix("10.1.0.0/16"), NextHop: nh, OutPort: 0})
	ctx.Encap.Set(fib.EncapEntry{NextHop: nh, Remote: netip.MustParseAddr("198.32.154.41"), Port: 33000})
	r, err := click.ParseConfig(ctx, `
		fromtun :: FromTunnel;
		chk :: CheckIPHeader;
		dec :: DecIPTTL;
		rt :: LookupIPRoute;
		encap :: EncapTunnel;
		fromtun -> chk; chk[0] -> dec; dec[0] -> rt; rt[0] -> encap;
	`)
	if err != nil {
		return nil, err
	}
	return r, r.Initialize()
}

// ospfMesh is an 11-router Abilene OSPF area wired through a fake
// Transport, converged, then switched to discarding output so a probe
// can feed one router packets without the rest of the area reacting.
type ospfMesh struct {
	loop  *sim.Loop
	nodes map[string]*ospfNode
	quiet bool
	// r is the router under test; peers are its neighbours, each with
	// a ready-made hello that lists r.
	r      *ospf.Router
	selfID uint32
	peers  []ospfPeer
	// far is an LSA of a router two or more hops away, the template for
	// fresh LSUs.
	far ospf.LSA
}

type ospfPeer struct {
	ifIndex int
	id      uint32
	addr    netip.Addr
	hello   []byte
}

type ospfNode struct {
	m     *ospfMesh
	id    uint32
	r     *ospf.Router
	pipes []ospfPipe
}

type ospfPipe struct {
	peer    *ospfNode
	peerIf  int
	srcAddr netip.Addr
	delay   time.Duration
}

func (n *ospfNode) SendRouting(ifIndex int, payload []byte) {
	if n.m.quiet {
		return
	}
	p := n.pipes[ifIndex]
	buf := append([]byte(nil), payload...)
	n.m.loop.Schedule(p.delay, func() { p.peer.r.Receive(p.peerIf, p.srcAddr, buf) })
}

func newOSPFMesh(seed int64) (*ospfMesh, error) {
	m := &ospfMesh{loop: sim.NewLoop(seed), nodes: make(map[string]*ospfNode)}
	g := topology.Abilene()
	for i, pop := range g.Nodes() {
		tap := netip.AddrFrom4([4]byte{10, 1, 0, byte(i + 1)})
		n := &ospfNode{m: m, id: ospf.RouterIDFromAddr(tap)}
		n.r = ospf.New(m.loop, ospf.Config{RouterID: n.id, Hello: 5 * time.Second, Dead: 10 * time.Second,
			Stubs: []ospf.StubDesc{{Prefix: netip.PrefixFrom(tap, 32)}}}, n)
		n.r.OnRoutes(func([]fib.Route) {})
		m.nodes[pop] = n
	}
	for i, l := range g.Links() {
		a, b := m.nodes[l.A], m.nodes[l.B]
		base := netip.AddrFrom4([4]byte{10, 1, 128, byte(4 * i)})
		addrA, addrB := base.Next(), base.Next().Next()
		prefix := netip.PrefixFrom(base, 30)
		ifA, ifB := len(a.pipes), len(b.pipes)
		if err := a.r.AddInterface(ospf.Interface{Name: l.A + "-" + l.B, Index: ifA,
			Addr: addrA, Prefix: prefix, Cost: l.CostAB}); err != nil {
			return nil, err
		}
		if err := b.r.AddInterface(ospf.Interface{Name: l.B + "-" + l.A, Index: ifB,
			Addr: addrB, Prefix: prefix, Cost: l.CostAB}); err != nil {
			return nil, err
		}
		a.pipes = append(a.pipes, ospfPipe{peer: b, peerIf: ifB, srcAddr: addrA, delay: l.Delay})
		b.pipes = append(b.pipes, ospfPipe{peer: a, peerIf: ifA, srcAddr: addrB, delay: l.Delay})
	}
	for _, pop := range g.Nodes() {
		m.nodes[pop].r.Start()
	}
	m.loop.Run(30 * time.Second)
	self := m.nodes[topology.KansasCity]
	if len(self.r.LSDB()) != len(m.nodes) {
		return nil, fmt.Errorf("area did not converge: %d of %d LSAs", len(self.r.LSDB()), len(m.nodes))
	}
	m.quiet = true
	m.r, m.selfID = self.r, self.id
	for i, p := range self.pipes {
		m.peers = append(m.peers, ospfPeer{ifIndex: i, id: p.peer.id,
			addr: p.peer.pipes[p.peerIf].srcAddr,
			hello: ospf.MarshalHello(p.peer.id, ospf.Hello{HelloInterval: 5, DeadInterval: 10,
				Neighbors: []uint32{self.id}})})
	}
	farID := m.nodes[topology.NewYork].id
	for _, l := range self.r.LSDB() {
		if l.Origin == farID {
			m.far = l
		}
	}
	return m, nil
}

// freshLSUs marshals n LSUs each carrying the far router's LSA at the
// next sequence number, so every one is news.
func (m *ospfMesh) freshLSUs(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		m.far.Seq++
		out[i] = ospf.MarshalLSU(m.peers[0].id, ospf.LSU{LSAs: []ospf.LSA{m.far}})
	}
	return out
}

// lifecycleProbes times the slice lifecycle operations and the
// telemetry snapshot on a converged Abilene world with one spare node
// (a migration needs a physical node the slice is not on yet).
func lifecycleProbes(seed int64, smoke bool, out map[string]probeResult) error {
	v := core.New(seed)
	defer v.Close()
	tel := v.EnableTelemetry()
	w, err := buildAbilene(nil, v, false)
	if err != nil {
		return err
	}
	if _, err := v.AddNode("spare", netip.MustParseAddr("198.32.154.250"),
		netem.PlanetLabProfile(), sched.Options{}); err != nil {
		return err
	}
	if _, err := v.AddLink(netem.LinkConfig{A: "spare", B: topology.Chicago,
		Bandwidth: 10e9, Delay: time.Millisecond}); err != nil {
		return err
	}
	v.ComputeRoutes()
	warm := 20 * time.Second
	if smoke {
		warm = 12 * time.Second
	}
	v.Run(warm)
	ms := func(name string, d time.Duration) {
		out[name] = probeResult{Value: float64(d.Nanoseconds()) / 1e6}
	}

	t0 := time.Now()
	if _, err := tel.SnapshotJSON(); err != nil {
		return err
	}
	ms("telemetry.snapshot_ms", time.Since(t0))

	t0 = time.Now()
	if err := w.slices[0].Pause(); err != nil {
		return err
	}
	if err := w.slices[0].Resume(); err != nil {
		return err
	}
	out["core.pause_resume_us"] = probeResult{Value: float64(time.Since(t0).Nanoseconds()) / 1e3}

	// Make-before-break migration: the call itself plus the virtual time
	// its double-delivery window, cutover and drain need.
	t0 = time.Now()
	mig, err := w.slices[1].Migrate(topology.Chicago, "spare", core.MigrateOptions{})
	if err != nil {
		return err
	}
	v.Run(v.Loop().Now() + 2*time.Second)
	ms("core.migrate_ms", time.Since(t0))
	if mig.Phase() != core.MigDone {
		return fmt.Errorf("migration ended in phase %v", mig.Phase())
	}

	t0 = time.Now()
	if err := w.slices[2].Destroy(); err != nil {
		return err
	}
	out["core.destroy_slice_us"] = probeResult{Value: float64(time.Since(t0).Nanoseconds()) / 1e3}
	if err := w.slices[2].Audit(); err != nil {
		return err
	}
	w.closeTraffic()
	return nil
}
