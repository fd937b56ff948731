package core

import (
	"net/netip"
	"testing"
	"time"

	"vini/internal/netem"
	"vini/internal/packet"
	"vini/internal/sched"
	"vini/internal/topology"
	"vini/internal/traffic"
)

// buildAbilene stands up the physical Abilene substrate.
func buildAbilene(t testing.TB, seed int64) *VINI {
	if h, ok := t.(interface{ Helper() }); ok {
		h.Helper()
	}
	v := New(seed)
	g := topology.Abilene()
	for _, n := range g.Nodes() {
		a, _ := topology.AbilenePublicAddr(n)
		if _, err := v.AddNode(n, netip.MustParseAddr(a), netem.PlanetLabProfile(), sched.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range g.Links() {
		if _, err := v.AddLink(netem.LinkConfig{A: l.A, B: l.B,
			Bandwidth: l.Bandwidth, Delay: l.Delay}); err != nil {
			t.Fatal(err)
		}
	}
	v.ComputeRoutes()
	return v
}

// abileneSlice embeds a virtual Abilene mirroring the physical topology
// with the real OSPF weights (the Section 5.2 setup).
func abileneSlice(t testing.TB, v *VINI, cfg SliceConfig) *Slice {
	if h, ok := t.(interface{ Helper() }); ok {
		h.Helper()
	}
	s, err := v.CreateSlice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := topology.Abilene()
	for _, n := range g.Nodes() {
		if _, err := s.AddVirtualNode(n); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range g.Links() {
		if _, err := s.ConnectVirtual(l.A, l.B, l.CostAB); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestSliceAddressingIsolation(t *testing.T) {
	v := buildAbilene(t, 1)
	s1, _ := v.CreateSlice(SliceConfig{Name: "one"})
	s2, _ := v.CreateSlice(SliceConfig{Name: "two"})
	if s1.Prefix() == s2.Prefix() {
		t.Fatal("slices share an address block")
	}
	a, err := s1.AddVirtualNode(topology.Seattle)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s2.AddVirtualNode(topology.Seattle)
	if err != nil {
		t.Fatal(err)
	}
	if a.TapAddr == b.TapAddr {
		t.Fatal("tap addresses collide across slices")
	}
	if !s1.Prefix().Contains(a.TapAddr) {
		t.Fatalf("tap %v outside slice block %v", a.TapAddr, s1.Prefix())
	}
	if _, err := s1.AddVirtualNode(topology.Seattle); err == nil {
		t.Fatal("duplicate virtual node accepted")
	}
}

func TestOSPFConvergesOverOverlay(t *testing.T) {
	v := buildAbilene(t, 1)
	s := abileneSlice(t, v, SliceConfig{Name: "iias", CPUShare: 0.25, RT: true})
	s.StartOSPF(5*time.Second, 10*time.Second)
	v.Run(60 * time.Second)
	// Every virtual node must have a route to every other tap address,
	// with metrics matching the reference shortest paths.
	g := topology.Abilene()
	for _, src := range g.Nodes() {
		vn, _ := s.VirtualNode(src)
		ref := g.ShortestPaths(src, nil)
		for _, dst := range g.Nodes() {
			if src == dst {
				continue
			}
			dn, _ := s.VirtualNode(dst)
			r, ok := vn.FIB.Lookup(dn.TapAddr)
			if !ok {
				t.Fatalf("%s has no route to %s (%v)", src, dst, dn.TapAddr)
			}
			if r.Metric != ref[dst].Cost {
				t.Fatalf("%s->%s metric = %d, want %d", src, dst, r.Metric, ref[dst].Cost)
			}
		}
	}
}

func TestPingAcrossOverlay(t *testing.T) {
	v := buildAbilene(t, 2)
	s := abileneSlice(t, v, SliceConfig{Name: "iias", CPUShare: 0.25, RT: true})
	s.StartOSPF(time.Second, 3*time.Second)
	v.Run(30 * time.Second)
	wash, _ := s.VirtualNode(topology.Washington)
	sea, _ := s.VirtualNode(topology.Seattle)
	traffic.NewICMPHost(sea.Phys())
	h := traffic.NewICMPHost(wash.Phys())
	p := h.StartPing(traffic.PingConfig{
		Src: wash.TapAddr, Dst: sea.TapAddr,
		Interval: 200 * time.Millisecond, Count: 50})
	v.Run(60 * time.Second)
	if p.Lost != 0 {
		t.Fatalf("lost %d of %d pings on a healthy overlay", p.Lost, p.Sent)
	}
	// The default path RTT is 76 ms plus small forwarding overheads.
	if avg := p.RTTs.Mean(); avg < 75 || avg > 80 {
		t.Fatalf("mean RTT = %.2f ms, want ~76", avg)
	}
}

// TestClickFailureReroutesOSPF is the Section 5.2 experiment in miniature:
// fail Denver–Kansas City inside Click, watch OSPF reroute, restore.
func TestClickFailureReroutesOSPF(t *testing.T) {
	v := buildAbilene(t, 3)
	s := abileneSlice(t, v, SliceConfig{Name: "iias", CPUShare: 0.25, RT: true})
	s.StartOSPF(time.Second, 3*time.Second) // fast timers to keep the test short
	v.Run(30 * time.Second)
	wash, _ := s.VirtualNode(topology.Washington)
	sea, _ := s.VirtualNode(topology.Seattle)
	g := topology.Abilene()
	refUp := g.ShortestPaths(topology.Washington, nil)[topology.Seattle].Cost

	r, ok := wash.FIB.Lookup(sea.TapAddr)
	if !ok || r.Metric != refUp {
		t.Fatalf("pre-failure metric = %d want %d", r.Metric, refUp)
	}
	vl, ok := s.FindVirtualLink(topology.Denver, topology.KansasCity)
	if !ok {
		t.Fatal("no Denver-KC virtual link")
	}
	vl.SetFailed(true)
	v.Run(45 * time.Second) // dead interval + flooding + SPF
	down := map[int]bool{}
	for i, l := range g.Links() {
		if (l.A == topology.Denver && l.B == topology.KansasCity) ||
			(l.B == topology.Denver && l.A == topology.KansasCity) {
			down[i] = true
		}
	}
	refDown := g.ShortestPaths(topology.Washington, down)[topology.Seattle].Cost
	r, ok = wash.FIB.Lookup(sea.TapAddr)
	if !ok {
		t.Fatal("no route after failure")
	}
	if r.Metric != refDown {
		t.Fatalf("post-failure metric = %d, want %d (via Atlanta)", r.Metric, refDown)
	}
	vl.SetFailed(false)
	v.Run(75 * time.Second)
	r, _ = wash.FIB.Lookup(sea.TapAddr)
	if r.Metric != refUp {
		t.Fatalf("post-restore metric = %d, want %d", r.Metric, refUp)
	}
}

func TestUpcallsExposePhysicalFailures(t *testing.T) {
	v := buildAbilene(t, 4)
	s := abileneSlice(t, v, SliceConfig{Name: "iias", CPUShare: 0.25, RT: true,
		ExposePhysicalFailures: true})
	var alarms []LinkAlarm
	s.OnAlarm(func(a LinkAlarm) { alarms = append(alarms, a) })
	s.StartOSPF(time.Second, 3*time.Second)
	v.Run(30 * time.Second)
	// Fail the physical Denver-KC link. The substrate reroutes around it
	// (masking), but the upcall must fire and the virtual link must fail.
	if err := v.FailLink(topology.Denver, topology.KansasCity, 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(alarms) == 0 {
		t.Fatal("no upcall delivered")
	}
	found := false
	for _, a := range alarms {
		if (a.A == topology.Denver && a.B == topology.KansasCity) ||
			(a.A == topology.KansasCity && a.B == topology.Denver) {
			found = true
		}
	}
	if !found {
		t.Fatalf("upcalls missed the affected virtual link: %+v", alarms)
	}
	vl, _ := s.FindVirtualLink(topology.Denver, topology.KansasCity)
	if !vl.Failed() {
		t.Fatal("ExposePhysicalFailures did not fail the virtual link")
	}
	v.Run(60 * time.Second)
	// OSPF must have routed around the exposed failure.
	wash, _ := s.VirtualNode(topology.Washington)
	sea, _ := s.VirtualNode(topology.Seattle)
	r, ok := wash.FIB.Lookup(sea.TapAddr)
	if !ok {
		t.Fatal("no route after exposed failure")
	}
	if r.Metric == topology.Abilene().ShortestPaths(topology.Washington, nil)[topology.Seattle].Cost {
		t.Fatal("route still uses the failed link's metric")
	}
	// Restore and verify the virtual link is restored too.
	v.RestoreLink(topology.Denver, topology.KansasCity, 100*time.Millisecond)
	if vl.Failed() {
		t.Fatal("restore upcall did not clear the virtual failure")
	}
}

func TestSimultaneousSlicesAreIsolated(t *testing.T) {
	v := buildAbilene(t, 5)
	s1 := abileneSlice(t, v, SliceConfig{Name: "ospf-slice", CPUShare: 0.2, RT: true})
	s2 := abileneSlice(t, v, SliceConfig{Name: "rip-slice", CPUShare: 0.2, RT: true})
	s1.StartOSPF(time.Second, 3*time.Second)
	s2.StartRIP(2 * time.Second)
	v.Run(60 * time.Second)
	// Both slices独立 converge; failing a virtual link in slice 1 must
	// not affect slice 2's routes.
	w1, _ := s1.VirtualNode(topology.Washington)
	w2, _ := s2.VirtualNode(topology.Washington)
	sea1, _ := s1.VirtualNode(topology.Seattle)
	sea2, _ := s2.VirtualNode(topology.Seattle)
	if _, ok := w1.FIB.Lookup(sea1.TapAddr); !ok {
		t.Fatal("slice 1 did not converge")
	}
	r2, ok := w2.FIB.Lookup(sea2.TapAddr)
	if !ok {
		t.Fatal("slice 2 (RIP) did not converge")
	}
	vl, _ := s1.FindVirtualLink(topology.Denver, topology.KansasCity)
	vl.SetFailed(true)
	v.Run(90 * time.Second)
	r2b, ok := w2.FIB.Lookup(sea2.TapAddr)
	if !ok || r2b.Metric != r2.Metric || r2b.NextHop != r2.NextHop {
		t.Fatalf("slice 2 routes perturbed by slice 1 failure: %+v -> %+v", r2, r2b)
	}
	// Cross-slice address spaces must not leak: slice 1 has no route to
	// slice 2's addresses.
	if _, ok := w1.FIB.Lookup(sea2.TapAddr); ok {
		t.Fatal("slice 1 routes to slice 2's address space")
	}
}

func TestAtomicProtocolSwitchover(t *testing.T) {
	v := buildAbilene(t, 6)
	s := abileneSlice(t, v, SliceConfig{Name: "dual", CPUShare: 0.25, RT: true})
	s.StartOSPF(time.Second, 3*time.Second)
	s.StartRIP(2 * time.Second)
	v.Run(90 * time.Second)
	wash, _ := s.VirtualNode(topology.Washington)
	sea, _ := s.VirtualNode(topology.Seattle)
	r, ok := wash.FIB.Lookup(sea.TapAddr)
	if !ok || r.Proto != "ospf" {
		t.Fatalf("pre-switch winner = %+v (want ospf by admin distance)", r)
	}
	if err := s.SwitchProtocol("rip"); err != nil {
		t.Fatal(err)
	}
	r, ok = wash.FIB.Lookup(sea.TapAddr)
	if !ok || r.Proto != "rip" {
		t.Fatalf("post-switch winner = %+v (want rip)", r)
	}
	if err := s.SwitchProtocol("nonsense"); err == nil {
		t.Fatal("bad protocol accepted")
	}
}

func TestEgressNATLifeOfAPacket(t *testing.T) {
	// The Figure 2 scenario: a packet from an overlay address reaches an
	// external web server via the egress NAT, and the response returns
	// through the overlay.
	v := buildAbilene(t, 7)
	// An external host (CNN in the paper) attached to New York.
	cnnAddr := netip.MustParseAddr("64.236.16.20")
	if _, err := v.AddNode("cnn", cnnAddr, netem.DETERProfile(), sched.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := v.AddLink(netem.LinkConfig{A: "cnn", B: topology.NewYork,
		Bandwidth: 100e6, Delay: 2 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	v.ComputeRoutes()
	s := abileneSlice(t, v, SliceConfig{Name: "iias", CPUShare: 0.25, RT: true})
	ny, _ := s.VirtualNode(topology.NewYork)
	if err := ny.EnableEgress(); err != nil {
		t.Fatal(err)
	}
	s.StartOSPF(time.Second, 3*time.Second)
	v.Run(30 * time.Second)
	// A "web server" on the external host.
	cnn, _ := v.Net.Node("cnn")
	var gotReq []byte
	cnn.StackListenUDP(80, func(d []byte) {
		gotReq = append([]byte(nil), d...) // d is borrowed for the call
		var ip packet.IPv4
		seg, _ := ip.Parse(d)
		var u packet.UDP
		u.Parse(seg)
		resp := packet.BuildUDP(cnnAddr, ip.Src, 80, u.SrcPort, 64, []byte("200 OK"))
		cnn.StackSend(resp)
	})
	// Client app on the Seattle virtual node sends through the overlay:
	// divert the external destination into the slice's tap.
	sea, _ := s.VirtualNode(topology.Seattle)
	sea.DivertPrefix(netip.PrefixFrom(cnnAddr, 32))
	var gotResp []byte
	sea.Phys().StackListenUDP(5555, func(d []byte) { gotResp = append([]byte(nil), d...) })
	req := packet.BuildUDP(sea.TapAddr, cnnAddr, 5555, 80, 64, []byte("GET /"))
	sea.Phys().StackSend(req)
	v.Run(40 * time.Second)
	if gotReq == nil {
		t.Fatal("request never reached the external server")
	}
	f, _ := packet.FlowOf(gotReq)
	if f.Src != ny.Phys().Addr() {
		t.Fatalf("request source = %v, want the egress public address %v", f.Src, ny.Phys().Addr())
	}
	if gotResp == nil {
		t.Fatal("response never returned through the overlay")
	}
	rf, _ := packet.FlowOf(gotResp)
	if rf.Src != cnnAddr || rf.Dst != sea.TapAddr || rf.DstPort != 5555 {
		t.Fatalf("response flow = %v", rf)
	}
}

func TestVPNOptIn(t *testing.T) {
	// An end host opts in via the VPN and pings an overlay node.
	v := buildAbilene(t, 8)
	clientPub := netip.MustParseAddr("128.112.93.81")
	if _, err := v.AddNode("client", clientPub, netem.DETERProfile(), sched.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := v.AddLink(netem.LinkConfig{A: "client", B: topology.Washington,
		Bandwidth: 10e6, Delay: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	v.ComputeRoutes()
	s := abileneSlice(t, v, SliceConfig{Name: "iias", CPUShare: 0.25, RT: true})
	wash, _ := s.VirtualNode(topology.Washington)
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i)
	}
	clientOverlay := netip.MustParseAddr("10.1.0.87")
	if err := wash.EnableVPNServer(1194); err != nil {
		t.Fatal(err)
	}
	if err := wash.RegisterVPNClient(clientOverlay, key); err != nil {
		t.Fatal(err)
	}
	s.StartOSPF(time.Second, 3*time.Second)
	v.Run(30 * time.Second)
	vc, err := NewVPNClient(v, "client", clientOverlay, key,
		netip.AddrPortFrom(wash.Phys().Addr(), 1194),
		[]netip.Prefix{s.Prefix()})
	if err != nil {
		t.Fatal(err)
	}
	// Ping Seattle's tap address from the client through the VPN.
	sea, _ := s.VirtualNode(topology.Seattle)
	traffic.NewICMPHost(sea.Phys())
	clientNode, _ := v.Net.Node("client")
	h := traffic.NewICMPHost(clientNode)
	p := h.StartPing(traffic.PingConfig{
		Src: clientOverlay, Dst: sea.TapAddr,
		Interval: 500 * time.Millisecond, Count: 10})
	v.Run(70 * time.Second)
	if p.RTTs.N() == 0 {
		t.Fatalf("no echo replies through the VPN (sent %d, client rx %d)", p.Sent, vc.Received)
	}
	if p.LossRate() > 0.2 {
		t.Fatalf("VPN path loss = %.2f", p.LossRate())
	}
	if vc.Received == 0 {
		t.Fatal("client decrypted nothing")
	}
}

func TestLifeOfPacketTrace(t *testing.T) {
	v := buildAbilene(t, 9)
	s := abileneSlice(t, v, SliceConfig{Name: "iias", CPUShare: 0.25, RT: true})
	s.StartOSPF(time.Second, 3*time.Second)
	v.Run(30 * time.Second)
	wash, _ := s.VirtualNode(topology.Washington)
	ny, _ := s.VirtualNode(topology.NewYork)
	var events []string
	ny.Trace = func(el, ev string, p *packet.Packet) {
		events = append(events, el+":"+ev)
	}
	sea, _ := s.VirtualNode(topology.Seattle)
	// Send one UDP packet Washington -> Seattle; it transits New York.
	sea.Phys().StackListenUDP(7, func([]byte) {})
	wash.Phys().StackSend(packet.BuildUDP(wash.TapAddr, sea.TapAddr, 7, 7, 64, []byte("x")))
	v.Run(35 * time.Second)
	foundRoute := false
	for _, e := range events {
		if e == "rt:route" {
			foundRoute = true
		}
	}
	if !foundRoute {
		t.Fatalf("transit trace missing route event: %v", events)
	}
}
