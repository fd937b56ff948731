package vini_test

import (
	"net/netip"
	"testing"
	"time"

	"vini"
	"vini/internal/topology"
	"vini/internal/traffic"
)

// TestFacadeQuickstart exercises the documented public-API flow end to
// end: build a substrate, embed a slice, converge OSPF, verify routes.
func TestFacadeQuickstart(t *testing.T) {
	v := vini.New(1)
	for i, name := range []string{"a", "b", "c"} {
		addr := netip.AddrFrom4([4]byte{198, 51, 100, byte(i + 1)})
		if _, err := v.AddNode(name, addr, vini.PlanetLabProfile(), vini.SchedOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range [][2]string{{"a", "b"}, {"b", "c"}} {
		if _, err := v.AddLink(vini.LinkConfig{A: l[0], B: l[1], Bandwidth: 1e9, Delay: 2 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}
	v.ComputeRoutes()
	s, err := v.CreateSlice(vini.SliceConfig{Name: "t", CPUShare: 0.25, RT: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"a", "b", "c"} {
		if _, err := s.AddVirtualNode(n); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.ConnectVirtual("a", "b", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ConnectVirtual("b", "c", 1); err != nil {
		t.Fatal(err)
	}
	s.StartOSPF(time.Second, 3*time.Second)
	v.Run(20 * time.Second)
	a, _ := s.VirtualNode("a")
	c, _ := s.VirtualNode("c")
	r, ok := a.FIB.Lookup(c.TapAddr)
	if !ok || r.Metric != 2 {
		t.Fatalf("a->c route = %+v ok=%v", r, ok)
	}
}

// TestFacadeAbileneHelpers covers BuildAbilene + MirrorAbilene and a
// ping over the mirrored slice.
func TestFacadeAbileneHelpers(t *testing.T) {
	v, err := vini.BuildAbilene(3, vini.PlanetLabProfile())
	if err != nil {
		t.Fatal(err)
	}
	s, err := vini.MirrorAbilene(v, vini.SliceConfig{Name: "mirror", CPUShare: 0.25, RT: true},
		time.Second, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	v.Run(30 * time.Second)
	wash, _ := s.VirtualNode(topology.Washington)
	sea, _ := s.VirtualNode(topology.Seattle)
	traffic.NewICMPHost(sea.Phys())
	h := traffic.NewICMPHost(wash.Phys())
	p := h.StartPing(traffic.PingConfig{Src: wash.TapAddr, Dst: sea.TapAddr,
		Interval: 500 * time.Millisecond, Count: 10})
	v.Run(v.Loop().Now() + 10*time.Second)
	if p.LossRate() != 0 {
		t.Fatalf("loss %.2f on the mirrored backbone", p.LossRate())
	}
	if avg := p.RTTs.Mean(); avg < 75 || avg > 80 {
		t.Fatalf("avg RTT = %.1f ms, want ~76", avg)
	}
	if _, ok := vini.AbilenePublicAddr(topology.Seattle); !ok {
		t.Fatal("AbilenePublicAddr missing Seattle")
	}
	if g := vini.Abilene(); len(g.Nodes()) != 11 {
		t.Fatal("Abilene graph wrong")
	}
}

// TestFacadeSpec covers ParseSpec through the facade.
func TestFacadeSpec(t *testing.T) {
	sp, err := vini.ParseSpec("topology line x y\nospf hello 1s dead 3s\nwarmup 10s\nduration 2s\nping x y interval 500ms")
	if err != nil {
		t.Fatal(err)
	}
	res, err := sp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pings) != 1 || res.Pings[0].LossPct != 0 {
		t.Fatalf("spec run pings = %+v", res.Pings)
	}
}
