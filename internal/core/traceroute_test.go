package core

import (
	"testing"
	"time"

	"vini/internal/topology"
	"vini/internal/traffic"
)

// TestTracerouteAcrossOverlay walks the virtual Abilene hop by hop: each
// transit Click's ICMPError element answers with its tap address, so the
// trace reads out exactly the embedded default path of Figure 7.
func TestTracerouteAcrossOverlay(t *testing.T) {
	v := buildAbilene(t, 12)
	s := abileneSlice(t, v, SliceConfig{Name: "iias", CPUShare: 0.25, RT: true})
	s.StartOSPF(time.Second, 3*time.Second)
	v.Run(30 * time.Second)
	wash, _ := s.VirtualNode(topology.Washington)
	sea, _ := s.VirtualNode(topology.Seattle)
	h := traffic.NewICMPHost(wash.Phys())
	tr := h.StartTraceroute(traffic.TracerouteConfig{
		Src: wash.TapAddr, Dst: sea.TapAddr})
	v.Run(v.Loop().Now() + 60*time.Second)
	if !tr.Done {
		t.Fatalf("traceroute incomplete: %+v", tr.Hops)
	}
	// Expected transit tap addresses along the Figure 7 default path.
	want := []string{topology.NewYork, topology.Chicago, topology.Indianapolis,
		topology.KansasCity, topology.Denver, topology.Seattle}
	if len(tr.Hops) != len(want) {
		t.Fatalf("hops = %d (%+v), want %d", len(tr.Hops), tr.Hops, len(want))
	}
	for i, name := range want {
		vn, _ := s.VirtualNode(name)
		if tr.Hops[i].Addr != vn.TapAddr {
			t.Fatalf("hop %d = %v, want %s (%v)", i+1, tr.Hops[i].Addr, name, vn.TapAddr)
		}
		if tr.Hops[i].RTT <= 0 {
			t.Fatalf("hop %d has no RTT", i+1)
		}
	}
	// RTTs grow along the path.
	if tr.Hops[0].RTT >= tr.Hops[len(tr.Hops)-1].RTT {
		t.Fatalf("RTTs not increasing: %v vs %v", tr.Hops[0].RTT, tr.Hops[len(tr.Hops)-1].RTT)
	}
}
