package traffic

import (
	"net/netip"
	"strings"
	"testing"
	"time"

	"vini/internal/netem"
	"vini/internal/sched"
	"vini/internal/sim"
	"vini/internal/topology"
)

// demandWorld builds a 4-node square substrate matching a tiny
// REPETITA matrix.
func demandWorld(t *testing.T) (*netem.Network, map[string]*netem.Node) {
	t.Helper()
	loop := sim.NewLoop(3)
	w := netem.New(loop)
	prof := netem.DETERProfile()
	nodes := make(map[string]*netem.Node)
	for i, name := range []string{"a", "b", "c", "d"} {
		n, err := w.AddNode(name, netip.MustParseAddr("192.168.1."+string(rune('1'+i))), prof, sched.Options{})
		if err != nil {
			t.Fatal(err)
		}
		nodes[name] = n
	}
	for _, l := range [][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}, {"d", "a"}} {
		if _, err := w.AddLink(netem.LinkConfig{A: l[0], B: l[1], Bandwidth: 1e9, Delay: time.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}
	w.ComputeRoutes()
	return w, nodes
}

func TestStartDemands(t *testing.T) {
	w, nodes := demandWorld(t)
	m := &topology.DemandMatrix{Demands: []topology.Demand{
		{Src: "a", Dst: "c", RateBps: 400_000},
		{Src: "b", Dst: "d", RateBps: 200_000},
		{Src: "d", Dst: "a", RateBps: 100_000},
		{Src: "ghost", Dst: "a", RateBps: 999_999}, // unresolvable: skipped
	}}
	ep := func(name string) (*netem.Node, netip.Addr, bool) {
		n, ok := nodes[name]
		if !ok {
			return nil, netip.Addr{}, false
		}
		return n, n.Addr(), true
	}
	flows, err := StartDemands(w, m, ep, DemandConfig{Scale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if flows.Skipped != 1 {
		t.Fatalf("skipped = %d, want 1", flows.Skipped)
	}
	if len(flows.Flows) != 3 {
		t.Fatalf("%d flows, want 3", len(flows.Flows))
	}
	if want := 0.5 * (400_000 + 200_000 + 100_000); flows.OfferedBps != want {
		t.Fatalf("OfferedBps = %v, want %v", flows.OfferedBps, want)
	}
	w.Run(2 * time.Second)
	flows.Stop()
	w.Run(3 * time.Second) // drain in-flight packets
	if flows.Sent() == 0 {
		t.Fatal("no datagrams sent")
	}
	if flows.Delivered() != flows.Sent() {
		t.Fatalf("delivered %d of %d on a clean network", flows.Delivered(), flows.Sent())
	}
	// Per-flow rates honor the matrix: the 400k flow sends ~2x the 200k
	// flow's packets.
	s0, s1 := flows.Flows[0].Sent(), flows.Flows[1].Sent()
	if s0 < s1 || float64(s0) > 2.5*float64(s1) {
		t.Fatalf("flow rates off matrix: %d vs %d", s0, s1)
	}
	for i, f := range flows.Flows {
		if f.LossRate() != 0 {
			t.Fatalf("flow %d lost packets: %v", i, f.LossRate())
		}
	}
}

func TestStartDemandsPortSpace(t *testing.T) {
	w, nodes := demandWorld(t)
	ep := func(name string) (*netem.Node, netip.Addr, bool) {
		n, ok := nodes[name]
		return n, netip.Addr{}, ok
	}
	big := &topology.DemandMatrix{Demands: make([]topology.Demand, 20000)}
	for i := range big.Demands {
		big.Demands[i] = topology.Demand{Src: "a", Dst: "c", RateBps: 1000}
	}
	_, err := StartDemands(w, big, ep, DemandConfig{basePort: 30000})
	if err == nil || !strings.Contains(err.Error(), "port space") {
		t.Fatalf("port-space overrun not rejected: %v", err)
	}
}
