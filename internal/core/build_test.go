package core

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"vini/internal/netem"
	"vini/internal/packet"
	"vini/internal/sched"
)

// A virtual link added to an egress node after traffic has flowed must
// not reset the node's NAT: the bindings of live flows survive, and
// return traffic on them is still translated back into the overlay.
func TestConnectVirtualKeepsNATBindings(t *testing.T) {
	v := buildLine(t, 3)
	webAddr := netip.MustParseAddr("64.236.16.20")
	if _, err := v.AddNode("web", webAddr, netem.DETERProfile(), sched.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := v.AddLink(netem.LinkConfig{A: "web", B: "east",
		Bandwidth: 1e9, Delay: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	v.ComputeRoutes()
	s := lineSlice(t, v, SliceConfig{Name: "nat", CPUShare: 0.3})
	east, _ := s.VirtualNode("east")
	if err := east.EnableEgress(); err != nil {
		t.Fatal(err)
	}
	s.StartOSPF(time.Second, 3*time.Second)
	v.Run(20 * time.Second)

	// The web server holds the request instead of answering at once.
	web, _ := v.Net.Node("web")
	var req []byte
	web.StackListenUDP(80, func(d []byte) { req = append([]byte(nil), d...) })
	west, _ := s.VirtualNode("west")
	west.DivertPrefix(netip.PrefixFrom(webAddr, 32))
	var resp []byte
	west.Phys().StackListenUDP(5555, func(d []byte) { resp = append([]byte(nil), d...) })
	west.Phys().StackSend(packet.BuildUDP(west.TapAddr, webAddr, 5555, 80, 64, []byte("GET /")))
	v.Run(25 * time.Second)
	if req == nil {
		t.Fatal("request never reached the external server")
	}
	before, err := east.Router.Handler("napt.bindings", "")
	if err != nil {
		t.Fatal(err)
	}
	if before == "0" {
		t.Fatal("the request left no NAT binding")
	}

	if _, err := s.ConnectVirtual("east", "west", 1); err != nil {
		t.Fatal(err)
	}
	if after, _ := east.Router.Handler("napt.bindings", ""); after != before {
		t.Fatalf("napt.bindings %s before ConnectVirtual, %s after", before, after)
	}

	f, _ := packet.FlowOf(req)
	web.StackSend(packet.BuildUDP(webAddr, f.Src, 80, f.SrcPort, 64, []byte("200 OK")))
	v.Run(30 * time.Second)
	if resp == nil {
		t.Fatal("the response to a flow bound before ConnectVirtual was not translated back")
	}
	if rf, _ := packet.FlowOf(resp); rf.Src != webAddr || rf.Dst != west.TapAddr || rf.DstPort != 5555 {
		t.Fatalf("response flow = %v", rf)
	}
}

// vnodeBuildAllocs is what building one virtual node and joining it to
// two others allocates (amd64): the IIAS graph instantiated from its
// compiled configuration, two interfaces declared without a parse, and
// the route and ledger state. A parse per node or per interface roughly
// doubles it.
const vnodeBuildAllocs = 303

// Building a virtual node allocates what its graph needs, not what a
// parser of its configuration text needs.
func TestVirtualNodeBuildAllocs(t *testing.T) {
	v := buildLine(t, 1)
	const runs = 20
	slices := make([]*Slice, runs+1)
	for i := range slices {
		s, err := v.CreateSlice(SliceConfig{Name: fmt.Sprintf("s%d", i), MaxNodes: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []string{"mid", "east"} {
			if _, err := s.AddVirtualNode(n); err != nil {
				t.Fatal(err)
			}
		}
		slices[i] = s
	}
	next := 0
	got := testing.AllocsPerRun(runs, func() {
		s := slices[next]
		next++
		if _, err := s.AddVirtualNode("west"); err != nil {
			t.Fatal(err)
		}
		for _, peer := range []string{"mid", "east"} {
			if _, err := s.ConnectVirtual("west", peer, 1); err != nil {
				t.Fatal(err)
			}
		}
	})
	if limit := vnodeBuildAllocs * 1.1; got > limit {
		t.Fatalf("AddVirtualNode + 2 ConnectVirtual: %.0f allocations, budget %.0f (+10 %% of %d)",
			got, limit, vnodeBuildAllocs)
	}
	t.Logf("AddVirtualNode + 2 ConnectVirtual: %.0f allocations", got)
}
