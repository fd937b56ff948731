package vini_test

// One substrate graph: netem.Network holds the physical topology, its
// down set and its shortest-path trees, and is the one place that says
// which physical links a tunnel rides.

import (
	"net/netip"
	"slices"
	"testing"
	"time"

	"vini/internal/core"
	"vini/internal/netem"
	"vini/internal/packet"
	"vini/internal/sched"
)

func TestOneSubstrateGraph(t *testing.T) {
	// One copy: the delay-to-cost formula is written once, and core
	// builds no graph of its own.
	if files := sourceFilesContaining(t, "Delay/time.Microsecond", "internal", "cmd"); len(files) != 1 {
		t.Errorf("the delay-to-cost formula is written in %d non-test source files, want exactly 1: %v", len(files), files)
	}
	if files := sourceFilesContaining(t, "topology.New()", "internal/core"); len(files) != 0 {
		t.Errorf("internal/core builds its own topology graph: %v", files)
	}

	// Two parallel a-b links and an a-c-b detour. With the first a-b
	// link failed the kernel routes a->b over the second; the virtual
	// link must be pinned there too, and must not be reported failed.
	v := core.New(1)
	for i, name := range []string{"a", "b", "c"} {
		if _, err := v.AddNode(name, netip.AddrFrom4([4]byte{198, 51, 100, byte(i + 1)}), netem.DETERProfile(), sched.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range [][2]string{{"a", "b"}, {"a", "b"}, {"a", "c"}, {"c", "b"}} {
		if _, err := v.AddLink(netem.LinkConfig{A: l[0], B: l[1], Bandwidth: 1e9, Delay: time.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}
	v.ComputeRoutes()
	s, err := v.CreateSlice(core.SliceConfig{Name: "pinned", CPUShare: 0.1, ExposePhysicalFailures: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		if _, err := s.AddVirtualNode(name); err != nil {
			t.Fatal(err)
		}
	}
	before, err := s.ConnectVirtual("a", "b", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.FailLink("a", "b", 0); err != nil {
		t.Fatal(err)
	}
	v.Run(time.Millisecond) // the substrate IGP reconverges
	if before.Failed() {
		t.Error("the virtual link is marked failed while the second parallel a-b link carries its tunnel")
	}
	after, err := s.ConnectVirtual("a", "b", 1)
	if err != nil {
		t.Fatal(err)
	}

	walked := []string{"a"}
	v.Net.OnPacket(func(n *netem.Node, event string, _ *packet.Packet) {
		if event == "recv" {
			walked = append(walked, n.Name())
		}
	})
	a, b := v.Net.MustNode("a"), v.Net.MustNode("b")
	if err := b.StackListenUDP(7, func([]byte) {}); err != nil {
		t.Fatal(err)
	}
	a.StackSend(packet.BuildUDP(a.Addr(), b.Addr(), 1, 7, 64, nil))
	v.Run(20 * time.Millisecond)
	if pinned := after.Path(); !slices.Equal(pinned, walked) {
		t.Errorf("a-b pinned on %v, the kernel FIBs walk %v", pinned, walked)
	}

	// Only with every a-b link down is the hop down.
	v.Net.Links()[1].SetDown(true)
	if err := v.FailLink("a", "b", -1); err != nil {
		t.Fatal(err)
	}
	if !after.Failed() {
		t.Errorf("both a-b links are down and the virtual link pinned on %v is not marked failed", after.Path())
	}
}
