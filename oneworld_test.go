package vini_test

// One world builder: core.VINI.AddTopology is the one place that walks a
// node list and a link list into a substrate, and core.Slice.Mirror the
// one place that embeds a slice on it: no non-test file outside
// internal/core adds a virtual node or a virtual link itself.

import (
	"net/netip"
	"slices"
	"strings"
	"testing"
	"time"

	"vini/internal/core"
	"vini/internal/netem"
	"vini/internal/sched"
	"vini/internal/topology"
)

// handBuiltSites are the non-test files that still build a substrate
// with their own AddNode / AddLink / ComputeRoutes, each with the reason
// the builder does not reach it.
var handBuiltSites = map[string]string{
	"internal/experiment/paper.go": "deter and planetlab give each link of the §5.1 testbed a Jitter, which topology.Link does not carry",
	"examples/optin/main.go":       "adds a client and a web server to an Abilene substrate already built, then reconverges",
}

func TestOneWorldBuilder(t *testing.T) {
	if len(handBuiltSites) > 4 {
		t.Errorf("%d hand-built sites are allowed, want at most 4", len(handBuiltSites))
	}
	outsideCore := func(needle string) []string {
		files := sourceFilesContaining(t, needle, "vini.go", "cmd", "examples", "internal")
		return slices.DeleteFunc(files, func(f string) bool {
			return strings.HasPrefix(f, "internal/netem/") || strings.HasPrefix(f, "internal/core/")
		})
	}
	for _, f := range outsideCore("ComputeRoutes()") {
		if _, ok := handBuiltSites[f]; !ok {
			t.Errorf("%s calls ComputeRoutes() itself: build the substrate with VINI.AddTopology, or name the file in handBuiltSites with its reason", f)
		}
	}
	// benchmark/ keeps its own loops: it is not edited by the change it measures.
	for _, needle := range []string{"AddVirtualNode(", "ConnectVirtual("} {
		if files := outsideCore(needle); len(files) != 0 {
			t.Errorf("%s is called outside internal/core in %v: embed the slice with Slice.Mirror", needle, files)
		}
	}

	g := topology.Abilene()
	if built, ref := abileneDigest(t, g.Nodes(), true), abileneDigest(t, g.Nodes(), false); built != ref {
		t.Errorf("AddTopology + Mirror schedule digest %016x, the explicit loops give %016x", built, ref)
	}
}

// TestAddTopologyOrderIsTheCallers is why the node order is an argument:
// the same graph created in another order is another schedule, and the
// builder reproduces whichever one its caller hands over.
func TestAddTopologyOrderIsTheCallers(t *testing.T) {
	sorted := topology.Abilene().Nodes()
	reversed := slices.Clone(sorted)
	slices.Reverse(reversed)
	var built [2]uint64
	for i, order := range [][]string{sorted, reversed} {
		built[i] = abileneDigest(t, order, true)
		if ref := abileneDigest(t, order, false); built[i] != ref {
			t.Errorf("order %d: AddTopology + Mirror schedule digest %016x, the explicit loops give %016x", i, built[i], ref)
		}
	}
	if built[0] == built[1] {
		t.Errorf("sorted and reversed node order give the same schedule digest %016x", built[0])
	}
}

// abileneDigest builds Abilene at seed 7 with its nodes created in the
// given order, mirrors one slice on it, runs 30 virtual seconds of OSPF
// and returns the schedule digest. With builder false the world is made
// by the explicit loops the builder replaced, kept here as the reference.
func abileneDigest(t *testing.T, nodes []string, builder bool) uint64 {
	t.Helper()
	links := topology.Abilene().Links()
	addrOf := func(_ int, pop string) netip.Addr {
		addr, _ := topology.AbilenePublicAddr(pop)
		return netip.MustParseAddr(addr)
	}
	v := core.New(7)
	if builder {
		if err := v.AddTopology(nodes, links, netem.PlanetLabProfile(), addrOf); err != nil {
			t.Fatal(err)
		}
	} else {
		for i, n := range nodes {
			if _, err := v.AddNode(n, addrOf(i, n), netem.PlanetLabProfile(), sched.Options{}); err != nil {
				t.Fatal(err)
			}
		}
		for _, l := range links {
			if _, err := v.AddLink(netem.LinkConfig{A: l.A, B: l.B, Bandwidth: l.Bandwidth, Delay: l.Delay}); err != nil {
				t.Fatal(err)
			}
		}
		v.ComputeRoutes()
	}
	s, err := v.CreateSlice(core.SliceConfig{Name: "mirror", CPUShare: 0.25, RT: true})
	if err != nil {
		t.Fatal(err)
	}
	if builder {
		if err := s.Mirror(nodes, links, nil); err != nil {
			t.Fatal(err)
		}
	} else {
		for _, n := range nodes {
			if _, err := s.AddVirtualNode(n); err != nil {
				t.Fatal(err)
			}
		}
		for _, l := range links {
			if _, err := s.ConnectVirtual(l.A, l.B, l.CostAB); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.StartOSPF(5*time.Second, 10*time.Second)
	v.Run(30 * time.Second)
	return v.Executor().ScheduleDigest()
}
