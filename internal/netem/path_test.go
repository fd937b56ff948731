package netem

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"testing"
	"time"

	"vini/internal/sched"
	"vini/internal/sim"
	"vini/internal/topology"
)

// reference rebuilds the substrate graph and its down set from the
// network's public view alone: what Path must agree with.
func reference(t *testing.T, w *Network) (*topology.Graph, map[int]bool) {
	t.Helper()
	g := topology.New()
	for _, n := range w.Nodes() {
		g.AddNode(n)
	}
	down := map[int]bool{}
	for i, l := range w.Links() {
		cfg := l.Config()
		if err := g.AddLink(topology.Link{A: cfg.A, B: cfg.B, CostAB: uint32(cfg.Delay/time.Microsecond) + 1, Delay: cfg.Delay}); err != nil {
			t.Fatal(err)
		}
		if l.down {
			down[i] = true
		}
	}
	return g, down
}

// TestPathFollowsTheSubstrate: the network keeps one shortest-path tree
// per source for as long as the substrate stands as it was computed on.
// A failure, a repair and a new link must each be seen by the very next
// Path, whether the link changed through FailLink or Link.SetDown.
func TestPathFollowsTheSubstrate(t *testing.T) {
	w := New(sim.NewLoop(1))
	ring := []string{"a", "b", "c", "d", "e"}
	for i, n := range ring {
		if _, err := w.AddNode(n, netip.AddrFrom4([4]byte{198, 51, 100, byte(i + 1)}), DETERProfile(), sched.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	for i, n := range ring {
		if _, err := w.AddLink(LinkConfig{A: n, B: ring[(i+1)%len(ring)],
			Bandwidth: 1e9, Delay: time.Duration(i+1) * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}
	checkAll := func(when string) {
		t.Helper()
		g, down := reference(t, w)
		for _, from := range ring {
			for _, to := range ring {
				if got, want := w.Path(from, to), g.ShortestPaths(from, down)[to].Hops; !slices.Equal(got, want) {
					t.Fatalf("%s: Path(%s, %s) = %v, the reference graph gives %v", when, from, to, got, want)
				}
			}
		}
	}
	checkAll("all links up")
	if len(w.trees) != len(ring) {
		t.Fatalf("%d trees cached for %d sources", len(w.trees), len(ring))
	}
	if p, q := w.Path("a", "c"), w.Path("a", "c"); &p[0] != &q[0] {
		t.Fatal("a repeated query was recomputed")
	}

	if err := w.FailLink("a", "b", -1); err != nil {
		t.Fatal(err)
	}
	if got := w.Path("a", "b"); len(got) != 5 {
		t.Fatalf("after the failure Path(a, b) = %v, want the long way round", got)
	}
	checkAll("a-b down")
	if err := w.RestoreLink("a", "b", -1); err != nil {
		t.Fatal(err)
	}
	if got := w.Path("a", "b"); len(got) != 2 {
		t.Fatalf("after the repair Path(a, b) = %v, want [a b]", got)
	}
	checkAll("repaired")

	cd := w.Links()[2]
	cd.SetDown(true)
	if got := w.Path("c", "d"); len(got) != 5 {
		t.Fatalf("after SetDown(true) Path(c, d) = %v, want the long way round", got)
	}
	checkAll("c-d set down")
	cd.SetDown(false)
	checkAll("c-d set up")

	if _, err := w.AddLink(LinkConfig{A: "a", B: "c", Bandwidth: 1e9, Delay: time.Microsecond}); err != nil {
		t.Fatal(err)
	}
	if got := w.Path("a", "c"); len(got) != 2 {
		t.Fatalf("after the new link Path(a, c) = %v, want [a c]", got)
	}
	checkAll("chord added")

	// Cut off from the rest, a node is still pinned on the path that
	// works once the substrate heals.
	healed := slices.Clone(w.Path("e", "c"))
	for _, l := range w.Links() {
		if cfg := l.Config(); cfg.A == "e" || cfg.B == "e" {
			l.SetDown(true)
		}
	}
	if got := w.Path("e", "c"); !slices.Equal(got, healed) {
		t.Fatalf("partitioned Path(e, c) = %v, want the all-links-up path %v", got, healed)
	}
}

// TestKernelsWalkPath: on random connected substrates (parallel links
// and equal delays included) with random failed links, after
// ComputeRoutes the kernel next hops from every a towards every b visit
// exactly Path(a, b), and where the failures cut b off, a has no route.
func TestKernelsWalkPath(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := New(sim.NewLoop(seed))
		n := 3 + rng.Intn(8)
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("n%d", i)
			if _, err := w.AddNode(names[i], netip.AddrFrom4([4]byte{198, 51, 100, byte(i + 1)}), DETERProfile(), sched.Options{}); err != nil {
				t.Fatal(err)
			}
		}
		link := func(a, b int) {
			if _, err := w.AddLink(LinkConfig{A: names[a], B: names[b], Bandwidth: 1e9,
				Delay: time.Duration(1+rng.Intn(3)) * time.Millisecond}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 1; i < n; i++ {
			link(rng.Intn(i), i) // a random spanning tree
		}
		for extra := rng.Intn(2 * n); extra > 0; extra-- {
			if a, b := rng.Intn(n), rng.Intn(n); a != b {
				link(a, b)
			}
		}
		for _, l := range w.Links() {
			if rng.Intn(4) == 0 {
				l.SetDown(true)
			}
		}
		w.ComputeRoutes()
		g, down := reference(t, w)
		for _, a := range names {
			live := g.ShortestPaths(a, down)
			for _, b := range names {
				walked := []string{a}
				for at := w.nodes[a]; at.name != b && len(walked) <= n; {
					r, ok := at.routes.Lookup(w.nodes[b].addr)
					if !ok {
						break
					}
					l := at.links[r.OutPort]
					if l.down {
						t.Fatalf("seed %d: %s routes %s over a failed link", seed, at.name, b)
					}
					if at = l.a; at.name == walked[len(walked)-1] {
						at = l.b
					}
					walked = append(walked, at.name)
				}
				want := []string{a}
				if _, ok := live[b]; ok {
					want = w.Path(a, b)
				}
				if !slices.Equal(walked, want) {
					t.Fatalf("seed %d: the kernels walk %s -> %s along %v, Path gives %v", seed, a, b, walked, want)
				}
			}
		}
	}
}
