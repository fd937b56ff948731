package topology

import (
	"testing"
	"testing/quick"
	"time"
)

func line(names ...string) *Graph {
	g := New()
	for i := 0; i+1 < len(names); i++ {
		g.AddLink(Link{A: names[i], B: names[i+1], CostAB: 1, Delay: time.Millisecond})
	}
	return g
}

func TestShortestPathLine(t *testing.T) {
	g := line("a", "b", "c", "d")
	sp := g.ShortestPaths("a", nil)
	p, ok := sp["d"]
	if !ok || p.Cost != 3 || len(p.Hops) != 4 {
		t.Fatalf("path a->d = %+v ok=%v", p, ok)
	}
	if p.Hops[0] != "a" || p.Hops[3] != "d" {
		t.Fatalf("hops = %v", p.Hops)
	}
	if p.Delay != 3*time.Millisecond {
		t.Fatalf("delay = %v", p.Delay)
	}
}

func TestShortestPathPrefersLowCost(t *testing.T) {
	g := New()
	g.AddLink(Link{A: "a", B: "b", CostAB: 10})
	g.AddLink(Link{A: "a", B: "c", CostAB: 1})
	g.AddLink(Link{A: "c", B: "b", CostAB: 1})
	p := g.ShortestPaths("a", nil)["b"]
	if p.Cost != 2 || len(p.Hops) != 3 || p.Hops[1] != "c" {
		t.Fatalf("path = %+v", p)
	}
}

func TestShortestPathWithDownLink(t *testing.T) {
	g := New()
	g.AddLink(Link{A: "a", B: "b", CostAB: 1}) // index 0
	g.AddLink(Link{A: "a", B: "c", CostAB: 5}) // index 1
	g.AddLink(Link{A: "c", B: "b", CostAB: 5}) // index 2
	p := g.ShortestPaths("a", map[int]bool{0: true})["b"]
	if p.Cost != 10 {
		t.Fatalf("detour cost = %d, want 10", p.Cost)
	}
	if _, ok := g.ShortestPaths("a", map[int]bool{0: true, 1: true})["b"]; ok {
		t.Fatal("unreachable node still has path")
	}
}

func TestAsymmetricCosts(t *testing.T) {
	g := New()
	g.AddLink(Link{A: "a", B: "b", CostAB: 1, CostBA: 100})
	g.AddLink(Link{A: "b", B: "a", CostAB: 0}) // defaults to 1 both ways
	spA := g.ShortestPaths("a", nil)
	if spA["b"].Cost != 1 {
		t.Fatalf("a->b = %d", spA["b"].Cost)
	}
	spB := g.ShortestPaths("b", nil)
	if spB["a"].Cost != 1 { // takes the second (parallel) link
		t.Fatalf("b->a = %d", spB["a"].Cost)
	}
}

func TestSelfLoopRejected(t *testing.T) {
	g := New()
	if err := g.AddLink(Link{A: "x", B: "x"}); err == nil {
		t.Fatal("self-loop accepted")
	}
}

func TestConnected(t *testing.T) {
	g := line("a", "b", "c")
	if !g.Connected(nil) {
		t.Fatal("line not connected")
	}
	g.AddNode("island")
	if g.Connected(nil) {
		t.Fatal("island not detected")
	}
}

func TestNeighborsSortedAndFiltered(t *testing.T) {
	g := New()
	g.AddLink(Link{A: "m", B: "z", CostAB: 1})
	g.AddLink(Link{A: "m", B: "a", CostAB: 2})
	nb := g.neighbors("m", nil)
	if len(nb) != 2 || nb[0].Node != "a" || nb[1].Node != "z" {
		t.Fatalf("neighbors = %+v", nb)
	}
	nb = g.neighbors("m", map[int]bool{0: true})
	if len(nb) != 1 || nb[0].Node != "a" {
		t.Fatalf("filtered neighbors = %+v", nb)
	}
}

// TestDijkstraMatchesBellmanFord is the property test: on random graphs
// the two independent implementations must agree on every distance.
func TestDijkstraMatchesBellmanFord(t *testing.T) {
	f := func(edges []uint16) bool {
		const n = 8
		g := New()
		names := []string{"n0", "n1", "n2", "n3", "n4", "n5", "n6", "n7"}
		for _, nm := range names {
			g.AddNode(nm)
		}
		for _, e := range edges {
			a := names[int(e)%n]
			b := names[int(e>>4)%n]
			if a == b {
				continue
			}
			cost := uint32(e>>8)%50 + 1
			g.AddLink(Link{A: a, B: b, CostAB: cost})
		}
		sp := g.ShortestPaths("n0", nil)
		bf := g.bellmanFord("n0", nil)
		if len(sp) != len(bf) {
			return false
		}
		for node, p := range sp {
			if uint64(p.Cost) != bf[node] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPathsAreValid checks every reported path is a real walk whose edge
// costs sum to the reported cost.
func TestPathsAreValid(t *testing.T) {
	f := func(edges []uint16) bool {
		const n = 6
		g := New()
		names := []string{"a", "b", "c", "d", "e", "f"}
		for _, nm := range names {
			g.AddNode(nm)
		}
		for _, e := range edges {
			x, y := names[int(e)%n], names[int(e>>4)%n]
			if x == y {
				continue
			}
			g.AddLink(Link{A: x, B: y, CostAB: uint32(e>>8)%20 + 1})
		}
		for _, p := range g.ShortestPaths("a", nil) {
			if p.Hops[0] != "a" {
				return false
			}
			var sum uint32
			for i := 0; i+1 < len(p.Hops); i++ {
				// Find the cheapest edge in the walk direction; the path
				// must cost no more than any valid walk over its hops.
				found := false
				var best uint32
				for _, l := range g.Links() {
					var c uint32
					switch {
					case l.A == p.Hops[i] && l.B == p.Hops[i+1]:
						c = l.CostAB
					case l.B == p.Hops[i] && l.A == p.Hops[i+1]:
						c = l.CostBA
					default:
						continue
					}
					if !found || c < best {
						best, found = c, true
					}
				}
				if !found {
					return false // non-adjacent consecutive hops
				}
				sum += best
			}
			if sum != p.Cost {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAbileneShape(t *testing.T) {
	g := Abilene()
	if got := len(g.Nodes()); got != 11 {
		t.Fatalf("nodes = %d, want 11", got)
	}
	if got := len(g.Links()); got != 14 {
		t.Fatalf("links = %d, want 14", got)
	}
	if !g.Connected(nil) {
		t.Fatal("Abilene not connected")
	}
}

// TestAbileneDefaultPath verifies the paper's default route: D.C. through
// New York, Chicago, Indianapolis, Kansas City, and Denver to Seattle with
// a 76 ms RTT (38 ms one-way).
func TestAbileneDefaultPath(t *testing.T) {
	g := Abilene()
	p := g.ShortestPaths(Washington, nil)[Seattle]
	want := []string{Washington, NewYork, Chicago, Indianapolis, KansasCity, Denver, Seattle}
	if len(p.Hops) != len(want) {
		t.Fatalf("hops = %v, want %v", p.Hops, want)
	}
	for i := range want {
		if p.Hops[i] != want[i] {
			t.Fatalf("hops = %v, want %v", p.Hops, want)
		}
	}
	if rtt := 2 * p.Delay; rtt != 76*time.Millisecond {
		t.Fatalf("default-path RTT = %v, want 76ms", rtt)
	}
}

// TestAbileneFailoverPath verifies the paper's post-failure route through
// Atlanta, Houston, Los Angeles, and Sunnyvale with a 93 ms RTT.
func TestAbileneFailoverPath(t *testing.T) {
	g := Abilene()
	down := map[int]bool{}
	for i, l := range g.Links() {
		if (l.A == Denver && l.B == KansasCity) || (l.A == KansasCity && l.B == Denver) {
			down[i] = true
		}
	}
	if len(down) != 1 {
		t.Fatalf("could not find Denver-Kansas City link")
	}
	p := g.ShortestPaths(Washington, down)[Seattle]
	want := []string{Washington, Atlanta, Houston, LosAngeles, Sunnyvale, Seattle}
	if len(p.Hops) != len(want) {
		t.Fatalf("hops = %v, want %v", p.Hops, want)
	}
	for i := range want {
		if p.Hops[i] != want[i] {
			t.Fatalf("hops = %v, want %v", p.Hops, want)
		}
	}
	if rtt := 2 * p.Delay; rtt != 93*time.Millisecond {
		t.Fatalf("failover-path RTT = %v, want 93ms", rtt)
	}
}

func TestAbilenePublicAddrs(t *testing.T) {
	seen := map[string]bool{}
	for _, pop := range Abilene().Nodes() {
		a, ok := AbilenePublicAddr(pop)
		if !ok {
			t.Fatalf("no public addr for %s", pop)
		}
		if seen[a] {
			t.Fatalf("duplicate public addr %s", a)
		}
		seen[a] = true
	}
	if _, ok := AbilenePublicAddr("atlantis"); ok {
		t.Fatal("made up a PoP")
	}
}

func TestAbileneRouterCodes(t *testing.T) {
	g := Abilene()
	for _, n := range g.Nodes() {
		if AbileneRouterCode[n] == "" {
			t.Fatalf("no router code for %s", n)
		}
	}
}

func TestFindLink(t *testing.T) {
	g := Abilene()
	if _, ok := g.findLink(Denver, KansasCity); !ok {
		t.Fatal("Denver-KC link missing")
	}
	if _, ok := g.findLink(KansasCity, Denver); !ok {
		t.Fatal("FindLink not orientation-agnostic")
	}
	if _, ok := g.findLink(Seattle, Washington); ok {
		t.Fatal("phantom link")
	}
}

// findLink returns the first link between a and b in either orientation.
func (g *Graph) findLink(a, b string) (Link, bool) {
	for _, l := range g.links {
		if (l.A == a && l.B == b) || (l.A == b && l.B == a) {
			return l, true
		}
	}
	return Link{}, false
}

// totalBps sums the offered load of m.
func totalBps(m *DemandMatrix) float64 {
	var t float64
	for _, d := range m.Demands {
		t += d.RateBps
	}
	return t
}
