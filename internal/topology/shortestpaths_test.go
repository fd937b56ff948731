package topology

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"
	"time"
)

// referenceShortestPaths is ShortestPaths as it was before it indexed the
// links: it scans every link once per node it settles (neighbors) and
// again for each hop of every path (activeLink). It is kept as the oracle
// the indexed version must match exactly.
func (g *Graph) referenceShortestPaths(src string, down map[int]bool) map[string]Path {
	const inf = math.MaxUint64
	dist := make(map[string]uint64, len(g.nodes))
	prev := make(map[string]string)
	for n := range g.nodes {
		dist[n] = inf
	}
	if _, ok := dist[src]; !ok {
		return nil
	}
	dist[src] = 0
	q := &pq{}
	heap.Push(q, &pqItem{node: src, dist: 0})
	done := make(map[string]bool)
	for q.Len() > 0 {
		it := heap.Pop(q).(*pqItem)
		if done[it.node] {
			continue
		}
		done[it.node] = true
		for _, nb := range g.neighbors(it.node, down) {
			nd := it.dist + uint64(nb.Cost)
			if nd < dist[nb.Node] || (nd == dist[nb.Node] && it.node < prev[nb.Node]) {
				dist[nb.Node] = nd
				prev[nb.Node] = it.node
				heap.Push(q, &pqItem{node: nb.Node, dist: nd})
			}
		}
	}
	out := make(map[string]Path, len(g.nodes))
	for n, d := range dist {
		if d == inf {
			continue
		}
		var hops []string
		for at := n; ; at = prev[at] {
			hops = append(hops, at)
			if at == src {
				break
			}
		}
		// Reverse into src..dest order.
		for i, j := 0, len(hops)-1; i < j; i, j = i+1, j-1 {
			hops[i], hops[j] = hops[j], hops[i]
		}
		p := Path{Hops: hops, Cost: uint32(d)}
		for i := 0; i+1 < len(hops); i++ {
			if l, ok := g.activeLink(hops[i], hops[i+1], down); ok {
				p.Delay += l.Delay
			}
		}
		out[n] = p
	}
	return out
}

// neighbors returns the adjacencies of node, sorted by neighbor name.
// Links in down are skipped (set of link indices), which is how SPF
// recomputation after failure is modelled at the graph level.
func (g *Graph) neighbors(node string, down map[int]bool) []neighbor {
	var out []neighbor
	for i, l := range g.links {
		if down[i] {
			continue
		}
		switch node {
		case l.A:
			out = append(out, neighbor{Node: l.B, Cost: l.CostAB, Delay: l.Delay, Index: i})
		case l.B:
			out = append(out, neighbor{Node: l.A, Cost: l.CostBA, Delay: l.Delay, Index: i})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

func (g *Graph) activeLink(a, b string, down map[int]bool) (Link, bool) {
	for i, l := range g.links {
		if down[i] {
			continue
		}
		if (l.A == a && l.B == b) || (l.A == b && l.B == a) {
			return l, true
		}
	}
	return Link{}, false
}

// randomGraph draws a graph whose shortest paths exercise every rule
// ShortestPaths has: costs from a small range (equal-cost ties), some
// asymmetric, parallel links with their own cost and delay, a random
// set of failed links, and nodes no link reaches.
func randomGraph(r *rand.Rand) (*Graph, map[int]bool) {
	g := New()
	n := 2 + r.IntN(11)
	name := func(i int) string { return fmt.Sprintf("n%d", i) }
	for i := 0; i < r.IntN(3); i++ {
		g.AddNode(name(n + i)) // isolated
	}
	for range r.IntN(3 * n) {
		a, b := r.IntN(n), r.IntN(n)
		if a == b {
			continue
		}
		l := Link{A: name(a), B: name(b), CostAB: 1 + uint32(r.IntN(4)),
			Delay: time.Duration(1+r.IntN(20)) * time.Millisecond}
		if r.IntN(4) == 0 {
			l.CostBA = 1 + uint32(r.IntN(4))
		}
		g.AddLink(l)
		for r.IntN(3) == 0 { // parallel links, either orientation
			p := Link{A: l.A, B: l.B, CostAB: 1 + uint32(r.IntN(4)),
				Delay: time.Duration(1+r.IntN(20)) * time.Millisecond}
			if r.IntN(2) == 0 {
				p.A, p.B = p.B, p.A
			}
			g.AddLink(p)
		}
	}
	down := map[int]bool{}
	for i := range g.links {
		if r.IntN(5) == 0 {
			down[i] = true
		}
	}
	return g, down
}

// TestShortestPathsMatchesReference compares the indexed ShortestPaths
// with the link-scanning reference, path by path (hops, cost and delay),
// from every source of 600 seeded random graphs and from a name that is
// no node. The draw is checked to hold parallel links, predecessors tied
// at equal cost and unreachable nodes.
func TestShortestPathsMatchesReference(t *testing.T) {
	var parallel, ties, unreachable int
	for seed := uint64(0); seed < 600; seed++ {
		g, down := randomGraph(rand.New(rand.NewPCG(seed, 0)))
		for _, src := range append(g.Nodes(), "absent") {
			want := g.referenceShortestPaths(src, down)
			got := g.ShortestPaths(src, down)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, src %s, down %v:\n got %v\nwant %v", seed, src, down, got, want)
			}
			if len(want) < len(g.nodes) {
				unreachable++
			}
		}
		seen := map[[2]string]bool{}
		for _, l := range g.links {
			if seen[pair(l.A, l.B)] {
				parallel++
			}
			seen[pair(l.A, l.B)] = true
		}
		for _, src := range g.Nodes() {
			ties += equalCostTies(g, g.referenceShortestPaths(src, down), down)
		}
	}
	// The draw must cover what the comparison is about.
	if parallel == 0 || ties == 0 || unreachable == 0 {
		t.Fatalf("random graphs lack coverage: %d parallel links, %d tie-broken predecessors, %d sources with unreachable nodes",
			parallel, ties, unreachable)
	}
	t.Logf("%d parallel links, %d tie-broken predecessors, %d sources with unreachable nodes", parallel, ties, unreachable)
}

// equalCostTies counts the nodes of a shortest-path tree that more than
// one predecessor reaches at the same cost: where the tie-break decides.
func equalCostTies(g *Graph, tree map[string]Path, down map[int]bool) int {
	preds := map[string]map[string]bool{}
	via := func(u, v string, cost uint32) {
		pu, okU := tree[u]
		pv, okV := tree[v]
		if okU && okV && pu.Cost+cost == pv.Cost {
			if preds[v] == nil {
				preds[v] = map[string]bool{}
			}
			preds[v][u] = true
		}
	}
	for i, l := range g.links {
		if !down[i] {
			via(l.A, l.B, l.CostAB)
			via(l.B, l.A, l.CostBA)
		}
	}
	n := 0
	for _, p := range preds {
		if len(p) > 1 {
			n++
		}
	}
	return n
}
