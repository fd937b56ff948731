// Package topology models network topologies: nodes, weighted links with
// propagation delay and capacity, and the shortest-path computations both
// the routing protocols and the experiment harness verify against. It also
// ships the Abilene backbone dataset the paper mirrors in Section 5.2.
package topology

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"time"
)

// Link is an undirected edge between two named nodes.
type Link struct {
	A, B string
	// CostAB/CostBA are the IGP metrics in each direction (OSPF allows
	// asymmetric costs; Abilene's are symmetric).
	CostAB, CostBA uint32
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// Bandwidth is the link capacity in bits per second.
	Bandwidth float64
}

// Graph is a topology under construction or inspection.
type Graph struct {
	nodes map[string]bool
	links []Link
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{nodes: make(map[string]bool)}
}

// AddNode adds a node; adding twice is a no-op.
func (g *Graph) AddNode(name string) {
	g.nodes[name] = true
}

// AddLink adds an undirected link, creating endpoints as needed.
func (g *Graph) AddLink(l Link) error {
	if l.A == l.B {
		return fmt.Errorf("topology: self-loop at %s", l.A)
	}
	if l.CostAB == 0 {
		l.CostAB = 1
	}
	if l.CostBA == 0 {
		l.CostBA = l.CostAB
	}
	g.nodes[l.A] = true
	g.nodes[l.B] = true
	g.links = append(g.links, l)
	return nil
}

// Nodes returns all node names, sorted.
func (g *Graph) Nodes() []string {
	out := make([]string, 0, len(g.nodes))
	for n := range g.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Links returns a copy of all links.
func (g *Graph) Links() []Link {
	return append([]Link(nil), g.links...)
}

// neighbor describes one adjacency from a node's perspective.
type neighbor struct {
	Node  string
	Cost  uint32
	Delay time.Duration
	Index int // index into Links()
}

// Path is a shortest-path result.
type Path struct {
	Hops  []string // source..dest inclusive
	Cost  uint32
	Delay time.Duration // one-way propagation along the path
}

// pqItem is a Dijkstra frontier entry.
type pqItem struct {
	node string
	dist uint64
	idx  int
}

type pq []*pqItem

func (q pq) Len() int { return len(q) }
func (q pq) Less(i, j int) bool {
	if q[i].dist != q[j].dist {
		return q[i].dist < q[j].dist
	}
	return q[i].node < q[j].node // deterministic tie-break
}
func (q pq) Swap(i, j int) { q[i], q[j] = q[j], q[i]; q[i].idx = i; q[j].idx = j }
func (q *pq) Push(x any)   { it := x.(*pqItem); it.idx = len(*q); *q = append(*q, it) }
func (q *pq) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// ShortestPaths runs Dijkstra from src, skipping links in down, and
// returns the path to every reachable node. Ties are broken by
// lexicographically smallest predecessor so results are deterministic
// (and match the SPF in internal/ospf). A hop's delay is that of the
// first link up between its two nodes.
func (g *Graph) ShortestPaths(src string, down map[int]bool) map[string]Path {
	const inf = math.MaxUint64
	dist := make(map[string]uint64, len(g.nodes))
	prev := make(map[string]string)
	for n := range g.nodes {
		dist[n] = inf
	}
	if _, ok := dist[src]; !ok {
		return nil
	}
	// One pass over the links: each node's adjacencies in link order, and
	// the delay of the first link up between each pair of nodes.
	adj := make(map[string][]neighbor, len(g.nodes))
	delay := make(map[[2]string]time.Duration, len(g.links))
	for i, l := range g.links {
		if down[i] {
			continue
		}
		adj[l.A] = append(adj[l.A], neighbor{Node: l.B, Cost: l.CostAB, Delay: l.Delay, Index: i})
		adj[l.B] = append(adj[l.B], neighbor{Node: l.A, Cost: l.CostBA, Delay: l.Delay, Index: i})
		if _, ok := delay[pair(l.A, l.B)]; !ok {
			delay[pair(l.A, l.B)] = l.Delay
		}
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
		nbs := adj[it.node]
		sort.Slice(nbs, func(i, j int) bool { return nbs[i].Node < nbs[j].Node })
		for _, nb := range nbs {
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
			p.Delay += delay[pair(hops[i], hops[i+1])]
		}
		out[n] = p
	}
	return out
}

// pair keys an unordered pair of nodes.
func pair(a, b string) [2]string {
	if b < a {
		a, b = b, a
	}
	return [2]string{a, b}
}

// bellmanFord computes shortest-path costs from src by relaxation; it is
// the independent reference implementation the property tests compare
// Dijkstra (and the OSPF SPF) against.
func (g *Graph) bellmanFord(src string, down map[int]bool) map[string]uint64 {
	const inf = math.MaxUint64
	dist := make(map[string]uint64, len(g.nodes))
	for n := range g.nodes {
		dist[n] = inf
	}
	if _, ok := dist[src]; !ok {
		return nil
	}
	dist[src] = 0
	for iter := 0; iter < len(g.nodes); iter++ {
		changed := false
		for i, l := range g.links {
			if down[i] {
				continue
			}
			if dist[l.A] != inf && dist[l.A]+uint64(l.CostAB) < dist[l.B] {
				dist[l.B] = dist[l.A] + uint64(l.CostAB)
				changed = true
			}
			if dist[l.B] != inf && dist[l.B]+uint64(l.CostBA) < dist[l.A] {
				dist[l.A] = dist[l.B] + uint64(l.CostBA)
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for n, d := range dist {
		if d == inf {
			delete(dist, n)
		}
	}
	return dist
}

// Connected reports whether all nodes are mutually reachable ignoring
// links in down.
func (g *Graph) Connected(down map[int]bool) bool {
	nodes := g.Nodes()
	if len(nodes) == 0 {
		return true
	}
	sp := g.ShortestPaths(nodes[0], down)
	return len(sp) == len(nodes)
}
