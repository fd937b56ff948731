package simtest

import (
	"fmt"
	"hash/fnv"
	"net/netip"

	"vini/internal/core"
	"vini/internal/fib"
)

// LookupIPRoute output ports in the generated IIAS configuration (see
// core.iiasConfig): 0 forwards via the encapsulation table, 1 delivers
// to the local tap.
const (
	outPortEncap = 0
	outPortTap   = 1
)

// probePort is the UDP port every node's kernel stack listens on for
// the delivery-checked traffic probes.
const probePort = 40000

// fibFingerprint hashes every node's FIB contents in order, the value
// the regimes fold into their digests at quiescent points.
func fibFingerprint(vnodes []*core.VirtualNode) uint64 {
	h := fnv.New64a()
	for _, vn := range vnodes {
		for _, r := range vn.FIB.Routes() {
			fmt.Fprintln(h, r.String())
		}
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// walkResult classifies one FIB next-hop graph walk.
type walkResult int

const (
	walkDelivered   walkResult = iota
	walkUnreachable            // no route, or next hop resolves to no node
	walkMisdelivered
	walkLoop
)

// walkFIB follows the per-destination next-hop graph from node start
// toward dst: look up dst in the current node's FIB, hop to the owner
// of the chosen next-hop address, repeat. It is a pure control-plane
// walk — no packets move — so it checks invariant 1 (acyclicity per
// destination) directly on the forwarding state.
func walkFIB(vnodes []*core.VirtualNode, addrOwner map[netip.Addr]int,
	start int, dst netip.Addr) (walkResult, string) {
	cur := start
	path := fmt.Sprintf("n%d", start)
	visited := map[int]bool{start: true}
	for hops := 0; hops <= len(vnodes)+1; hops++ {
		r, ok := vnodes[cur].FIB.Lookup(dst)
		if !ok {
			return walkUnreachable, path
		}
		if !r.NextHop.IsValid() || r.OutPort == outPortTap {
			if dst == vnodes[cur].TapAddr {
				return walkDelivered, path
			}
			return walkMisdelivered, path + " (local delivery of foreign address)"
		}
		next, ok := addrOwner[r.NextHop]
		if !ok {
			return walkUnreachable, path + fmt.Sprintf(" (next hop %v unowned)", r.NextHop)
		}
		if visited[next] {
			return walkLoop, path + fmt.Sprintf(" -> n%d", next)
		}
		visited[next] = true
		cur = next
		path += fmt.Sprintf(" -> n%d", next)
	}
	return walkLoop, path + " (hop budget exhausted)"
}

// checkLoops runs invariant 1 (and the reachability corollary) for
// every (source, destination-tap) pair: the next-hop graph must be
// acyclic, same-component pairs must walk to delivery, and
// cross-component pairs must not (a cross-component "delivery" means a
// protocol failed to withdraw routes over a failed link).
func (o *overlay) checkLoops() []string {
	var out []string
	comp := o.components()
	for d, dvn := range o.vnode {
		for s := range o.vnode {
			if s == d {
				continue
			}
			res, path := walkFIB(o.vnode, o.addrOwner, s, dvn.TapAddr)
			switch res {
			case walkLoop:
				out = append(out, fmt.Sprintf("forwarding loop for %v: %s", dvn.TapAddr, path))
			case walkMisdelivered:
				out = append(out, fmt.Sprintf("misdelivery for %v: %s", dvn.TapAddr, path))
			case walkDelivered:
				if comp[s] != comp[d] {
					out = append(out, fmt.Sprintf("stale route: n%d reaches %v across failed links: %s",
						s, dvn.TapAddr, path))
				}
			case walkUnreachable:
				if comp[s] == comp[d] {
					out = append(out, fmt.Sprintf("unreachable in component: n%d cannot reach %v: %s",
						s, dvn.TapAddr, path))
				}
			}
		}
	}
	return out
}

// checkConsistency runs invariant 2 on one node: the routing process's
// last-emitted RIB must match what the FEA holds for it, the FEA's
// selection must match the installed FIB, the compiled stride-8 FIB
// must agree with the reference binary trie, and every Click element
// cache must agree with its authoritative table.
func (o *overlay) checkConsistency(i int, sample []netip.Addr) []string {
	vn := o.vnode[i]
	var out []string
	fail := func(format string, args ...any) {
		out = append(out, fmt.Sprintf("n%d: ", i)+fmt.Sprintf(format, args...))
	}
	if vn.OSPF != nil {
		if err := compareRoutes(vn.OSPF.Routes(), vn.RIB().ProtoRoutes("ospf")); err != nil {
			fail("ospf vs RIB: %v", err)
		}
	}
	if vn.RIP != nil {
		if err := compareRoutes(vn.RIP.Routes(), vn.RIB().ProtoRoutes("rip")); err != nil {
			fail("rip vs RIB: %v", err)
		}
	}
	if err := vn.RIB().Verify(); err != nil {
		fail("RIB vs FIB: %v", err)
	}
	if err := vn.FIB.VerifyCompiled(sample); err != nil {
		fail("compiled FIB oracle: %v", err)
	}
	if err := vn.Router.Audit(); err != nil {
		fail("click cache audit: %v", err)
	}
	return out
}

// compareRoutes checks that two route sets agree on the forwarding
// substance (prefix, next hop, metric). Output ports and ownership tags
// legitimately differ: the FEA rewrites protocol interface indices to
// IIAS Click ports.
func compareRoutes(proto, rib []fib.Route) error {
	if len(proto) != len(rib) {
		return fmt.Errorf("%d routes in protocol, %d in RIB", len(proto), len(rib))
	}
	key := func(r fib.Route) string {
		return fmt.Sprintf("%s|%s|%d", r.Prefix, r.NextHop, r.Metric)
	}
	seen := make(map[string]int, len(proto))
	for _, r := range proto {
		seen[key(r)]++
	}
	for _, r := range rib {
		if seen[key(r)] == 0 {
			return fmt.Errorf("RIB holds %v which the protocol did not emit", r)
		}
		seen[key(r)]--
	}
	return nil
}

// addrs is every address a real packet can carry in the overlay: each
// node's tap address and both ends of each of its interfaces. It is the
// sample the differential FIB oracle checks on every node.
func (o *overlay) addrs() []netip.Addr {
	var out []netip.Addr
	for _, vn := range o.vnode {
		out = append(out, vn.TapAddr)
		for _, ifc := range vn.Interfaces() {
			out = append(out, ifc.Addr, ifc.PeerAddr)
		}
	}
	return out
}

// components labels nodes by connected component over unfailed virtual
// links — the ground truth the reachability checks compare against.
func (o *overlay) components() []int {
	parent := make([]int, len(o.vnode))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i, l := range o.links {
		if !o.vls[i].Failed() {
			parent[find(l.a)] = find(l.b)
		}
	}
	out := make([]int, len(o.vnode))
	for i := range out {
		out[i] = find(i)
	}
	return out
}
