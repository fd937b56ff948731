// Package fea is the Forwarding Engine Abstraction: the layer through
// which routing processes (internal/ospf, internal/rip, internal/bgp)
// manipulate forwarding state, as XORP's FEA does for the Click data
// plane (Section 4.2.2 of the paper). It contains a small RIB that
// merges the routes of several protocols by administrative distance and
// pushes the winners into the slice's Click FIB atomically.
package fea

import (
	"fmt"
	"net/netip"
	"slices"
	"sync"

	"vini/internal/fib"
)

// Administrative distances, matching common router defaults.
const (
	DistConnected = 0
	DistStatic    = 1
	DistEBGP      = 20
	DistOSPF      = 110
	DistRIP       = 120
)

// protoRoute is a route candidate contributed by one protocol.
type protoRoute struct {
	fib.Route
	dist int
}

// RIB merges per-protocol route sets and installs winners into a FIB.
type RIB struct {
	mu     sync.Mutex
	target *fib.Table
	// byProto holds each protocol's latest full announcement.
	byProto map[string][]protoRoute
	// preferred, when set, beats administrative distance — the atomic
	// switchover lever ("controlling the forwarding tables ... in one
	// virtual network at any given time, with atomic switchover").
	preferred string
	// onInstall observes FIB installs (telemetry hook): the protocol
	// that triggered the recompute and the number of routes now
	// installed. Fired outside the mutex.
	onInstall func(proto string, n int)
	// best and routes are recompute's working storage; routes stays the
	// set last handed to the FIB.
	best   map[netip.Prefix]protoRoute
	routes []fib.Route
}

// OnInstall registers an observer called after every FIB recompute with
// the triggering protocol and the resulting installed-route count. The
// callback runs outside the RIB lock, in the caller's clock domain.
func (r *RIB) OnInstall(fn func(proto string, n int)) { r.onInstall = fn }

// NewRIB returns a RIB feeding target.
func NewRIB(target *fib.Table) *RIB {
	return &RIB{target: target, byProto: make(map[string][]protoRoute), best: make(map[netip.Prefix]protoRoute)}
}

// SetRoutes replaces proto's entire route set (protocols recompute whole
// tables — OSPF after SPF, RIP after a periodic update) and recomputes
// the FIB. dist is the protocol's administrative distance. routes is
// lent for the call. A set equal to the one proto already holds leaves
// the merge and the FIB alone; the install observer hears of it all the
// same.
func (r *RIB) SetRoutes(proto string, dist int, routes []fib.Route) {
	r.mu.Lock()
	prs := r.byProto[proto]
	same := len(prs) == len(routes)
	for i := 0; same && i < len(prs); i++ {
		rt := routes[i]
		rt.Proto = proto
		same = prs[i].Route == rt && prs[i].dist == dist
	}
	if !same {
		prs = prs[:0]
		for _, rt := range routes {
			rt.Proto = proto
			prs = append(prs, protoRoute{Route: rt, dist: dist})
		}
		r.byProto[proto] = prs
		r.recompute()
	}
	n := len(r.routes)
	fn := r.onInstall
	r.mu.Unlock()
	if fn != nil {
		fn(proto, n)
	}
}

// Prefer makes proto win route selection regardless of administrative
// distance (empty string restores normal selection). The change applies
// atomically across the whole table.
func (r *RIB) Prefer(proto string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.preferred = proto
	r.recompute()
}

// recompute picks, per prefix, the route with the lowest administrative
// distance (metric breaks ties, then protocol name for determinism) and
// atomically replaces the FIB contents with them (r.routes).
func (r *RIB) recompute() {
	best := r.best
	clear(best)
	for _, prs := range r.byProto {
		for _, pr := range prs {
			key := pr.Prefix.Masked()
			cur, ok := best[key]
			if !ok || r.better(pr, cur) {
				best[key] = pr
			}
		}
	}
	routes := r.routes[:0]
	for _, pr := range best {
		routes = append(routes, pr.Route)
	}
	slices.SortFunc(routes, func(a, b fib.Route) int { return fib.PrefixTextCompare(a.Prefix, b.Prefix) })
	r.routes = routes
	r.target.Replace("rib", routes)
}

func (r *RIB) better(pr, other protoRoute) bool {
	if r.preferred != "" {
		// "connected" still wins (a directly attached subnet is never
		// reached through a protocol route), then the preference.
		if (pr.dist == DistConnected) != (other.dist == DistConnected) {
			return pr.dist == DistConnected
		}
		if (pr.Proto == r.preferred) != (other.Proto == r.preferred) {
			return pr.Proto == r.preferred
		}
	}
	if pr.dist != other.dist {
		return pr.dist < other.dist
	}
	if pr.Metric != other.Metric {
		return pr.Metric < other.Metric
	}
	return pr.Proto < other.Proto
}

// ProtoRoutes returns a copy of proto's latest full announcement as
// held by the RIB, for consistency checks against the protocol's own
// view.
func (r *RIB) ProtoRoutes(proto string) []fib.Route {
	r.mu.Lock()
	defer r.mu.Unlock()
	prs := r.byProto[proto]
	out := make([]fib.Route, len(prs))
	for i, pr := range prs {
		out[i] = pr.Route
	}
	return out
}

// Verify re-runs route selection and checks the target FIB holds
// exactly the winners (owner "rib"), i.e. no installation was lost or
// reordered between the RIB and the data plane. It returns a
// description of the first mismatch.
func (r *RIB) Verify() error {
	r.mu.Lock()
	best := make(map[netip.Prefix]protoRoute)
	for _, prs := range r.byProto {
		for _, pr := range prs {
			key := pr.Prefix.Masked()
			cur, ok := best[key]
			if !ok || r.better(pr, cur) {
				best[key] = pr
			}
		}
	}
	r.mu.Unlock()
	installed := make(map[netip.Prefix]fib.Route)
	for _, rt := range r.target.Routes() {
		if rt.Owner != "rib" {
			continue
		}
		installed[rt.Prefix.Masked()] = rt
	}
	for key, pr := range best {
		got, ok := installed[key]
		if !ok {
			return fmt.Errorf("fea: winner %v (%s) missing from FIB", pr.Route, pr.Proto)
		}
		want := pr.Route
		want.Owner = "rib"
		want.Prefix = want.Prefix.Masked()
		if got != want {
			return fmt.Errorf("fea: FIB has %v for %v, RIB selected %v", got, key, want)
		}
		delete(installed, key)
	}
	for _, rt := range installed {
		return fmt.Errorf("fea: FIB route %v has no RIB winner", rt)
	}
	return nil
}
