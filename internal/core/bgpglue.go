package core

import (
	"fmt"
	"net/netip"

	"vini/internal/bgp"
	"vini/internal/fea"
	"vini/internal/fib"
	"vini/internal/iias"
	"vini/internal/telemetry"
)

// ConnectBGP attaches the slice to a BGP multiplexer (Section 6.1): the
// slice's public prefix is announced upstream through the mux's single
// external adjacency, and externally learned routes are redistributed
// into every virtual node's RIB. This is Section 3.2's second routing
// problem — "discovering routes to external destinations" — solved the
// way real routers do:
//
//   - on the egress node, an external prefix forwards into the NAT exit;
//   - on every other node, the BGP route's next hop is the egress node's
//     overlay address, which is *recursively resolved* through the IGP's
//     current best path, and re-resolved whenever the IGP reconverges
//     (so an external route follows intra-overlay failover automatically).
//
// Call after the virtual topology is built and egress has EnableEgress.
func (s *Slice) ConnectBGP(mux *bgp.Mux, egress string, publicPrefix netip.Prefix, rate, burst float64) error {
	evn, ok := s.vnodes[egress]
	if !ok {
		return fmt.Errorf("core: no virtual node on %q", egress)
	}
	if err := mux.Register(s.cfg.Name, publicPrefix, rate, burst); err != nil {
		return err
	}
	if err := mux.Announce(s.cfg.Name, publicPrefix, bgp.PathAttrs{
		NextHop: evn.phys.Addr(),
	}); err != nil {
		return err
	}
	if tel := s.vini.tel; tel != nil {
		// The mux speaker is clocked on the control loop at every call
		// site (NewMux(v.Loop(), ...)), so session events record into
		// the control ring.
		mux.Speaker().OnEvent(func(peer, event string) {
			tel.Rec.Record(s.vini.loop.Domain, telemetry.Event{
				Kind:   telemetry.EvSession,
				Slice:  s.cfg.Name,
				Elem:   "bgp",
				Node:   peer,
				Detail: event,
			})
		})
	}
	// Redistribute the shared external view into every virtual node.
	mux.Speaker().OnRoutes(func(external []fib.Route) {
		for _, name := range s.vorder {
			vn := s.vnodes[name]
			var raw []fib.Route
			for _, r := range external {
				if vn == evn {
					raw = append(raw, fib.Route{Prefix: r.Prefix, OutPort: iias.PortNAPT, Metric: r.Metric})
				} else {
					raw = append(raw, fib.Route{Prefix: r.Prefix, NextHop: evn.TapAddr, Metric: r.Metric})
				}
			}
			vn.setBGPRoutes(raw)
		}
	})
	return nil
}

// setBGPRoutes stores unresolved BGP routes and resolves them against
// the current IGP state.
func (vn *VirtualNode) setBGPRoutes(raw []fib.Route) {
	vn.bgpRaw = raw
	vn.bgpAttached = true
	vn.resolveBGP()
}

// resolveBGP performs recursive next-hop resolution: a BGP route whose
// next hop is another overlay address adopts the forwarding state of
// the IGP route currently reaching that address. Unresolvable routes
// are withheld from the FIB (the BGP next hop is unreachable).
func (vn *VirtualNode) resolveBGP() {
	if !vn.bgpAttached {
		return
	}
	resolved := make([]fib.Route, 0, len(vn.bgpRaw))
	for _, r := range vn.bgpRaw {
		if !r.NextHop.IsValid() {
			resolved = append(resolved, r) // egress-local (NAT) route
			continue
		}
		via, ok := vn.FIB.Lookup(r.NextHop)
		if !ok || !via.NextHop.IsValid() {
			continue // next hop unreachable right now
		}
		resolved = append(resolved, fib.Route{
			Prefix:  r.Prefix,
			NextHop: via.NextHop,
			OutPort: via.OutPort,
			Metric:  r.Metric,
		})
	}
	vn.RIB().SetRoutes("bgp", fea.DistEBGP, resolved)
}
