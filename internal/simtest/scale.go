package simtest

// The scale regime: hundreds of concurrent slices embedded on a
// REPETITA-format topology (synthetic by default, external files
// optionally), each slice a small overlay along one demand's shortest
// path, driven by demand-matrix traffic. This is the regime the
// address-plan allocator exists for — 126 slices was the old ceiling —
// and the regime where the parallel executor earns its keep, so the
// whole scenario carries the same determinism obligations as Run: every
// digest byte-identical for any worker count.

import (
	"fmt"
	"net/netip"
	"time"

	"vini/internal/core"
	"vini/internal/netem"
	"vini/internal/sim"
	"vini/internal/topology"
	"vini/internal/traffic"
)

// ScaleOptions configures one scale scenario.
type ScaleOptions struct {
	Seed int64
	// Nodes sizes the synthetic substrate (default 64); ignored when
	// GraphText is given.
	Nodes int
	// Slices is the concurrent slice count (default 200).
	Slices int
	// Workers is the executor's worker budget, exactly as in Options.
	Workers int
	// GraphText/DemandsText carry external REPETITA file contents;
	// both empty selects the pinned synthetic scenario.
	GraphText   string
	DemandsText string
}

const (
	// scaleFlaps is the number of virtual-link failure/recovery cycles.
	scaleFlaps = 2
	// scaleWindow is the demand-traffic measurement window.
	scaleWindow = 5 * time.Second
)

// ScaleResult is everything one scale scenario produced. Digest folds
// embeddings, FIB fingerprints per phase, traffic counts and violations.
type ScaleResult struct {
	Outcome
	Nodes  int
	Links  int
	Slices int
	VNodes int
	Flows  int
	// Sent/Delivered count demand datagrams; OfferedBps the scaled load.
	Sent       uint64
	Delivered  uint64
	OfferedBps float64
}

// scaleSlice is one embedded slice and its invariant-checking state.
type scaleSlice struct {
	s     *core.Slice
	hops  []string
	vns   []*core.VirtualNode
	owner map[netip.Addr]int
	// chord is the redundant first-last virtual link (nil for 2-node
	// slices), the one whose middle links can fail without partition.
	chord *core.VirtualLink
	// mid is the failable virtual link (between hops 0 and 1).
	mid  *core.VirtualLink
	rate float64
}

// walk checks loop-freedom and reachability inside the slice: every
// ordered (src, dst-tap) pair must walk the next-hop graph to delivery
// without cycling; failed is called for each pair that does not.
func (ss *scaleSlice) walk(failed func(s, d int, r walkResult, path string)) {
	for d, dvn := range ss.vns {
		for s := range ss.vns {
			if s == d {
				continue
			}
			if r, path := walkFIB(ss.vns, ss.owner, s, dvn.TapAddr); r != walkDelivered {
				failed(s, d, r, path)
			}
		}
	}
}

// maxScaleHops caps each slice's path length: slices are deliberately
// small so hundreds fit, and a 6-hop overlay exercises multi-hop
// forwarding plenty.
const maxScaleHops = 6

// maxScaleNodes is the largest substrate RunScale builds: scaleAddr
// numbers 200 rows of 200 hosts.
const maxScaleNodes = 200 * 200

// scaleAddr is the address of the i-th substrate node,
// 198.18.(1+i/200).(1+i%200). For 0 <= i < maxScaleNodes the addresses
// are distinct, none is a .0 or .255 host, and all sit in the
// benchmarking block 198.18.0.0/16; RunScale refuses a larger topology
// rather than number past it.
func scaleAddr(i int, _ string) netip.Addr {
	return netip.AddrFrom4([4]byte{198, 18, byte(1 + i/200), byte(1 + i%200)})
}

// RunScale executes one seeded scale scenario end to end.
func RunScale(opts ScaleOptions) (*ScaleResult, error) {
	if opts.Nodes == 0 {
		opts.Nodes = 64
	}
	if opts.Slices == 0 {
		opts.Slices = 200
	}
	graphText, demandsText := opts.GraphText, opts.DemandsText
	if graphText == "" {
		demandCount := opts.Slices
		if demandCount < 64 {
			demandCount = 64
		}
		graphText, demandsText = topology.SynthRepetita(opts.Nodes, demandCount, opts.Seed)
	}
	g, names, err := topology.ParseRepetita(graphText)
	if err != nil {
		return nil, err
	}
	if len(names) > maxScaleNodes {
		return nil, fmt.Errorf("simtest: scale topology has %d nodes, scaleAddr numbers at most %d", len(names), maxScaleNodes)
	}
	mat, err := topology.ParseRepetitaDemands(demandsText, names)
	if err != nil {
		return nil, err
	}
	if !g.Connected(nil) {
		return nil, fmt.Errorf("simtest: scale topology not connected")
	}
	if len(mat.Demands) == 0 {
		return nil, fmt.Errorf("simtest: scale demand matrix empty")
	}

	res := &ScaleResult{Nodes: len(names), Links: len(g.Links()), Slices: opts.Slices}
	w := newWorld("scale", &res.Outcome, opts.Seed, opts.Workers)

	// Substrate: one physical node per topology node in REPETITA file
	// order, link parameters verbatim.
	if err := w.vini.AddTopology(names, g.Links(), netem.DETERProfile(), scaleAddr); err != nil {
		return nil, err
	}

	// Embed one slice per demand (cycling if the matrix is short): the
	// demand's shortest path, capped at maxScaleHops, with a redundant
	// first-last chord on >= 3-hop slices so one virtual link can fail
	// without partitioning the overlay.
	spCache := make(map[string]map[string]topology.Path)
	paths := func(src string) map[string]topology.Path {
		if p, ok := spCache[src]; ok {
			return p
		}
		p := g.ShortestPaths(src, nil)
		spCache[src] = p
		return p
	}
	const cpuShare = 0.001
	slices := make([]*scaleSlice, 0, opts.Slices)
	di := 0
	for len(slices) < opts.Slices {
		if di >= 4*opts.Slices+len(mat.Demands) {
			return nil, fmt.Errorf("simtest: demand matrix yields too few usable paths (%d of %d slices)",
				len(slices), opts.Slices)
		}
		d := mat.Demands[di%len(mat.Demands)]
		di++
		p, ok := paths(d.Src)[d.Dst]
		if !ok || len(p.Hops) < 2 {
			continue
		}
		hops := p.Hops
		if len(hops) > maxScaleHops {
			hops = hops[:maxScaleHops]
		}
		name := fmt.Sprintf("s%04d", len(slices))
		s, err := w.createSlice(core.SliceConfig{
			Name: name, CPUShare: cpuShare,
			MaxNodes: len(hops), MaxLinks: len(hops),
		})
		if err != nil {
			return nil, fmt.Errorf("simtest: scale slice %d: %w", len(slices), err)
		}
		ss := &scaleSlice{s: s, hops: hops, rate: d.RateBps, owner: make(map[netip.Addr]int)}
		for _, h := range hops {
			vn, err := s.AddVirtualNode(h)
			if err != nil {
				return nil, fmt.Errorf("simtest: scale slice %s on %s: %w", name, h, err)
			}
			ss.vns = append(ss.vns, vn)
		}
		for i := 0; i+1 < len(hops); i++ {
			vl, err := s.ConnectVirtual(hops[i], hops[i+1], 1)
			if err != nil {
				return nil, err
			}
			if i == 0 {
				ss.mid = vl
			}
		}
		if len(hops) >= 3 {
			vl, err := s.ConnectVirtual(hops[0], hops[len(hops)-1], 64)
			if err != nil {
				return nil, err
			}
			ss.chord = vl
		}
		for i, vn := range ss.vns {
			ss.owner[vn.TapAddr] = i
			for _, ifc := range vn.Interfaces() {
				ss.owner[ifc.Addr] = i
			}
		}
		s.StartOSPF(2*time.Second, 6*time.Second)
		w.fold("slice %s id=%d prefix=%s ports=%s hops=%v",
			name, s.ID(), s.Prefix(), s.PortRange(), hops)
		slices = append(slices, ss)
		res.VNodes += len(ss.vns)
	}
	w.note("embedded %d slices (%d vnodes) on %d nodes / %d links",
		len(slices), res.VNodes, res.Nodes, res.Links)
	w.baseline()

	allVN := make([]*core.VirtualNode, 0, res.VNodes)
	for _, ss := range slices {
		allVN = append(allVN, ss.vns...)
	}
	// The settle window (8 x 1s) must exceed the OSPF dead interval:
	// after a link flap nothing in any FIB moves until a dead timer
	// fires, and declaring quiescence inside that silence would check
	// invariants against pre-reconvergence state.
	stable := func(phase string) {
		took, ok := w.stable(allVN, time.Second, 240*time.Second, 8)
		if !ok {
			w.violate("%s: FIBs did not quiesce within 240s", phase)
		}
		w.fold("%s stable took=%v fib=%016x", phase, took, fibFingerprint(allVN))
	}
	// walkAll checks per-slice loop-freedom and reachability: every
	// ordered (src, dst-tap) pair inside each slice must walk the
	// next-hop graph to delivery without cycling.
	walkAll := func(phase string) {
		bad := 0
		for _, ss := range slices {
			ss.walk(func(s, d int, r walkResult, path string) {
				if bad++; bad <= 5 {
					w.violate("%s: slice %s walk %d->%d: %v (%s)", phase, ss.s.Name(), s, d, r, path)
				}
			})
		}
		if bad > 5 {
			w.violate("%s: %d total failed walks", phase, bad)
		}
		w.fold("%s walks bad=%d", phase, bad)
	}

	stable("converge")
	walkAll("converge")
	// Control-plane consistency on every vnode: protocol vs RIB vs FIB,
	// plus the Click cache audit.
	for _, ss := range slices {
		for i, vn := range ss.vns {
			if err := vn.RIB().Verify(); err != nil {
				w.violate("slice %s n%d RIB vs FIB: %v", ss.s.Name(), i, err)
			}
			if err := vn.Router.Audit(); err != nil {
				w.violate("slice %s n%d click audit: %v", ss.s.Name(), i, err)
			}
		}
	}

	// Virtual-link flap cycles on chord-protected slices: the overlay
	// must reconverge around the failed link (via the chord) and back.
	eligible := make([]*scaleSlice, 0, len(slices))
	for _, ss := range slices {
		if ss.chord != nil {
			eligible = append(eligible, ss)
		}
	}
	rng := sim.NewRNG(opts.Seed ^ 0x5ca1e)
	for f := 0; f < scaleFlaps && len(eligible) > 0; f++ {
		ss := eligible[rng.Intn(len(eligible))]
		ss.mid.SetFailed(true)
		stable(fmt.Sprintf("flap%d-down", f))
		ss.walk(func(s, d int, r walkResult, path string) {
			w.violate("flap%d: slice %s lost %d->%d with chord up: %v (%s)", f, ss.s.Name(), s, d, r, path)
		})
		ss.mid.SetFailed(false)
		stable(fmt.Sprintf("flap%d-up", f))
		w.fold("flap%d slice=%s fib=%016x", f, ss.s.Name(), fibFingerprint(ss.vns))
	}

	// Demand-driven traffic: one CBR flow per slice between its first
	// and last virtual node taps, at the demand's rate scaled down so
	// hundreds of concurrent flows stay tractable.
	flowMat := &topology.DemandMatrix{}
	endpoints := make(map[string]*core.VirtualNode, 2*len(slices))
	for _, ss := range slices {
		src, dst := ss.s.Name()+"/src", ss.s.Name()+"/dst"
		endpoints[src] = ss.vns[0]
		endpoints[dst] = ss.vns[len(ss.vns)-1]
		flowMat.Demands = append(flowMat.Demands, topology.Demand{
			Src: src, Dst: dst, RateBps: ss.rate})
	}
	flows, err := traffic.StartDemands(w.vini.Net, flowMat,
		func(name string) (*netem.Node, netip.Addr, bool) {
			vn, ok := endpoints[name]
			if !ok {
				return nil, netip.Addr{}, false
			}
			return vn.Phys(), vn.TapAddr, true
		},
		traffic.DemandConfig{Scale: 0.05, Payload: 256})
	if err != nil {
		return nil, err
	}
	res.Flows = len(flows.Flows)
	res.OfferedBps = flows.OfferedBps
	w.run(scaleWindow)
	flows.Stop()
	// Drain in-flight datagrams, then every sent packet must have
	// arrived: the overlay was converged and loop-free, so loss would
	// mean a forwarding or scheduling defect.
	for i := 0; i < 60 && flows.Delivered() != flows.Sent(); i++ {
		w.run(250 * time.Millisecond)
	}
	res.Sent, res.Delivered = flows.Sent(), flows.Delivered()
	if res.Sent == 0 {
		w.violate("traffic: no datagrams sent in %v window", scaleWindow)
	}
	if res.Delivered != res.Sent {
		w.violate("traffic: delivered %d of %d demand datagrams", res.Delivered, res.Sent)
	}
	w.note("traffic: %d flows, %.1f kbps offered, %d sent / %d delivered",
		res.Flows, res.OfferedBps/1000, res.Sent, res.Delivered)
	w.fold("traffic flows=%d offered=%.0f sent=%d delivered=%d",
		res.Flows, res.OfferedBps, res.Sent, res.Delivered)

	// Churn tail: destroy a handful of slices, audit the books, and
	// re-admit the same shapes — the allocator must hand the released
	// blocks straight back (LIFO), at full scale.
	tail := 4
	if tail > len(slices) {
		tail = len(slices)
	}
	for i := len(slices) - tail; i < len(slices); i++ {
		ss := slices[i]
		prefix, ports := ss.s.Prefix(), ss.s.PortRange()
		if err := ss.s.Destroy(); err != nil {
			w.violate("churn destroy %s: %v", ss.s.Name(), err)
			continue
		}
		s2, err := w.createSlice(core.SliceConfig{
			Name: ss.s.Name() + "r", CPUShare: cpuShare,
			MaxNodes: len(ss.hops), MaxLinks: len(ss.hops)})
		if err != nil {
			w.violate("churn readmit %s: %v", ss.s.Name(), err)
			continue
		}
		if s2.Prefix() != prefix || s2.PortRange() != ports {
			w.violate("churn readmit %s got %v/%v, want LIFO reuse of %v/%v",
				s2.Name(), s2.Prefix(), s2.PortRange(), prefix, ports)
		}
		w.fold("churn %s -> %s prefix=%s ports=%s", ss.s.Name(), s2.Name(), s2.Prefix(), s2.PortRange())
		if err := s2.Destroy(); err != nil {
			w.violate("churn re-destroy %s: %v", s2.Name(), err)
		}
	}

	// Final accounting: the packet pool, then — with the demand
	// receivers closed — every ledger the kernel audits.
	w.settle("end of scale run")
	flows.Close()
	w.audit("end of scale run")
	w.finish("nodes=%d slices=%d vnodes=%d flows=%d sent=%d delivered=%d",
		res.Nodes, res.Slices, res.VNodes, res.Flows, res.Sent, res.Delivered)
	return res, nil
}
