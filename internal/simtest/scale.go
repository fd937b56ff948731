package simtest

// The scale regime: hundreds of concurrent slices embedded on a
// REPETITA-format topology (synthetic by default, external files
// optionally), each slice a small overlay along one demand's shortest
// path, driven by demand-matrix traffic. This is the regime the
// address-plan allocator exists for — 126 slices was the old ceiling —
// and the regime where the parallel executor earns its keep, so the
// whole scenario carries the same determinism obligations as runBase:
// every digest byte-identical for any worker count.

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
	// workers is the executor's worker budget, exactly as in baseOptions.
	workers int
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

// scaleSlice is one embedded slice: the path's virtual links at cost
// 1, then — on slices of three hops or more — a first-last chord at
// cost 64, so vls[0] can fail without partitioning the overlay.
type scaleSlice struct {
	*overlay
	rate float64
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
	w := newWorld("scale", &res.Outcome, opts.Seed, opts.workers)

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
		links := make([]genLink, 0, len(hops))
		for i := 0; i+1 < len(hops); i++ {
			links = append(links, genLink{a: i, b: i + 1, cost: 1})
		}
		if len(hops) >= 3 {
			links = append(links, genLink{a: 0, b: len(hops) - 1, cost: 64})
		}
		o, err := w.embed(core.SliceConfig{
			Name: name, CPUShare: cpuShare,
			MaxNodes: len(hops), MaxLinks: len(hops),
		}, hops, links)
		if err != nil {
			return nil, fmt.Errorf("simtest: scale slice %s: %w", name, err)
		}
		s := o.slice
		s.StartOSPF(2*time.Second, 6*time.Second)
		w.fold("slice %s id=%d prefix=%s ports=%s hops=%v",
			name, s.ID(), s.Prefix(), s.PortRange(), hops)
		slices = append(slices, &scaleSlice{overlay: o, rate: d.RateBps})
		res.VNodes += len(o.vnode)
	}
	w.note("embedded %d slices (%d vnodes) on %d nodes / %d links",
		len(slices), res.VNodes, res.Nodes, res.Links)
	w.baseline()

	allVN := make([]*core.VirtualNode, 0, res.VNodes)
	for _, ss := range slices {
		allVN = append(allVN, ss.vnode...)
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

	stable("converge")
	bad := 0
	for _, ss := range slices {
		bad += w.check("converge: slice "+ss.slice.Name(), ss.overlay, ss.addrs())
	}
	w.fold("converge walks bad=%d", bad)

	// Virtual-link flap cycles on chord-protected slices: the overlay
	// must reconverge around the failed link (via the chord) and back.
	eligible := make([]*scaleSlice, 0, len(slices))
	for _, ss := range slices {
		if len(ss.vnode) >= 3 {
			eligible = append(eligible, ss)
		}
	}
	rng := sim.NewRNG(opts.Seed ^ 0x5ca1e)
	for f := 0; f < scaleFlaps && len(eligible) > 0; f++ {
		ss := eligible[rng.Intn(len(eligible))]
		ss.vls[0].SetFailed(true)
		stable(fmt.Sprintf("flap%d-down", f))
		w.check(fmt.Sprintf("flap%d: slice %s", f, ss.slice.Name()), ss.overlay, ss.addrs())
		ss.vls[0].SetFailed(false)
		stable(fmt.Sprintf("flap%d-up", f))
		w.fold("flap%d slice=%s fib=%016x", f, ss.slice.Name(), fibFingerprint(ss.vnode))
	}

	// Demand-driven traffic: one CBR flow per slice between its first
	// and last virtual node taps, at the demand's rate scaled down so
	// hundreds of concurrent flows stay tractable.
	flowMat := &topology.DemandMatrix{}
	endpoints := make(map[string]*core.VirtualNode, 2*len(slices))
	for _, ss := range slices {
		src, dst := ss.slice.Name()+"/src", ss.slice.Name()+"/dst"
		endpoints[src] = ss.vnode[0]
		endpoints[dst] = ss.vnode[len(ss.vnode)-1]
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
		prefix, ports := ss.slice.Prefix(), ss.slice.PortRange()
		if err := ss.slice.Destroy(); err != nil {
			w.violate("churn destroy %s: %v", ss.slice.Name(), err)
			continue
		}
		s2, err := w.createSlice(core.SliceConfig{
			Name: ss.slice.Name() + "r", CPUShare: cpuShare,
			MaxNodes: len(ss.vnode), MaxLinks: len(ss.vnode)})
		if err != nil {
			w.violate("churn readmit %s: %v", ss.slice.Name(), err)
			continue
		}
		if s2.Prefix() != prefix || s2.PortRange() != ports {
			w.violate("churn readmit %s got %v/%v, want LIFO reuse of %v/%v",
				s2.Name(), s2.Prefix(), s2.PortRange(), prefix, ports)
		}
		w.fold("churn %s -> %s prefix=%s ports=%s", ss.slice.Name(), s2.Name(), s2.Prefix(), s2.PortRange())
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
