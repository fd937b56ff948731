package main

// The five worlds. Each is built straight through the exported
// functions of core, netem, topology and traffic — never through a
// simtest runner, whose stability polling and invariant checks are the
// harness time this benchmark exists to keep out of the numbers.

import (
	"fmt"
	"net/netip"
	"time"

	"vini/internal/core"
	"vini/internal/netem"
	"vini/internal/sched"
	"vini/internal/topology"
	"vini/internal/traffic"
)

// world is one built scenario plus the handles the timed region, the
// statistics block and the correctness gate need.
type world struct {
	v      *core.VINI
	slices []*core.Slice
	vnodes []*core.VirtualNode
	// flappable holds the first virtual link of every chord-protected
	// slice (scale worlds only): the links the flap phase toggles.
	flappable []*core.VirtualLink
	// traffic tools, exactly one kind per world.
	cbr   []*traffic.UDPCBR
	tcp   []*traffic.IperfTCP
	flows *traffic.DemandFlows
	// payload is the UDP payload of the world's datagram flows.
	payload int
}

// cbrPairs are the per-slice cross-country flows of the
// BENCH_parallel.json world: four disjoint source/sink PoP pairs.
var cbrPairs = [][2]string{
	{topology.Washington, topology.Seattle},
	{topology.NewYork, topology.LosAngeles},
	{topology.Chicago, topology.Houston},
	{topology.Atlanta, topology.Sunnyvale},
}

func newEngine(seed int64, domains bool, workers int) *core.VINI {
	if domains {
		return core.NewParallel(seed, workers)
	}
	return core.New(seed)
}

// buildAbilene assembles the paper's §5.2 deployment as
// BENCH_parallel.json runs it: the 11-PoP Abilene substrate under the
// PlanetLab profile carrying four IIAS slices, each mirroring the
// physical topology with its own OSPF instance (5 s hello, 10 s dead),
// and one traffic tool per slice on its cbrPairs entry — a 10 Mb/s UDP
// CBR flow, or with tcp set an iperf -P 20 bulk transfer.
func buildAbilene(tr *tracer, v *core.VINI, tcp bool) (*world, error) {
	w := &world{v: v, payload: 1430}
	g := topology.Abilene()
	sp := tr.begin("netem.build", "netem")
	for _, pop := range g.Nodes() {
		addr, _ := topology.AbilenePublicAddr(pop)
		if _, err := v.AddNode(pop, netip.MustParseAddr(addr),
			netem.PlanetLabProfile(), sched.Options{}); err != nil {
			return nil, err
		}
	}
	for _, l := range g.Links() {
		if _, err := v.AddLink(netem.LinkConfig{A: l.A, B: l.B,
			Bandwidth: l.Bandwidth, Delay: l.Delay}); err != nil {
			return nil, err
		}
	}
	v.ComputeRoutes()
	tr.end(sp)
	for i, pair := range cbrPairs {
		sp := tr.begin("core.CreateSlice", "core")
		s, err := v.CreateSlice(core.SliceConfig{
			Name: fmt.Sprintf("slice%d", i), CPUShare: 0.2})
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		w.slices = append(w.slices, s)
		for _, pop := range g.Nodes() {
			sp := tr.begin("core.AddVirtualNode", "core")
			vn, err := s.AddVirtualNode(pop)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			w.vnodes = append(w.vnodes, vn)
		}
		for _, l := range g.Links() {
			sp := tr.begin("core.ConnectVirtual", "core")
			_, err := s.ConnectVirtual(l.A, l.B, l.CostAB)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
		}
		sp = tr.begin("core.StartOSPF", "core")
		s.StartOSPF(5*time.Second, 10*time.Second)
		tr.end(sp)
		src, _ := s.VirtualNode(pair[0])
		dst, _ := s.VirtualNode(pair[1])
		sp = tr.begin("traffic.start", "traffic")
		if tcp {
			t, err := traffic.StartIperfTCP(v.Net, src.Phys(), dst.Phys(), traffic.IperfTCPConfig{
				Streams: 20, BasePort: uint16(5001 + 100*i),
				SrcAddr: src.TapAddr, DstAddr: dst.TapAddr})
			if err != nil {
				return nil, err
			}
			w.tcp = append(w.tcp, t)
		} else {
			c, err := traffic.StartUDPCBR(v.Net, src.Phys(), dst.Phys(), traffic.UDPCBRConfig{
				RateBps: 10e6, Port: uint16(5001 + i),
				SrcAddr: src.TapAddr, DstAddr: dst.TapAddr})
			if err != nil {
				return nil, err
			}
			w.cbr = append(w.cbr, c)
		}
		tr.end(sp)
	}
	return w, nil
}

// maxScaleHops caps each scale slice's path length, as the
// BENCH_scale.json construction does.
const maxScaleHops = 6

// scaleTopologySeed pins the scale worlds' substrate and demand matrix
// (2 is BENCH_scale.json's seed). The workload seed still seeds the
// engine — OSPF start phases, every per-domain RNG stream — but does not
// redraw the topology: across topologies wall time spreads by about
// 16 % and allocations by 4 %, which would swamp the regression bounds
// when the driver takes medians over runs with different seeds.
const scaleTopologySeed = 2

// buildScale assembles the BENCH_scale.json construction: a 64-node
// synthetic REPETITA substrate under the DETER profile, one small
// slice per demand along its shortest path (capped at maxScaleHops,
// with a cost-64 first–last chord on slices of three or more hops so a
// virtual link can fail without partitioning the overlay), OSPF at
// 2 s/6 s, and one demand-matrix CBR flow per slice started at t=0.
func buildScale(tr *tracer, v *core.VINI, nSlices int) (*world, error) {
	w := &world{v: v, payload: 256}
	sp := tr.begin("topology.synth", "topology")
	demandCount := nSlices
	if demandCount < 64 {
		demandCount = 64
	}
	graphText, demandsText := topology.SynthRepetita(64, demandCount, scaleTopologySeed)
	g, names, err := topology.ParseRepetita(graphText)
	if err != nil {
		return nil, err
	}
	mat, err := topology.ParseRepetitaDemands(demandsText, names)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("netem.build", "netem")
	prof := netem.DETERProfile()
	for i, name := range names {
		addr := netip.AddrFrom4([4]byte{198, 18, byte(1 + i/200), byte(1 + i%200)})
		if _, err := v.AddNode(name, addr, prof, sched.Options{}); err != nil {
			return nil, err
		}
	}
	for _, l := range g.Links() {
		if _, err := v.AddLink(netem.LinkConfig{A: l.A, B: l.B,
			Bandwidth: l.Bandwidth, Delay: l.Delay}); err != nil {
			return nil, err
		}
	}
	v.ComputeRoutes()
	tr.end(sp)

	spCache := make(map[string]map[string]topology.Path)
	flowMat := &topology.DemandMatrix{}
	endpoints := make(map[string]*core.VirtualNode, 2*nSlices)
	for di := 0; len(w.slices) < nSlices; di++ {
		if di >= 4*nSlices+len(mat.Demands) {
			return nil, fmt.Errorf("demand matrix yields too few usable paths (%d of %d slices)",
				len(w.slices), nSlices)
		}
		d := mat.Demands[di%len(mat.Demands)]
		paths, ok := spCache[d.Src]
		if !ok {
			sp := tr.begin("topology.ShortestPaths", "topology")
			paths = g.ShortestPaths(d.Src, nil)
			tr.end(sp)
			spCache[d.Src] = paths
		}
		p, ok := paths[d.Dst]
		if !ok || len(p.Hops) < 2 {
			continue
		}
		hops := p.Hops
		if len(hops) > maxScaleHops {
			hops = hops[:maxScaleHops]
		}
		name := fmt.Sprintf("s%04d", len(w.slices))
		sp := tr.begin("core.CreateSlice", "core")
		s, err := v.CreateSlice(core.SliceConfig{Name: name, CPUShare: 0.001,
			MaxNodes: len(hops), MaxLinks: len(hops)})
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		w.slices = append(w.slices, s)
		first := len(w.vnodes)
		for _, h := range hops {
			sp := tr.begin("core.AddVirtualNode", "core")
			vn, err := s.AddVirtualNode(h)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			w.vnodes = append(w.vnodes, vn)
		}
		for i := 0; i+1 < len(hops); i++ {
			sp := tr.begin("core.ConnectVirtual", "core")
			vl, err := s.ConnectVirtual(hops[i], hops[i+1], 1)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			if i == 0 && len(hops) >= 3 {
				w.flappable = append(w.flappable, vl)
			}
		}
		if len(hops) >= 3 {
			sp := tr.begin("core.ConnectVirtual", "core")
			_, err := s.ConnectVirtual(hops[0], hops[len(hops)-1], 64)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
		}
		sp = tr.begin("core.StartOSPF", "core")
		s.StartOSPF(2*time.Second, 6*time.Second)
		tr.end(sp)
		endpoints[name+"/src"] = w.vnodes[first]
		endpoints[name+"/dst"] = w.vnodes[len(w.vnodes)-1]
		flowMat.Demands = append(flowMat.Demands, topology.Demand{
			Src: name + "/src", Dst: name + "/dst", RateBps: d.RateBps})
	}
	sp = tr.begin("traffic.start", "traffic")
	w.flows, err = traffic.StartDemands(v.Net, flowMat,
		func(name string) (*netem.Node, netip.Addr, bool) {
			vn, ok := endpoints[name]
			if !ok {
				return nil, netip.Addr{}, false
			}
			return vn.Phys(), vn.TapAddr, true
		},
		traffic.DemandConfig{Scale: 0.05, Payload: w.payload})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return w, nil
}

// traffic totals: datagrams for the UDP worlds, data segments for TCP
// (delivered = segments the receivers accepted, sent = those plus the
// senders' retransmissions), and in-order payload bytes delivered.
func (w *world) trafficTotals() (sent, delivered, bytes uint64) {
	for _, c := range w.cbr {
		sent += uint64(c.Sent())
		delivered += uint64(c.Received())
	}
	if w.flows != nil {
		sent += w.flows.Sent()
		delivered += w.flows.Delivered()
	}
	bytes = delivered * uint64(w.payload)
	for _, t := range w.tcp {
		for _, r := range t.Receivers() {
			delivered += uint64(len(r.Arrivals))
			bytes += r.Bytes
		}
		sent += t.Retransmits()
	}
	if len(w.tcp) > 0 {
		sent += delivered
	}
	return sent, delivered, bytes
}

// stopTraffic halts every sender; receivers keep listening so in-flight
// packets still land during the drain.
func (w *world) stopTraffic() {
	for _, c := range w.cbr {
		c.Stop()
	}
	for _, t := range w.tcp {
		t.Stop()
	}
	if w.flows != nil {
		w.flows.Stop()
	}
}

// closeTraffic releases every stack registration the tools hold.
func (w *world) closeTraffic() {
	for _, c := range w.cbr {
		c.Close()
	}
	for _, t := range w.tcp {
		t.Close()
	}
	if w.flows != nil {
		w.flows.Close()
	}
}
