// Package experiment implements the paper's Section 5 evaluation as
// reusable, deterministic experiments, plus the ns-like experiment
// specification language of Section 6.2. Each function regenerates one
// table or figure; cmd/vinibench and the repository-level benchmarks are
// thin wrappers around them.
package experiment

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"vini/internal/core"
	"vini/internal/netem"
	"vini/internal/rcc"
	"vini/internal/sched"
	"vini/internal/sim"
	"vini/internal/telemetry"
	"vini/internal/topology"
	"vini/internal/traffic"
)

// Mode selects the environment of the PlanetLab microbenchmarks.
type Mode int

const (
	// ModeNative measures the underlying network (kernel forwarding).
	ModeNative Mode = iota
	// ModeDefaultShare runs IIAS with PlanetLab's default fair share.
	ModeDefaultShare
	// ModePLVINI runs IIAS with a 25% CPU reservation and real-time
	// priority — the PL-VINI configuration.
	ModePLVINI
)

// String names the mode as the paper's tables do.
func (m Mode) String() string {
	switch m {
	case ModeNative:
		return "Network"
	case ModeDefaultShare:
		return "IIAS on PlanetLab"
	case ModePLVINI:
		return "IIAS on PL-VINI"
	default:
		return "unknown"
	}
}

// ThroughputResult is a row of Tables 2 and 4.
type ThroughputResult struct {
	Name   string
	Mbps   float64
	Stddev float64
	// CPU is the forwarder's CPU fraction (Click process or kernel).
	CPU float64
}

// PingResult is a row of Tables 3 and 5 (milliseconds).
type PingResult struct {
	Name                string
	Min, Avg, Max, Mdev float64
	LossPct             float64
}

// JitterResult is a row of Table 6 (milliseconds).
type JitterResult struct {
	Name         string
	Mean, Stddev float64
}

// LossPoint is one point of Figure 6.
type LossPoint struct {
	RateMbps float64
	LossPct  float64
}

// RTTPoint is one ping sample of Figure 8.
type RTTPoint struct {
	T     float64 // seconds since measurement start
	RTTms float64
	Lost  bool
}

// ArrivalPoint is one received-data point of Figure 9.
type ArrivalPoint struct {
	T  float64 // seconds since measurement start
	MB float64 // cumulative megabytes (9a) or stream position (9b)
}

// --- DETER microbenchmarks (§5.1.1, Tables 2 and 3) ---

// deterNet builds the three pc2800 machines of Figure 3 joined by
// Gigabit Ethernet.
func deterNet(seed int64) (*core.VINI, *netem.Node, *netem.Node, *netem.Node) {
	v := core.New(seed)
	v.EnableTelemetry()
	prof := netem.DETERProfile()
	src, _ := v.AddNode("src", netip.MustParseAddr("192.168.1.1"), prof, sched.Options{})
	fwd, _ := v.AddNode("fwdr", netip.MustParseAddr("192.168.1.2"), prof, sched.Options{})
	dst, _ := v.AddNode("sink", netip.MustParseAddr("192.168.1.3"), prof, sched.Options{})
	// ~90µs propagation+NIC latency per link, with the small interrupt-
	// coalescing jitter the paper's mdev column (0.08-0.09 ms) shows.
	v.AddLink(netem.LinkConfig{A: "src", B: "fwdr", Bandwidth: 1e9,
		Delay: 70 * time.Microsecond, Jitter: 45 * time.Microsecond})
	v.AddLink(netem.LinkConfig{A: "fwdr", B: "sink", Bandwidth: 1e9,
		Delay: 70 * time.Microsecond, Jitter: 45 * time.Microsecond})
	v.ComputeRoutes()
	return v, src, fwd, dst
}

// deterIIAS overlays the Figure 4 topology: Click on all three nodes,
// dedicated hardware (full CPU available to the slice).
func deterIIAS(v *core.VINI) (*core.Slice, error) {
	s, err := v.CreateSlice(core.SliceConfig{Name: "iias", CPUShare: 1.0})
	if err != nil {
		return nil, err
	}
	for _, n := range []string{"src", "fwdr", "sink"} {
		if _, err := s.AddVirtualNode(n); err != nil {
			return nil, err
		}
	}
	if _, err := s.ConnectVirtual("src", "fwdr", 1); err != nil {
		return nil, err
	}
	if _, err := s.ConnectVirtual("fwdr", "sink", 1); err != nil {
		return nil, err
	}
	s.StartOSPF(time.Second, 3*time.Second)
	v.Run(10 * time.Second)
	return s, nil
}

// Table2 reproduces the DETER TCP throughput test: 20 parallel iperf
// streams through the kernel (overlay=false) or through IIAS's
// user-space Click forwarder (overlay=true). Reported CPU is the Fwdr's
// forwarding-path CPU.
func Table2(seed int64, overlay bool, duration time.Duration) (ThroughputResult, error) {
	v, src, fwd, dst := deterNet(seed)
	cfg := traffic.IperfTCPConfig{Streams: 20, Window: 64 << 10}
	name := "Network"
	var s *core.Slice
	if overlay {
		name = "IIAS"
		var err error
		s, err = deterIIAS(v)
		if err != nil {
			return ThroughputResult{}, err
		}
		a, _ := s.VirtualNode("src")
		b, _ := s.VirtualNode("sink")
		cfg.SrcAddr, cfg.DstAddr = a.TapAddr, b.TapAddr
	}
	// The CPU column reads from the telemetry registry: the counters
	// mirror the scheduler's own accounting increment-for-increment, so
	// a counter delta over the measurement window divided by the same
	// elapsed time is bit-identical to TaskUtilization/KernelUtilization.
	cpuCounter := v.Telemetry().Reg.FindCounter("phys", "fwdr", "kernel/cpu_ns")
	if overlay {
		cpuCounter = v.Telemetry().Reg.FindCounter("iias", "fwdr", "proc/cpu_ns")
	}
	start := v.Loop().Now()
	fwd.ResetAccounting()
	cpu0 := cpuCounter.Value()
	test, err := traffic.StartIperfTCP(v.Net, src, dst, cfg)
	if err != nil {
		return ThroughputResult{}, err
	}
	v.Run(start + duration)
	test.Stop()
	res := ThroughputResult{Name: name, Mbps: test.Mbps()}
	if elapsed := v.Loop().Now() - start; elapsed > 0 {
		res.CPU = float64(cpuCounter.Value()-cpu0) / float64(elapsed)
	}
	return res, nil
}

// Table3 reproduces the DETER latency test: ping -f between Src and Sink
// through the kernel or through IIAS.
func Table3(seed int64, overlay bool, count int) (PingResult, error) {
	v, src, _, dst := deterNet(seed)
	pingSrc, pingDst := src.Addr(), dst.Addr()
	name := "Network"
	if overlay {
		name = "IIAS"
		s, err := deterIIAS(v)
		if err != nil {
			return PingResult{}, err
		}
		a, _ := s.VirtualNode("src")
		b, _ := s.VirtualNode("sink")
		pingSrc, pingDst = a.TapAddr, b.TapAddr
	}
	traffic.NewICMPHost(dst)
	h := traffic.NewICMPHost(src)
	p := h.StartPing(traffic.PingConfig{Src: pingSrc, Dst: pingDst,
		Interval: time.Millisecond, Count: count})
	v.Run(v.Loop().Now() + time.Duration(count+2000)*time.Millisecond)
	return PingResult{Name: name,
		Min: p.RTTs.Min(), Avg: p.RTTs.Mean(), Max: p.RTTs.Max(),
		Mdev: p.RTTs.Mdev(), LossPct: 100 * p.LossRate()}, nil
}

// --- PlanetLab microbenchmarks (§5.1.2, Tables 4-6, Figure 6) ---

// planetlabNet builds the Figure 5 path: PlanetLab nodes co-located with
// the Abilene Chicago, New York, and Washington D.C. PoPs, 100 Mb/s node
// access, and the measured 20.2 ms and 4.5 ms segment RTTs. Background
// slices contend for each node's CPU.
func planetlabNet(seed int64) (*core.VINI, *netem.Node, *netem.Node) {
	return planetlabNetProf(seed, netem.PlanetLabProfile())
}

// planetlabNetProf is planetlabNet with an explicit host profile (the
// socket-buffer ablation varies it).
func planetlabNetProf(seed int64, prof netem.Profile) (*core.VINI, *netem.Node, *netem.Node) {
	v := core.New(seed)
	chi, _ := v.AddNode(topology.Chicago, netip.MustParseAddr("198.32.154.48"), prof, sched.Options{})
	ny, _ := v.AddNode(topology.NewYork, netip.MustParseAddr("198.32.154.51"), prof, sched.Options{})
	was, _ := v.AddNode(topology.Washington, netip.MustParseAddr("198.32.154.50"), prof, sched.Options{})
	// Abilene's backbone is lightly loaded; the node NIC (100 Mb/s) is
	// the bottleneck, matching the paper's 90.8 Mb/s native result.
	v.AddLink(netem.LinkConfig{A: topology.Chicago, B: topology.NewYork,
		Bandwidth: 100e6, Delay: 10100 * time.Microsecond, Jitter: 600 * time.Microsecond})
	v.AddLink(netem.LinkConfig{A: topology.NewYork, B: topology.Washington,
		Bandwidth: 100e6, Delay: 2250 * time.Microsecond, Jitter: 250 * time.Microsecond})
	v.ComputeRoutes()
	// Contending slices: each PlanetLab node hosts many; a handful are
	// CPU-hungry at any moment (bursty, heavy-tailed).
	rng := v.Loop().RNG()
	for _, n := range []*netem.Node{chi, ny, was} {
		for i := 0; i < 6; i++ {
			sched.StartHog(n.CPU, sched.HogConfig{
				Name: fmt.Sprintf("slice%d", i), Share: 1.0 / 40,
				MeanBusy: 150 * time.Millisecond, MeanIdle: 350 * time.Millisecond,
				RNG: rng.Fork(),
			})
		}
	}
	return v, chi, was
}

// planetlabSlice embeds the 3-node IIAS overlay with the mode's CPU
// configuration and waits for OSPF to converge.
func planetlabSlice(v *core.VINI, mode Mode) (*core.Slice, error) {
	if mode == ModePLVINI {
		return planetlabSliceWith(v, 0.25, true)
	}
	return planetlabSliceWith(v, 0, false)
}

// planetlabSliceWith is planetlabSlice with the two CPU knobs explicit
// (share 0 is the default fair share).
func planetlabSliceWith(v *core.VINI, share float64, rt bool) (*core.Slice, error) {
	s, err := v.CreateSlice(core.SliceConfig{Name: "iias", CPUShare: share, RT: rt})
	if err != nil {
		return nil, err
	}
	for _, n := range []string{topology.Chicago, topology.NewYork, topology.Washington} {
		if _, err := s.AddVirtualNode(n); err != nil {
			return nil, err
		}
	}
	if _, err := s.ConnectVirtual(topology.Chicago, topology.NewYork, 1); err != nil {
		return nil, err
	}
	if _, err := s.ConnectVirtual(topology.NewYork, topology.Washington, 1); err != nil {
		return nil, err
	}
	s.StartOSPF(time.Second, 3*time.Second)
	v.Run(v.Loop().Now() + 15*time.Second)
	return s, nil
}

// endpoints returns the traffic source/destination for the mode.
func endpoints(v *core.VINI, s *core.Slice, mode Mode) (src, dst netip.Addr) {
	chi, _ := v.Net.Node(topology.Chicago)
	was, _ := v.Net.Node(topology.Washington)
	if mode == ModeNative {
		return chi.Addr(), was.Addr()
	}
	a, _ := s.VirtualNode(topology.Chicago)
	b, _ := s.VirtualNode(topology.Washington)
	return a.TapAddr, b.TapAddr
}

// Table4 reproduces the PlanetLab TCP throughput rows.
func Table4(seed int64, mode Mode, duration time.Duration) (ThroughputResult, error) {
	v, chi, was := planetlabNet(seed)
	var s *core.Slice
	var err error
	if mode != ModeNative {
		if s, err = planetlabSlice(v, mode); err != nil {
			return ThroughputResult{}, err
		}
	}
	srcA, dstA := endpoints(v, s, mode)
	ny, _ := v.Net.Node(topology.NewYork)
	ny.ResetAccounting()
	start := v.Loop().Now()
	test, err := traffic.StartIperfTCP(v.Net, chi, was, traffic.IperfTCPConfig{
		Streams: 20, Window: 16 << 10, SrcAddr: srcA, DstAddr: dstA})
	if err != nil {
		return ThroughputResult{}, err
	}
	v.Run(start + duration)
	test.Stop()
	res := ThroughputResult{Name: mode.String(), Mbps: test.Mbps()}
	if mode != ModeNative {
		vn, _ := s.VirtualNode(topology.NewYork)
		res.CPU = ny.CPU.TaskUtilization(vn.Proc().Task())
	}
	return res, nil
}

// Table5 reproduces the PlanetLab ping rows.
func Table5(seed int64, mode Mode, count int) (PingResult, error) {
	v, chi, was := planetlabNet(seed)
	var s *core.Slice
	var err error
	if mode != ModeNative {
		if s, err = planetlabSlice(v, mode); err != nil {
			return PingResult{}, err
		}
	}
	srcA, dstA := endpoints(v, s, mode)
	traffic.NewICMPHost(was)
	h := traffic.NewICMPHost(chi)
	p := h.StartPing(traffic.PingConfig{Src: srcA, Dst: dstA,
		Interval: 20 * time.Millisecond, Count: count})
	v.Run(v.Loop().Now() + time.Duration(count)*20*time.Millisecond + 5*time.Second)
	return PingResult{Name: mode.String(),
		Min: p.RTTs.Min(), Avg: p.RTTs.Mean(), Max: p.RTTs.Max(),
		Mdev: p.RTTs.Mdev(), LossPct: 100 * p.LossRate()}, nil
}

// Table6 reproduces the jitter rows: CBR streams from 1 to 50 Mb/s, the
// jitter pooled across stream rates as the paper reports.
func Table6(seed int64, mode Mode) (JitterResult, error) {
	rates := []float64{1e6, 5e6, 10e6, 20e6, 50e6}
	var pooled sim.Stats
	for i, rate := range rates {
		v, chi, was := planetlabNet(seed + int64(i))
		var s *core.Slice
		var err error
		if mode != ModeNative {
			if s, err = planetlabSlice(v, mode); err != nil {
				return JitterResult{}, err
			}
		}
		srcA, dstA := endpoints(v, s, mode)
		test, err := traffic.StartUDPCBR(v.Net, chi, was, traffic.UDPCBRConfig{
			RateBps: rate, SrcAddr: srcA, DstAddr: dstA})
		if err != nil {
			return JitterResult{}, err
		}
		v.Run(v.Loop().Now() + 10*time.Second)
		test.Stop()
		pooled.Add(test.Jitter())
	}
	return JitterResult{Name: mode.String(), Mean: pooled.Mean(), Stddev: pooled.Stddev()}, nil
}

// Figure6 reproduces the packet-loss-versus-rate curves: UDP CBR at each
// rate for duration, reporting loss percentage.
func Figure6(seed int64, mode Mode, ratesMbps []float64, duration time.Duration) ([]LossPoint, error) {
	var out []LossPoint
	for i, r := range ratesMbps {
		v, chi, was := planetlabNet(seed + int64(i)*17)
		var s *core.Slice
		var err error
		if mode != ModeNative {
			if s, err = planetlabSlice(v, mode); err != nil {
				return nil, err
			}
		}
		srcA, dstA := endpoints(v, s, mode)
		test, err := traffic.StartUDPCBR(v.Net, chi, was, traffic.UDPCBRConfig{
			RateBps: r * 1e6, SrcAddr: srcA, DstAddr: dstA})
		if err != nil {
			return nil, err
		}
		v.Run(v.Loop().Now() + duration)
		test.Stop()
		v.Run(v.Loop().Now() + 2*time.Second)
		out = append(out, LossPoint{RateMbps: r, LossPct: 100 * test.LossRate()})
	}
	return out, nil
}

// --- Intra-domain routing experiment (§5.2, Figures 7-9) ---

// AbileneExperiment is the assembled Section 5.2 environment: the
// physical Abilene substrate, an IIAS slice mirroring it (topology and
// OSPF weights extracted from the router configurations by rcc), and the
// Denver–Kansas City virtual link ready to fail.
type AbileneExperiment struct {
	V     *core.VINI
	Slice *core.Slice
	// Hello/Dead are the §5.2 OSPF timers (5 s / 10 s).
	Hello, Dead time.Duration
	denverKC    *core.VirtualLink
}

// NewAbilene builds the experiment from the embedded Abilene router
// configurations and runs until the overlay's OSPF converges.
func NewAbilene(seed int64) (*AbileneExperiment, error) {
	configs, err := rcc.ParseAbilene()
	if err != nil {
		return nil, err
	}
	g, err := rcc.BuildTopology(configs)
	if err != nil {
		return nil, err
	}
	hello, dead, err := rcc.Timers(configs)
	if err != nil {
		return nil, err
	}
	// rcc names routers by code; the substrate and the slice name them
	// by PoP, created in sorted-code order (what figure8.golden pins).
	pops, links := g.Nodes(), g.Links()
	for i, code := range pops {
		pops[i], _ = rcc.PopForCode(code)
	}
	for i := range links {
		links[i].A, _ = rcc.PopForCode(links[i].A)
		links[i].B, _ = rcc.PopForCode(links[i].B)
	}
	v := core.New(seed)
	v.EnableTelemetry()
	if err := v.AddTopology(pops, links, netem.PlanetLabProfile(), nodeAddr); err != nil {
		return nil, err
	}
	// The experiment slice mirrors the physical topology one-to-one,
	// with the real OSPF costs (§5.2: "each virtual link maps directly
	// to a single physical link between two Abilene routers").
	s, err := v.CreateSlice(core.SliceConfig{Name: "abilene-mirror", CPUShare: 0.25, RT: true})
	if err != nil {
		return nil, err
	}
	if err := s.Mirror(pops, links, nil); err != nil {
		return nil, err
	}
	// Production-router SPF batching: transient forwarding states last
	// long enough for the paper's one-ping 110ms and 87ms samples.
	s.SPFDelay = time.Second
	s.StartOSPF(hello, dead)
	v.Run(v.Loop().Now() + 60*time.Second)
	dkc, ok := s.FindVirtualLink(topology.Denver, topology.KansasCity)
	if !ok {
		return nil, fmt.Errorf("no Denver-Kansas City virtual link")
	}
	return &AbileneExperiment{V: v, Slice: s, Hello: hello, Dead: dead, denverKC: dkc}, nil
}

// Convergences returns the telemetry-derived convergence windows: for
// every link failure/restore injected so far, the time from the event
// to the last route install it triggered — the quantity Figure 8 makes
// visible indirectly through RTT steps, as a first-class query.
func (e *AbileneExperiment) Convergences() []telemetry.Convergence {
	return telemetry.Convergences(e.V.Telemetry().Rec.Events())
}

// Figure8 runs the §5.2 ping experiment: echoes between Washington D.C.
// and Seattle every 200 ms for 50 seconds, failing Denver–Kansas City
// inside Click at t=10 s and restoring it at t=34 s.
func (e *AbileneExperiment) Figure8() ([]RTTPoint, error) {
	v := e.V
	wash, _ := e.Slice.VirtualNode(topology.Washington)
	sea, _ := e.Slice.VirtualNode(topology.Seattle)
	traffic.NewICMPHost(sea.Phys())
	h := traffic.NewICMPHost(wash.Phys())
	t0 := v.Loop().Now()
	v.Loop().Schedule(10*time.Second, func() { e.denverKC.SetFailed(true) })
	v.Loop().Schedule(34*time.Second, func() { e.denverKC.SetFailed(false) })
	p := h.StartPing(traffic.PingConfig{
		Src: wash.TapAddr, Dst: sea.TapAddr,
		Interval: 200 * time.Millisecond, Count: 250,
		Timeout: 1500 * time.Millisecond})
	v.Run(t0 + 55*time.Second)
	var out []RTTPoint
	for _, s := range p.Timeline {
		out = append(out, RTTPoint{
			T:     (s.At - t0).Seconds(),
			RTTms: float64(s.RTT) / float64(time.Millisecond),
			Lost:  s.Lost,
		})
	}
	// The timeline appends at reply/timeout time; report in send order.
	sort.Slice(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out, nil
}

// Figure9 runs the §5.2 TCP experiment: a bulk transfer from Washington
// D.C. to Seattle with iperf's default 16 KB window across the same
// failure/recovery schedule. It returns the receiver's arrival log.
func (e *AbileneExperiment) Figure9() ([]ArrivalPoint, error) {
	v := e.V
	wash, _ := e.Slice.VirtualNode(topology.Washington)
	sea, _ := e.Slice.VirtualNode(topology.Seattle)
	t0 := v.Loop().Now()
	v.Loop().Schedule(10*time.Second, func() { e.denverKC.SetFailed(true) })
	v.Loop().Schedule(34*time.Second, func() { e.denverKC.SetFailed(false) })
	test, err := traffic.StartIperfTCP(v.Net, wash.Phys(), sea.Phys(), traffic.IperfTCPConfig{
		Streams: 1, Window: 16 << 10, SrcAddr: wash.TapAddr, DstAddr: sea.TapAddr})
	if err != nil {
		return nil, err
	}
	v.Run(t0 + 50*time.Second)
	test.Stop()
	var out []ArrivalPoint
	var cum float64
	for _, a := range test.Receivers()[0].Arrivals {
		cum += float64(a.Len)
		out = append(out, ArrivalPoint{
			T:  (a.At - t0).Seconds(),
			MB: cum / 1e6,
		})
	}
	return out, nil
}
