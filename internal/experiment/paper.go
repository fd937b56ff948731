// Package experiment implements the paper's Section 5 evaluation as
// reusable, deterministic experiments, plus the ns-like experiment
// specification language of Section 6.2. Each function regenerates one
// table or figure; cmd/vinibench is a thin wrapper around them.
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
	"vini/internal/tcpm"
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

// --- The §5.1 microbenchmark path (Tables 2-6, Figure 6, ablations) ---

// testbed is the three-host path of §5.1: traffic runs from src through
// fwd to dst, either natively or through a three-vnode IIAS slice s
// mirrored on the path (nil when native). srcA and dstA are the traffic
// addresses: the hosts' own, or the vnodes' tap addresses.
type testbed struct {
	v             *core.VINI
	s             *core.Slice
	src, fwd, dst *netem.Node
	srcA, dstA    netip.Addr
}

// deter builds the three pc2800 machines of Figure 3 joined by Gigabit
// Ethernet and, when iias, overlays the Figure 4 topology: Click on all
// three nodes, dedicated hardware (full CPU available to the slice).
func deter(seed int64, iias bool) (*testbed, error) {
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
	tb := &testbed{v: v, src: src, fwd: fwd, dst: dst, srcA: src.Addr(), dstA: dst.Addr()}
	if !iias {
		return tb, nil
	}
	return tb.overlay(core.SliceConfig{Name: "iias", CPUShare: 1.0}, 10*time.Second)
}

// planetlab builds the Figure 5 path: PlanetLab nodes co-located with
// the Abilene Chicago, New York, and Washington D.C. PoPs, 100 Mb/s node
// access, and the measured 20.2 ms and 4.5 ms segment RTTs, on host
// profile prof. Background slices contend for each node's CPU. A non-nil
// slice overlays IIAS with that CPU configuration.
func planetlab(seed int64, prof netem.Profile, slice *core.SliceConfig) (*testbed, error) {
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
	tb := &testbed{v: v, src: chi, fwd: ny, dst: was, srcA: chi.Addr(), dstA: was.Addr()}
	if slice == nil {
		return tb, nil
	}
	return tb.overlay(*slice, 15*time.Second)
}

// overlay embeds the IIAS slice cfg on the path with Slice.Mirror, runs
// OSPF for warm to converge, and moves the traffic addresses onto the
// end vnodes' taps.
func (tb *testbed) overlay(cfg core.SliceConfig, warm time.Duration) (*testbed, error) {
	s, err := tb.v.CreateSlice(cfg)
	if err != nil {
		return nil, err
	}
	path := []string{tb.src.Name(), tb.fwd.Name(), tb.dst.Name()}
	links := []topology.Link{{A: path[0], B: path[1], CostAB: 1}, {A: path[1], B: path[2], CostAB: 1}}
	if err := s.Mirror(path, links, nil); err != nil {
		return nil, err
	}
	s.StartOSPF(time.Second, 3*time.Second)
	tb.v.Run(tb.v.Loop().Now() + warm)
	a, _ := s.VirtualNode(path[0])
	b, _ := s.VirtualNode(path[2])
	tb.s, tb.srcA, tb.dstA = s, a.TapAddr, b.TapAddr
	return tb, nil
}

// slice is the mode's IIAS slice configuration, nil for the native
// network (share 0 is the default fair share).
func (m Mode) slice() *core.SliceConfig {
	switch m {
	case ModeDefaultShare:
		return &core.SliceConfig{Name: "iias"}
	case ModePLVINI:
		return &core.SliceConfig{Name: "iias", CPUShare: 0.25, RT: true}
	}
	return nil
}

// ping sends count echoes from src to dst at interval and runs tail past
// the last one; the destination's responder is made first.
func (tb *testbed) ping(name string, interval time.Duration, count int, tail time.Duration) PingResult {
	traffic.NewICMPHost(tb.dst)
	h := traffic.NewICMPHost(tb.src)
	p := h.StartPing(traffic.PingConfig{Src: tb.srcA, Dst: tb.dstA, Interval: interval, Count: count})
	tb.v.Run(tb.v.Loop().Now() + time.Duration(count)*interval + tail)
	return PingResult{Name: name,
		Min: p.RTTs.Min(), Avg: p.RTTs.Mean(), Max: p.RTTs.Max(),
		Mdev: p.RTTs.Mdev(), LossPct: 100 * p.LossRate()}
}

// cbr runs a UDP CBR stream from src to dst for run, stops it, and runs
// drain longer for packets in flight to land.
func (tb *testbed) cbr(cfg traffic.UDPCBRConfig, run, drain time.Duration) (*traffic.UDPCBR, error) {
	cfg.SrcAddr, cfg.DstAddr = tb.srcA, tb.dstA
	c, err := traffic.StartUDPCBR(tb.v.Net, tb.src, tb.dst, cfg)
	if err != nil {
		return nil, err
	}
	tb.v.Run(tb.v.Loop().Now() + run)
	c.Stop()
	tb.v.Run(tb.v.Loop().Now() + drain)
	return c, nil
}

// Table2 reproduces the DETER TCP throughput test: 20 parallel iperf
// streams through the kernel (overlay=false) or through IIAS's
// user-space Click forwarder (overlay=true). Reported CPU is the Fwdr's
// forwarding-path CPU.
func Table2(seed int64, overlay bool, duration time.Duration) (ThroughputResult, error) {
	tb, err := deter(seed, overlay)
	if err != nil {
		return ThroughputResult{}, err
	}
	// The CPU column reads from the telemetry registry: the counters
	// mirror the scheduler's own accounting increment-for-increment, so
	// a counter delta over the measurement window divided by the same
	// elapsed time is bit-identical to TaskUtilization/KernelUtilization.
	v, res := tb.v, ThroughputResult{Name: "Network"}
	cpuCounter := v.Telemetry().Reg.FindCounter("phys", "fwdr", "kernel/cpu_ns")
	if overlay {
		res.Name = "IIAS"
		cpuCounter = v.Telemetry().Reg.FindCounter("iias", "fwdr", "proc/cpu_ns")
	}
	start := v.Loop().Now()
	tb.fwd.ResetAccounting()
	cpu0 := cpuCounter.Value()
	test, err := traffic.StartIperfTCP(v.Net, tb.src, tb.dst, traffic.IperfTCPConfig{
		Streams: 20, Window: 64 << 10, SrcAddr: tb.srcA, DstAddr: tb.dstA})
	if err != nil {
		return ThroughputResult{}, err
	}
	v.Run(start + duration)
	test.Stop()
	res.Mbps = test.Mbps()
	if elapsed := v.Loop().Now() - start; elapsed > 0 {
		res.CPU = float64(cpuCounter.Value()-cpu0) / float64(elapsed)
	}
	return res, nil
}

// Table3 reproduces the DETER latency test: ping -f between Src and Sink
// through the kernel or through IIAS.
func Table3(seed int64, overlay bool, count int) (PingResult, error) {
	tb, err := deter(seed, overlay)
	if err != nil {
		return PingResult{}, err
	}
	name := "Network"
	if overlay {
		name = "IIAS"
	}
	return tb.ping(name, time.Millisecond, count, 2*time.Second), nil
}

// Table4 reproduces the PlanetLab TCP throughput rows.
func Table4(seed int64, mode Mode, duration time.Duration) (ThroughputResult, error) {
	tb, err := planetlab(seed, netem.PlanetLabProfile(), mode.slice())
	if err != nil {
		return ThroughputResult{}, err
	}
	tb.fwd.ResetAccounting()
	start := tb.v.Loop().Now()
	test, err := traffic.StartIperfTCP(tb.v.Net, tb.src, tb.dst, traffic.IperfTCPConfig{
		Streams: 20, Window: 16 << 10, SrcAddr: tb.srcA, DstAddr: tb.dstA})
	if err != nil {
		return ThroughputResult{}, err
	}
	tb.v.Run(start + duration)
	test.Stop()
	res := ThroughputResult{Name: mode.String(), Mbps: test.Mbps()}
	if tb.s != nil {
		vn, _ := tb.s.VirtualNode(topology.NewYork)
		res.CPU = tb.fwd.CPU.TaskUtilization(vn.Proc().Task())
	}
	return res, nil
}

// Table5 reproduces the PlanetLab ping rows.
func Table5(seed int64, mode Mode, count int) (PingResult, error) {
	tb, err := planetlab(seed, netem.PlanetLabProfile(), mode.slice())
	if err != nil {
		return PingResult{}, err
	}
	return tb.ping(mode.String(), 20*time.Millisecond, count, 5*time.Second), nil
}

// Table6 reproduces the jitter rows: CBR streams from 1 to 50 Mb/s, the
// jitter pooled across stream rates as the paper reports.
func Table6(seed int64, mode Mode) (JitterResult, error) {
	var pooled sim.Stats
	for i, rate := range []float64{1e6, 5e6, 10e6, 20e6, 50e6} {
		tb, err := planetlab(seed+int64(i), netem.PlanetLabProfile(), mode.slice())
		if err != nil {
			return JitterResult{}, err
		}
		c, err := tb.cbr(traffic.UDPCBRConfig{RateBps: rate}, 10*time.Second, 0)
		if err != nil {
			return JitterResult{}, err
		}
		pooled.Add(c.Jitter())
	}
	return JitterResult{Name: mode.String(), Mean: pooled.Mean(), Stddev: pooled.Stddev()}, nil
}

// Figure6 reproduces the packet-loss-versus-rate curves: UDP CBR at each
// rate for duration, reporting loss percentage.
func Figure6(seed int64, mode Mode, ratesMbps []float64, duration time.Duration) ([]LossPoint, error) {
	var out []LossPoint
	for i, r := range ratesMbps {
		tb, err := planetlab(seed+int64(i)*17, netem.PlanetLabProfile(), mode.slice())
		if err != nil {
			return nil, err
		}
		c, err := tb.cbr(traffic.UDPCBRConfig{RateBps: r * 1e6}, duration, 2*time.Second)
		if err != nil {
			return nil, err
		}
		out = append(out, LossPoint{RateMbps: r, LossPct: 100 * c.LossRate()})
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
	return rttSeries(p.Timeline, t0), nil
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
	return arrivalSeries(test.Receivers()[0].Arrivals, t0), nil
}

// rttSeries is a ping log as points timed from t0, in send order: the
// log appends at reply or timeout time.
func rttSeries(log []traffic.PingSample, t0 time.Duration) []RTTPoint {
	var out []RTTPoint
	for _, s := range log {
		out = append(out, RTTPoint{T: (s.At - t0).Seconds(),
			RTTms: float64(s.RTT) / float64(time.Millisecond), Lost: s.Lost})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}

// arrivalSeries is a TCP receiver's arrival log as cumulative megabytes
// timed from t0.
func arrivalSeries(log []tcpm.Arrival, t0 time.Duration) []ArrivalPoint {
	var out []ArrivalPoint
	var cum float64
	for _, a := range log {
		cum += float64(a.Len)
		out = append(out, ArrivalPoint{T: (a.At - t0).Seconds(), MB: cum / 1e6})
	}
	return out
}
