package simtest

// The adaptive regime drives traffic.Adaptive — the delay-gradient
// bandwidth estimator — through everything that changes a path's
// available bandwidth: competing CBR cross-traffic carried by a slice
// overlay, Pause/Resume churn on that overlay, and a physical link flap
// that reroutes the flow onto a slower alternate path. After each
// quiescent point the estimate must have converged into a band around
// the true available bandwidth, the rate must never run away above it,
// and teardown must leave the world exactly as clean as churn demands:
// balanced pool ledger, zero stack registrations beyond the baseline,
// empty domain heaps — byte-identically for any worker count.

import (
	"math"
	"net/netip"
	"time"

	"vini/internal/core"
	"vini/internal/netem"
	"vini/internal/packet"
	"vini/internal/sim"
	"vini/internal/topology"
	"vini/internal/traffic"
)

// AdaptiveOptions configures one seeded adaptive-controller scenario.
type AdaptiveOptions struct {
	Seed int64
	// workers is the executor's worker budget, exactly as in Options.
	workers int
	// disableOveruse sabotages the controller's over-use detector — the
	// mutation check: with it set, the convergence invariant must trip.
	disableOveruse bool
}

// AdaptivePhase is one quiescent measurement point.
type AdaptivePhase struct {
	Name string
	// AvailBps is the true available bandwidth for the flow.
	AvailBps float64
	// EstimateBps is the controller's estimate at the quiescent point.
	EstimateBps float64
	// DeliveredBps is the measured delivery rate over the phase.
	DeliveredBps float64
}

// AdaptiveResult is everything one scenario produced. Digest folds the
// phase observations (float state via exact bits).
type AdaptiveResult struct {
	Outcome
	BottleneckBps float64
	AltBps        float64
	CrossBps      float64
	Phases        []AdaptivePhase
	// TracePoints counts sender-side controller updates.
	TracePoints int
}

// Convergence band: after a quiescent window the estimate must sit
// within [adaptiveLo, adaptiveHi] × available bandwidth. The lower edge
// leaves room for AIMD sawtooth bottoms; the upper edge leaves room for
// the additive-increase cap (1.25 × delivered) sampled mid-sawtooth.
// adaptiveRunaway bounds the peak estimate over the whole run — the
// open-loop blowup the mutation check must trip.
const (
	adaptiveLo      = 0.45
	adaptiveHi      = 1.30
	adaptiveRunaway = 1.35
)

// RunAdaptive executes one seeded adaptive scenario end to end.
func RunAdaptive(opts AdaptiveOptions) (*AdaptiveResult, error) {
	rng := sim.NewRNG(opts.Seed)
	res := &AdaptiveResult{}
	w := newWorld("adaptive", &res.Outcome, opts.Seed, opts.workers)

	// Topology: a — b — c — d carries the adaptive flow; b — e — c is
	// the slower alternate path the flap reroutes onto. The bottleneck
	// b—c draws its bandwidth from the seed.
	bottleneck := float64(1_500_000 + 1000*rng.Intn(1500)) // 1.5–3 Mb/s
	alt := 0.6 * bottleneck
	// Rounded: bottleneck-cross must not fuse into one multiply-subtract
	// on some architectures and not on others.
	cross := float64(0.4 * bottleneck)
	res.BottleneckBps, res.AltBps, res.CrossBps = bottleneck, alt, cross

	ms := time.Millisecond
	if err := w.vini.AddTopology([]string{"a", "b", "c", "d", "e"}, []topology.Link{
		{A: "a", B: "b", Bandwidth: 100e6, Delay: ms},
		{A: "b", B: "c", Bandwidth: bottleneck, Delay: 5 * ms},
		{A: "c", B: "d", Bandwidth: 100e6, Delay: ms},
		{A: "b", B: "e", Bandwidth: 10e6, Delay: 10 * ms},
		{A: "e", B: "c", Bandwidth: alt, Delay: 10 * ms},
	}, netem.DETERProfile(), func(i int, _ string) netip.Addr {
		return netip.AddrFrom4([4]byte{192, 168, 3, byte(1 + i)})
	}); err != nil {
		return nil, err
	}

	nodeA, nodeB := w.vini.Net.MustNode("a"), w.vini.Net.MustNode("b")
	nodeC, nodeD := w.vini.Net.MustNode("c"), w.vini.Net.MustNode("d")
	w.baseline()

	// The cross-traffic overlay: a two-vnode slice embedded at the
	// bottleneck's endpoints, so its tunnel shares the b—c queue.
	slice, err := w.createSlice(core.SliceConfig{Name: "cross", CPUShare: 0.25})
	if err != nil {
		return nil, err
	}
	vb, err := slice.AddVirtualNode("b")
	if err != nil {
		return nil, err
	}
	vc, err := slice.AddVirtualNode("c")
	if err != nil {
		return nil, err
	}
	if _, err := slice.ConnectVirtual("b", "c", 1); err != nil {
		return nil, err
	}
	slice.StartOSPF(time.Second, 3*time.Second)
	w.run(15 * time.Second)
	if _, ok := vb.FIB.Lookup(vc.TapAddr); !ok {
		w.violate("overlay never converged: no route b->c")
	}

	flow, err := traffic.StartAdaptive(w.vini.Net, nodeA, nodeD, traffic.AdaptiveConfig{
		Telemetry:      w.vini.Telemetry(),
		DisableOveruse: opts.disableOveruse,
	})
	if err != nil {
		return nil, err
	}
	wireBits := float64(1000+packet.UDPHeaderLen+packet.IPv4HeaderLen) * 8

	lastRx := uint64(0)
	// phase runs the world for dur, then checks the estimate against the
	// available bandwidth and folds the exact controller floats.
	phase := func(name string, dur time.Duration, avail float64) {
		w.run(dur)
		est := flow.EstimateBps()
		rx := flow.Received()
		delivered := float64(rx-lastRx) * wireBits / dur.Seconds()
		lastRx = rx
		res.Phases = append(res.Phases, AdaptivePhase{
			Name: name, AvailBps: avail, EstimateBps: est, DeliveredBps: delivered})
		w.note("%s: avail=%.0f estimate=%.0f delivered=%.0f gradient=%.0fns",
			name, avail, est, delivered, flow.GradientNs())
		if est < adaptiveLo*avail || est > adaptiveHi*avail {
			w.violate("%s: estimate %.0f outside [%.2f, %.2f] x avail %.0f",
				name, est, adaptiveLo, adaptiveHi, avail)
		}
		w.fold("%s est=%016x grad=%016x rx=%d", name,
			math.Float64bits(est), math.Float64bits(flow.GradientNs()), rx)
	}

	// Phase 1: the flow alone must climb to the bottleneck.
	phase("alone", 25*time.Second, bottleneck)

	// Phase 2: competing CBR cross-traffic through the overlay.
	crossFlow, err := traffic.StartUDPCBR(w.vini.Net, nodeB, nodeC, traffic.UDPCBRConfig{
		RateBps: cross, Port: 6001, SrcAddr: vb.TapAddr, DstAddr: vc.TapAddr,
	})
	if err != nil {
		return nil, err
	}
	phase("cross", 25*time.Second, bottleneck-cross)
	if crossFlow.Received() == 0 {
		w.violate("cross-traffic never flowed through the overlay")
	}

	// Phase 3: pause the overlay — the cross load vanishes at b, the
	// estimate must recover the full bottleneck.
	if err := slice.Pause(); err != nil {
		w.violate("pause: %v", err)
	}
	phase("paused", 25*time.Second, bottleneck)

	// Phase 4: resume — cross load returns after the overlay reconverges.
	if err := slice.Resume(); err != nil {
		w.violate("resume: %v", err)
	}
	w.run(15 * time.Second) // overlay reconvergence warmup
	lastRx = flow.Received()
	phase("resumed", 25*time.Second, bottleneck-cross)

	// Phase 5: stop the cross flow, then flap the bottleneck link; the
	// substrate reroutes a—d over the slower b—e—c path.
	crossFlow.Stop()
	if err := w.vini.FailLink("b", "c", 100*time.Millisecond); err != nil {
		return nil, err
	}
	w.run(5 * time.Second) // reroute + decay transient
	lastRx = flow.Received()
	phase("rerouted", 30*time.Second, alt)

	// Phase 6: restore; back to the full bottleneck.
	if err := w.vini.RestoreLink("b", "c", 100*time.Millisecond); err != nil {
		return nil, err
	}
	w.run(5 * time.Second)
	lastRx = flow.Received()
	phase("restored", 25*time.Second, bottleneck)

	// Global no-runaway audit over the whole trace: the sender's rate
	// must never exceed the controller's clamp or the band above the
	// best path it ever had.
	res.TracePoints = len(flow.Trace)
	maxRate := 0.0
	for _, pt := range flow.Trace {
		if pt.EstimateBps > maxRate {
			maxRate = pt.EstimateBps
		}
	}
	if maxRate > adaptiveRunaway*bottleneck {
		w.violate("rate runaway: peak rate %.0f above %.2f x bottleneck %.0f",
			maxRate, adaptiveRunaway, bottleneck)
	}
	if res.TracePoints == 0 {
		w.violate("controller produced no trace points")
	}
	w.fold("trace n=%d max=%016x", res.TracePoints, math.Float64bits(maxRate))

	// Teardown: every workload closed, the overlay destroyed, then the
	// churn-grade audits.
	flow.Close()
	crossFlow.Close()
	if err := slice.Destroy(); err != nil {
		w.violate("destroy: %v", err)
	}
	w.audit("teardown")
	w.drain(3*time.Second, "teardown")
	w.fold("clean pending=%d listeners=%d", w.loop.Pending(), w.stackListeners())

	w.finish("bottleneck=%.0f", res.BottleneckBps)
	return res, nil
}
