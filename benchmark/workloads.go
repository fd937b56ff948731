package main

import "time"

// workloadSpec is one of the five fixed workloads. Names are cited by
// later issues and must not change.
type workloadSpec struct {
	name string
	why  string
	// domains selects core.NewParallel(seed, 1) over core.New(seed).
	domains bool
	tcp     bool
	scale   bool
	// vsPerSecond is how many virtual seconds the timed region covers
	// per requested second of -seconds, calibrated on the 2-core
	// reference host so that -seconds 10 times about ten wall seconds.
	// The region is a fixed amount of simulated work, not a deadline:
	// a deadline would make events, digests and the phase mix depend on
	// host speed.
	vsPerSecond float64
	window      time.Duration
}

var workloads = []workloadSpec{
	{name: "abilene_cbr",
		why:         "Paper 5.2 world on core.New: 11-PoP Abilene, PlanetLab profile, 4 OSPF slices, 10 Mb/s UDP CBR each; data plane dominates (netem, click, fib, packet, sched), ospf nearly idle.",
		vsPerSecond: 24, window: 5 * time.Second},
	{name: "abilene_cbr_domains",
		why:         "Same world on core.NewParallel(seed,1): same layers through per-domain RNGs, tick wheels, promises, trains and inbox, no scheduler noise; a gain for one engine that costs the other shows here.",
		domains:     true,
		vsPerSecond: 24, window: 5 * time.Second},
	{name: "abilene_tcp",
		why:         "Same substrate and slices with iperf -P 20 TCP per slice: ACK traffic both ways, an RTO timer re-armed per ACK (cancel-heavy heap), tcpm reassembly; the allocation-heaviest path.",
		tcp:         true,
		vsPerSecond: 4, window: time.Second},
	{name: "scale_ospf",
		why:         "BENCH_scale.json build at 400 slices on core.New, timed over cold OSPF convergence (30 vs) plus link flaps: control plane dominates (ospf, fea, fib install, sim timers); the only large setup_s.",
		scale:       true,
		vsPerSecond: 6, window: time.Second},
	{name: "scale_ospf_domains",
		why:   "Same scale world on core.NewParallel(seed,1): the known sign flip (domains x1 loses to the classic loop where virtual nodes are dense) is only visible here.",
		scale: true, domains: true,
		vsPerSecond: 6, window: time.Second},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// runSize is the concrete size of one run.
type runSize struct {
	// warm is the untimed warm-up (Abilene worlds).
	warm time.Duration
	// converge is the timed cold-convergence phase (scale worlds).
	converge time.Duration
	// timed is the steady (Abilene) or flap (scale) phase.
	timed  time.Duration
	window time.Duration
	// flapEvery is the flap period in windows.
	flapEvery int
	slices    int
}

func (s runSize) windows() int { return int((s.converge + s.timed) / s.window) }

// size turns -seconds into virtual time. Warm-up and cold convergence
// are fixed; only the steady or flap phase scales. The smoke size keeps
// every code path but shrinks the world and the windows so the whole
// test suite stays within a few seconds.
func (w workloadSpec) size(seconds float64, smoke bool) runSize {
	sz := runSize{window: w.window, flapEvery: 5, slices: 400}
	timed := time.Duration(w.vsPerSecond * seconds * float64(time.Second))
	if w.scale {
		sz.converge = 30 * time.Second
	} else {
		sz.warm = 30 * time.Second
	}
	if smoke {
		sz.window = time.Second
		sz.slices = 24
		timed = 4 * time.Second
		if w.scale {
			sz.converge, sz.flapEvery = 8*time.Second, 2
		} else {
			sz.warm = 12 * time.Second
		}
		if w.tcp {
			// The SYNs sent before OSPF converges are lost; the retry
			// at t=15 s is the first that gets through.
			sz.warm, timed = 16*time.Second, 2*time.Second
		}
	}
	n := int(timed / sz.window)
	if n < 1 {
		n = 1
	}
	sz.timed = time.Duration(n) * sz.window
	return sz
}
