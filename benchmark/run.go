package main

// One measured run of one workload, executed in a fresh child process
// so peak RSS, the allocator and the GC start from the same state every
// time. The timed region contains nothing but VINI.Run over fixed
// virtual-time windows (plus, on the scale worlds, the link flaps the
// scenario itself consists of); counters are read before and after it,
// and every correctness check runs once the clock has stopped.

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"vini/internal/packet"
)

// runConfig selects what one child process does.
type runConfig struct {
	Workload string
	Seed     int64
	// Seconds sizes the timed region (see workloadSpec.vsPerSecond).
	Seconds float64
	Smoke   bool
	// Spans records outside-in spans (the traced run).
	Spans bool
	// Workers is the executor's goroutine budget on the *_domains
	// worlds: 1 in every scored run, 2 only for the speedup row.
	Workers int
	// Telemetry enables the deterministic telemetry layer (the
	// telemetry.overhead_frac row only).
	Telemetry bool
	// SetupOnly stops at the first Run call: setup_s is the median over
	// several such children.
	SetupOnly bool
	// Startup is the wall between the parent starting this child and
	// the child's main being entered; setup_s includes it.
	Startup    time.Duration
	CPUProfile string
	MemProfile string
}

// statsBlock holds the simulated statistics: behaviour, never scored,
// and required to be byte-identical between two runs of one seed.
type statsBlock struct {
	Events         uint64  `json:"events"`
	Sent           uint64  `json:"sent"`
	Delivered      uint64  `json:"delivered"`
	GoodputMbps    float64 `json:"goodput_mbps"`
	ScheduleDigest string  `json:"schedule_digest"`
}

// counters are exported-counter deltas over the timed region.
type counters struct {
	Events     uint64 `json:"events"`
	Delivered  uint64 `json:"delivered"`
	Pkts       uint64 `json:"netem_pkts"`
	Drops      uint64 `json:"netem_drops"`
	Gets       uint64 `json:"packet_gets"`
	Escapes    uint64 `json:"packet_escapes"`
	Windows    uint64 `json:"sim_windows"`
	Trains     uint64 `json:"sim_trains"`
	TrainMsgs  uint64 `json:"sim_train_msgs"`
	Deliveries uint64 `json:"sim_deliveries"`
	Fallbacks  uint64 `json:"sim_fallbacks"`
	ParkNS     int64  `json:"sim_park_ns"`
	GCCycles   uint32 `json:"gc_cycles"`
	GCPauseNS  uint64 `json:"gc_pause_ns"`
	// GCCPUSeconds is the runtime's own estimate of CPU spent in the
	// collector (runtime/metrics /cpu/classes/gc/total).
	GCCPUSeconds float64 `json:"gc_cpu_seconds"`
}

// result is what one child reports to the parent.
type result struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Workers  int     `json:"workers"`
	SetupS   float64 `json:"setup_s"`
	// TimedVS/WallMS/CPUMS are the timed region's virtual seconds, wall
	// and user+sys CPU; the per-virtual-second metrics are ratios over
	// the whole region.
	TimedVS    float64    `json:"timed_vs"`
	WallMS     float64    `json:"wall_ms"`
	CPUMS      float64    `json:"cpu_ms"`
	Mallocs    uint64     `json:"mallocs"`
	AllocBytes uint64     `json:"alloc_bytes"`
	PeakRSSMB  float64    `json:"peak_rss_mb"`
	WindowMS   []float64  `json:"window_ms"`
	Stats      statsBlock `json:"stats"`
	Counters   counters   `json:"counters"`
	// Phase walls in ms: converge is warm-up on the Abilene worlds
	// (unscored) and part of the timed region on the scale worlds.
	Phase map[string]float64 `json:"phase_ms"`
	// The correctness gate: each check is one operation.
	OpsAttempted int      `json:"ops_attempted"`
	OpsFailed    int      `json:"ops_failed"`
	Failures     []string `json:"failures,omitempty"`
	// CalibMS is the fixed spin calibration before and after the run.
	CalibMS [2]float64 `json:"calib_ms"`
	Noisy   bool       `json:"noisy"`
	Spans   []span     `json:"spans,omitempty"`
}

func rusageSelf() (cpu time.Duration, maxRSSKB int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), ru.Maxrss
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// calibSink keeps the calibration loop from being optimised away.
var calibSink uint64

// calibrate runs a fixed integer spin and returns its wall time: the
// same work before and after a workload, so a neighbour's burst on the
// host shows as a difference between the two.
func calibrate() float64 {
	best := 0.0
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 12_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink += x
		if ms := float64(time.Since(t0)) / 1e6; rep == 0 || ms < best {
			best = ms
		}
	}
	return best
}

// snapshot is every exported counter the per-layer table reads.
type snapshot struct {
	events, delivered, bytes, pkts, drops        uint64
	pool                                         packet.PoolStats
	windows, trains, trainMsgs, deliv, fallbacks uint64
	park                                         time.Duration
	mem                                          runtime.MemStats
	gcCPU                                        float64
	cpu                                          time.Duration
}

func (w *world) snap() snapshot {
	var s snapshot
	x := w.v.Executor()
	s.events = x.TotalFired()
	_, s.delivered, s.bytes = w.trafficTotals()
	for _, l := range w.v.Net.Links() {
		for dir := 0; dir < 2; dir++ {
			p, _, d := l.Stats(dir)
			s.pkts += p
			s.drops += d
		}
	}
	s.pool = packet.Stats()
	s.windows = x.Windows()
	s.trains, s.trainMsgs = x.TrainStats()
	s.deliv = x.Deliveries()
	s.fallbacks = x.Fallbacks()
	s.park = x.ParkTime()
	s.gcCPU = gcCPUSeconds()
	runtime.ReadMemStats(&s.mem)
	s.cpu, _ = rusageSelf()
	return s
}

// runChild executes one workload run and returns its result.
func runChild(cfg runConfig) (*result, error) {
	spec, ok := findWorkload(cfg.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	size := spec.size(cfg.Seconds, cfg.Smoke)
	res := &result{Workload: spec.name, Seed: cfg.Seed, Phase: map[string]float64{}}
	if spec.domains {
		res.Workers = cfg.Workers
	}
	if !cfg.SetupOnly {
		res.CalibMS[0] = calibrate()
	}
	var tr *tracer
	if cfg.Spans {
		tr = newTracer(spec.name)
	}
	poolBase := packet.Stats()

	// Set-up: substrate, slices, vnodes, vlinks, protocols started,
	// traffic tools attached — everything up to the first Run call.
	setupStart := time.Now()
	bsp := tr.begin("core.build", "core")
	v := newEngine(cfg.Seed, spec.domains, cfg.Workers)
	if cfg.Telemetry {
		v.EnableTelemetry()
	}
	var w *world
	var err error
	if spec.scale {
		w, err = buildScale(tr, v, size.slices)
	} else {
		w, err = buildAbilene(tr, v, spec.tcp)
	}
	tr.end(bsp)
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", spec.name, err)
	}
	res.SetupS = (cfg.Startup + time.Since(setupStart)).Seconds()
	if cfg.SetupOnly {
		v.Close()
		return res, nil
	}

	loop := v.Loop()
	// runWindows advances virtual time window by window, recording each
	// window's wall into a preallocated slice; between, an optional hook
	// applies the scenario's own actions (the flap schedule).
	winMS := make([]float64, 0, size.windows())
	runWindows := func(phase string, total time.Duration, between func(i int)) time.Duration {
		psp := tr.begin("phase."+phase, "phase")
		start := time.Now()
		n := int(total / size.window)
		for i := 0; i < n; i++ {
			if between != nil {
				between(i)
			}
			wsp := tr.begin("core.Run", "sim")
			t0 := time.Now()
			v.Run(loop.Now() + size.window)
			winMS = append(winMS, float64(time.Since(t0))/1e6)
			tr.end(wsp)
		}
		d := time.Since(start)
		tr.end(psp)
		res.Phase[phase+"_ms"] += float64(d) / 1e6
		return d
	}

	// Untimed warm-up (Abilene worlds): OSPF adjacencies form, flows
	// reach steady state, pools and caches fill.
	if size.warm > 0 {
		wsp := tr.begin("phase.converge", "phase")
		t0 := time.Now()
		v.Run(loop.Now() + size.warm)
		res.Phase["converge_ms"] = float64(time.Since(t0)) / 1e6
		tr.end(wsp)
	}

	if cfg.CPUProfile != "" {
		f, err := os.Create(cfg.CPUProfile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
	}

	// ---- timed region ----
	runtime.GC()
	before := w.snap()
	var wall time.Duration
	if spec.scale {
		// Cold convergence, then the flap phase: every flapEvery windows
		// the next tenth of the chord-protected slices toggles its first
		// virtual link.
		wall += runWindows("converge", size.converge, nil)
		step := 0
		wall += runWindows("flap", size.timed, func(i int) {
			if i%size.flapEvery != 0 {
				return
			}
			fsp := tr.begin("core.SetFailed", "core")
			for j := step % 10; j < len(w.flappable); j += 10 {
				vl := w.flappable[j]
				vl.SetFailed(!vl.Failed())
			}
			tr.end(fsp)
			step++
		})
		res.TimedVS = (size.converge + size.timed).Seconds()
	} else {
		wall += runWindows("steady", size.timed, nil)
		res.TimedVS = size.timed.Seconds()
	}
	after := w.snap()
	// ---- clock stopped ----
	if cfg.CPUProfile != "" {
		pprof.StopCPUProfile()
	}
	_, maxRSS := rusageSelf()
	res.PeakRSSMB = float64(maxRSS) / 1024
	res.WallMS = float64(wall) / 1e6
	res.CPUMS = float64(after.cpu-before.cpu) / 1e6
	res.Mallocs = after.mem.Mallocs - before.mem.Mallocs
	res.AllocBytes = after.mem.TotalAlloc - before.mem.TotalAlloc
	res.WindowMS = winMS
	pool := after.pool.Sub(before.pool)
	res.Counters = counters{
		Events:       after.events - before.events,
		Delivered:    after.delivered - before.delivered,
		Pkts:         after.pkts - before.pkts,
		Drops:        after.drops - before.drops,
		Gets:         pool.Gets,
		Escapes:      pool.Escapes,
		Windows:      after.windows - before.windows,
		Trains:       after.trains - before.trains,
		TrainMsgs:    after.trainMsgs - before.trainMsgs,
		Deliveries:   after.deliv - before.deliv,
		Fallbacks:    after.fallbacks - before.fallbacks,
		ParkNS:       int64(after.park - before.park),
		GCCycles:     after.mem.NumGC - before.mem.NumGC,
		GCPauseNS:    after.mem.PauseTotalNs - before.mem.PauseTotalNs,
		GCCPUSeconds: after.gcCPU - before.gcCPU,
	}
	if cfg.MemProfile != "" {
		f, err := os.Create(cfg.MemProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}

	// Simulated statistics at the end of the timed region.
	sent, delivered, _ := w.trafficTotals()
	res.Stats = statsBlock{
		Events: after.events, Sent: sent, Delivered: delivered,
		GoodputMbps:    float64(after.bytes-before.bytes) * 8 / res.TimedVS / 1e6,
		ScheduleDigest: fmt.Sprintf("%016x", v.Executor().ScheduleDigest()),
	}

	// Drain: senders stop, in-flight packets land.
	dsp := tr.begin("phase.drain", "phase")
	t0 := time.Now()
	w.stopTraffic()
	v.Run(loop.Now() + 500*time.Millisecond)
	for i := 0; i < 80 && packet.Stats().Sub(poolBase).InFlight() != 0; i++ {
		v.Run(loop.Now() + 50*time.Millisecond)
	}
	res.Phase["drain_ms"] = float64(time.Since(t0)) / 1e6
	tr.end(dsp)

	// The correctness gate.
	asp := tr.begin("check.audit", "check")
	t0 = time.Now()
	w.audit(res, poolBase)
	res.Phase["audit_ms"] = float64(time.Since(t0)) / 1e6
	tr.end(asp)

	// Teardown: tools closed, every slice destroyed, workers released.
	tsp := tr.begin("core.teardown", "core")
	t0 = time.Now()
	w.closeTraffic()
	for _, s := range w.slices {
		check(res, "destroy "+s.Name(), s.Destroy())
	}
	v.Close()
	res.Phase["teardown_ms"] = float64(time.Since(t0)) / 1e6
	tr.end(tsp)

	res.CalibMS[1] = calibrate()
	lo, hi := res.CalibMS[0], res.CalibMS[1]
	if lo > hi {
		lo, hi = hi, lo
	}
	res.Noisy = hi > 1.10*lo
	if tr != nil {
		res.Spans = tr.spans
	}
	return res, nil
}

// check records one operation of the correctness gate.
func check(res *result, what string, err error) {
	res.OpsAttempted++
	if err != nil {
		res.OpsFailed++
		if len(res.Failures) < 20 {
			res.Failures = append(res.Failures, what+": "+err.Error())
		}
	}
}

// audit is the correctness gate, run after the clock has stopped:
// every slice ledger, the address plan, RIB-vs-FIB and Click-cache
// consistency on every virtual node, and packet-pool conservation
// against the pre-run baseline. Datagram loss is behaviour and is not
// checked here.
func (w *world) audit(res *result, poolBase packet.PoolStats) {
	for _, s := range w.slices {
		check(res, "slice audit "+s.Name(), s.Audit())
	}
	check(res, "address plan", w.v.AuditAddressPlan())
	for _, vn := range w.vnodes {
		check(res, "rib "+vn.Phys().Name(), vn.RIB().Verify())
		check(res, "click "+vn.Phys().Name(), vn.Router.Audit())
	}
	var err error
	if d := packet.Stats().Sub(poolBase); d.InFlight() != 0 {
		err = fmt.Errorf("%d pooled packets unaccounted (gets=%d releases=%d escapes=%d)",
			d.InFlight(), d.Gets, d.Releases, d.Escapes)
	}
	check(res, "packet pool", err)
	sent, delivered, _ := w.trafficTotals()
	err = nil
	if sent == 0 || delivered == 0 {
		err = fmt.Errorf("no traffic: sent=%d delivered=%d", sent, delivered)
	}
	check(res, "traffic flowed", err)
}

// percentile returns the p-quantile (0..1) of xs by nearest rank.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
