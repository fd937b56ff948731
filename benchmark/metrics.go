package main

// The metric declarations: BENCHMARK.json is generated from these
// tables (-manifest) and the smoke test fails if the two disagree, so
// the names a run emits, the names the manifest declares and the names
// later issues cite cannot drift apart.

import (
	"encoding/json"
	"sort"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndDef declares one end-to-end metric. All are lower-is-better.
type endToEndDef struct {
	name, unit string
	// bound is the share of the parent's median by which the metric may
	// worsen before a change counts as a regression.
	bound float64
	// floor is an absolute slack in the metric's unit: a difference
	// smaller than this is never a regression (setup_s on the Abilene
	// worlds is a few milliseconds of process start).
	floor float64
}

// The bounds are sized to what the 2-core reference host resolves, not
// to what one would like to resolve: it flips between two speed states
// 28 % apart (the spin calibration reads 17.6 or 22.5 ms) for seconds to
// minutes at a time, and allocation counts differ by up to 3 % between
// seeds on the scale worlds (they repeat to 0.1 % for one seed). Each
// bound is at least three times the spread seen over ten seeds. "vs" in
// a unit is a virtual second.
var endToEnd = []endToEndDef{
	// wall from child-process start to the first Run call; median over 5 to 31 fresh processes
	{"setup_s", "s", 0.25, 0.05},
	// wall of the timed region / its virtual seconds (a ratio over the region, not a median of windows). Primary metric
	{"wall_ms_per_vs", "ms/vs", 0.25, 0},
	// user+sys CPU of the child over the timed region (getrusage) / virtual seconds
	{"cpu_ms_per_vs", "ms/vs", 0.25, 0},
	// runtime.MemStats.Mallocs delta over the timed region / virtual seconds
	{"allocs_per_vs", "1/vs", 0.10, 0},
	// runtime.MemStats.TotalAlloc delta over the timed region / virtual seconds
	{"alloc_mb_per_vs", "MB/vs", 0.05, 0},
	// ru_maxrss of the fresh child process at the end of the timed region
	{"peak_rss_mb", "MB", 0.20, 0},
}

// Sources of a per-layer number, all outside-in.
const (
	srcSpan    = "S" // spans around the benchmark's own calls
	srcCounter = "C" // exported counters read before/after the timed region
	srcProbe   = "P" // isolated loop over one layer's exported functions
)

// layerDef declares one per-layer metric and, written down before any
// measurement, which end-to-end metric it should move on which workload.
type layerDef struct {
	name, unit, better, src string
	moves                   string
}

var perLayer = []layerDef{
	{"sim.events_per_vs", "1/vs", "lower", srcCounter, "wall_ms_per_vs on all"},
	{"sim.ns_per_event", "ns", "lower", srcCounter, "wall_ms_per_vs on all"},
	{"sim.events_per_s", "1/s", "higher", srcCounter, "wall_ms_per_vs on all"},
	{"sim.events_per_pkt", "ratio", "lower", srcCounter, "wall_ms_per_vs on abilene_*"},
	{"sim.window_ms_p50", "ms", "lower", srcSpan, "wall_ms_per_vs on all"},
	{"sim.window_ms_p95", "ms", "lower", srcSpan, "tail of wall_ms_per_vs on all; GC and SPF bursts"},
	{"sim.window_samples", "count", "higher", srcSpan, "sample count behind the window percentiles"},
	{"sim.windows_per_vs", "1/vs", "lower", srcCounter, "wall_ms_per_vs on *_domains only"},
	{"sim.msgs_per_train", "ratio", "higher", srcCounter, "wall_ms_per_vs on *_domains only"},
	{"sim.deliveries_per_vs", "1/vs", "lower", srcCounter, "wall_ms_per_vs on *_domains only"},
	{"sim.fallbacks", "count", "lower", srcCounter, "wall_ms_per_vs on *_domains only"},
	{"sim.park_ms", "ms", "lower", srcCounter, "wall_ms_per_vs on *_domains only"},
	{"sim.speedup_x2_over_x1", "x", "higher", srcSpan, "informational; cpu_ms_per_vs on *_domains (0 elsewhere)"},
	{"sim.schedule_fire_ns", "ns", "lower", srcProbe, "wall_ms_per_vs on all; largest share on scale_ospf*"},
	{"sim.tickwheel_ns", "ns", "lower", srcProbe, "wall_ms_per_vs on all; largest share on scale_ospf*"},
	{"sim.timer_stop_ns", "ns", "lower", srcProbe, "wall_ms_per_vs on abilene_tcp"},
	{"sim.xdomain_send_ns", "ns", "lower", srcProbe, "wall_ms_per_vs on *_domains only"},
	{"netem.link_hop_ns", "ns", "lower", srcProbe, "wall_ms_per_vs on abilene_*"},
	{"netem.kernel_fwd_ns", "ns", "lower", srcProbe, "wall_ms_per_vs on abilene_*"},
	{"netem.build_ms", "ms", "lower", srcSpan, "setup_s on scale_ospf*"},
	{"netem.pkts_per_vs", "1/vs", "lower", srcCounter, "behaviour guard: must not move in a perf change"},
	{"netem.drops_per_vs", "1/vs", "lower", srcCounter, "behaviour guard: must not move in a perf change"},
	{"click.forward_ns", "ns", "lower", srcProbe, "wall_ms_per_vs on abilene_cbr*"},
	{"fib.lookup_ns", "ns", "lower", srcProbe, "wall_ms_per_vs on abilene_*"},
	{"fib.cache_lookup_ns", "ns", "lower", srcProbe, "wall_ms_per_vs on abilene_*"},
	{"fib.install_ns", "ns", "lower", srcProbe, "wall_ms_per_vs on scale_ospf*; a lookup win that slows install shows here"},
	{"packet.get_release_ns", "ns", "lower", srcProbe, "wall_ms_per_vs on abilene_*"},
	{"packet.encap_ns", "ns", "lower", srcProbe, "wall_ms_per_vs on abilene_*"},
	{"packet.checksum_1500_ns", "ns", "lower", srcProbe, "wall_ms_per_vs on abilene_*"},
	{"packet.wire_roundtrip_ns", "ns", "lower", srcProbe, "wall_ms_per_vs on abilene_*"},
	{"packet.gets_per_vs", "1/vs", "lower", srcCounter, "allocs_per_vs on abilene_*"},
	{"packet.escapes_per_vs", "1/vs", "lower", srcCounter, "allocs_per_vs on abilene_*"},
	{"sched.dispatch_ns", "ns", "lower", srcProbe, "wall_ms_per_vs on abilene_* (PlanetLab profile)"},
	{"ospf.hello_rx_ns", "ns", "lower", srcProbe, "wall_ms_per_vs, allocs_per_vs on scale_ospf*"},
	{"ospf.lsu_rx_ns", "ns", "lower", srcProbe, "wall_ms_per_vs, allocs_per_vs on scale_ospf*"},
	{"ospf.marshal_lsu_ns", "ns", "lower", srcProbe, "wall_ms_per_vs, allocs_per_vs on scale_ospf*"},
	{"ospf.spf_us", "us", "lower", srcProbe, "wall_ms_per_vs, allocs_per_vs on scale_ospf*"},
	{"rip.update_rx_ns", "ns", "lower", srcProbe, "none today (no workload runs RIP)"},
	{"fea.set_routes_us", "us", "lower", srcProbe, "wall_ms_per_vs on scale_ospf*"},
	{"tcpm.segment_ns", "ns", "lower", srcProbe, "wall_ms_per_vs, alloc_mb_per_vs on abilene_tcp"},
	{"traffic.cbr_pkt_ns", "ns", "lower", srcProbe, "wall_ms_per_vs on abilene_cbr*"},
	{"traffic.start_ms", "ms", "lower", srcSpan, "setup_s on scale_ospf*"},
	{"topology.shortest_paths_us", "us", "lower", srcProbe, "setup_s on scale_ospf*"},
	{"core.build_ms", "ms", "lower", srcSpan, "setup_s on scale_ospf*"},
	{"core.create_slice_us", "us", "lower", srcSpan, "setup_s on scale_ospf*"},
	{"core.add_vnode_us", "us", "lower", srcSpan, "setup_s on scale_ospf*"},
	{"core.connect_virtual_us", "us", "lower", srcSpan, "setup_s on scale_ospf* (physPath reruns ShortestPaths per call)"},
	{"core.destroy_slice_us", "us", "lower", srcProbe, "none end to end; lifecycle cost row"},
	{"core.pause_resume_us", "us", "lower", srcProbe, "none end to end; lifecycle cost row"},
	{"core.migrate_ms", "ms", "lower", srcProbe, "none end to end; lifecycle cost row"},
	{"core.teardown_ms", "ms", "lower", srcSpan, "none end to end; lifecycle cost row"},
	{"phase.converge_ms", "ms", "lower", srcSpan, "wall_ms_per_vs on scale_ospf*; warm-up and unscored on abilene_*"},
	{"phase.steady_ms", "ms", "lower", srcSpan, "wall_ms_per_vs on abilene_* (0 on scale_ospf*)"},
	{"phase.flap_ms", "ms", "lower", srcSpan, "wall_ms_per_vs on scale_ospf* (0 on abilene_*)"},
	{"phase.drain_ms", "ms", "lower", srcSpan, "none; outside every score"},
	{"check.audit_ms", "ms", "lower", srcSpan, "none; driver and checker time, outside every score"},
	{"runtime.gc_cpu_frac", "frac", "lower", srcCounter, "cpu_ms_per_vs then wall_ms_per_vs; abilene_tcp most"},
	{"runtime.gc_cycles_per_vs", "1/vs", "lower", srcCounter, "cpu_ms_per_vs; abilene_tcp most"},
	{"runtime.gc_pause_ms", "ms", "lower", srcCounter, "wall_ms_per_vs; abilene_tcp most"},
	{"runtime.allocs_per_event", "ratio", "lower", srcCounter, "allocs_per_vs on all"},
	{"runtime.bytes_per_event", "B", "lower", srcCounter, "alloc_mb_per_vs on all"},
	{"telemetry.overhead_frac", "frac", "lower", srcSpan, "wall_ms_per_vs on abilene_cbr if telemetry became default-on (0 elsewhere)"},
	{"telemetry.counter_add_ns", "ns", "lower", srcProbe, "as telemetry.overhead_frac"},
	{"telemetry.snapshot_ms", "ms", "lower", srcProbe, "none; export path"},
	{"simtest.scale_regime_s", "s", "lower", srcSpan, "none; where a fibFingerprint fix shows, checker time being excluded from the workloads"},
	{"simtest.scale_regime_events_per_s", "1/s", "higher", srcSpan, "as simtest.scale_regime_s"},
	{"trace.overhead_frac", "frac", "lower", srcSpan, "traced wall / untraced wall - 1"},
}

// runSeconds is BENCHMARK.json's run_seconds: the -seconds every
// driver run passes.
const runSeconds = 10

// manifest renders BENCHMARK.json.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type pl struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []pl     `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.name, d.unit, "lower", d.bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, pl{d.name, d.unit, d.better})
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// endToEndMetrics derives the six scored metrics from the untraced run
// and the set-up samples.
func endToEndMetrics(r *result, setups []float64) map[string]metricValue {
	sort.Float64s(setups)
	vs := r.TimedVS
	vals := map[string]float64{
		"setup_s":         setups[len(setups)/2],
		"wall_ms_per_vs":  r.WallMS / vs,
		"cpu_ms_per_vs":   r.CPUMS / vs,
		"allocs_per_vs":   float64(r.Mallocs) / vs,
		"alloc_mb_per_vs": float64(r.AllocBytes) / 1e6 / vs,
		"peak_rss_mb":     r.PeakRSSMB,
	}
	out := make(map[string]metricValue, len(endToEnd))
	for _, d := range endToEnd {
		out[d.name] = metricValue{vals[d.name], d.unit}
	}
	return out
}

// ratio is a/b, 0 when b is 0 (a metric the workload does not exercise).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traceInputs is everything the per-layer table is derived from.
type traceInputs struct {
	untraced, traced *result
	// x2 is the two-worker rerun (*_domains only), telemetry the
	// telemetry-enabled rerun (abilene_cbr only); nil elsewhere.
	x2, telemetry *result
	probes        map[string]probeResult
	// regimeS/regimeEvents are simtest.RunScale's own run seconds and
	// event count at 100 slices.
	regimeS      float64
	regimeEvents uint64
}

// perLayerMetrics derives every declared per-layer metric.
func perLayerMetrics(in traceInputs) map[string]metricValue {
	t := in.traced
	c := t.Counters
	vs := t.TimedVS
	ev := float64(c.Events)
	vals := map[string]float64{
		"sim.events_per_vs":                 ev / vs,
		"sim.ns_per_event":                  ratio(t.WallMS*1e6, ev),
		"sim.events_per_s":                  ratio(ev, t.WallMS/1e3),
		"sim.events_per_pkt":                ratio(ev, float64(c.Delivered)),
		"sim.window_ms_p50":                 percentile(t.WindowMS, 0.50),
		"sim.window_ms_p95":                 percentile(t.WindowMS, 0.95),
		"sim.window_samples":                float64(len(t.WindowMS)),
		"sim.windows_per_vs":                float64(c.Windows) / vs,
		"sim.msgs_per_train":                ratio(float64(c.TrainMsgs), float64(c.Trains)),
		"sim.deliveries_per_vs":             float64(c.Deliveries) / vs,
		"sim.fallbacks":                     float64(c.Fallbacks),
		"sim.park_ms":                       float64(c.ParkNS) / 1e6,
		"netem.pkts_per_vs":                 float64(c.Pkts) / vs,
		"netem.drops_per_vs":                float64(c.Drops) / vs,
		"packet.gets_per_vs":                float64(c.Gets) / vs,
		"packet.escapes_per_vs":             float64(c.Escapes) / vs,
		"phase.converge_ms":                 t.Phase["converge_ms"],
		"phase.steady_ms":                   t.Phase["steady_ms"],
		"phase.flap_ms":                     t.Phase["flap_ms"],
		"phase.drain_ms":                    t.Phase["drain_ms"],
		"check.audit_ms":                    t.Phase["audit_ms"],
		"core.teardown_ms":                  t.Phase["teardown_ms"],
		"runtime.gc_cpu_frac":               ratio(c.GCCPUSeconds*1e3, t.CPUMS),
		"runtime.gc_cycles_per_vs":          float64(c.GCCycles) / vs,
		"runtime.gc_pause_ms":               float64(c.GCPauseNS) / 1e6,
		"runtime.allocs_per_event":          ratio(float64(t.Mallocs), ev),
		"runtime.bytes_per_event":           ratio(float64(t.AllocBytes), ev),
		"trace.overhead_frac":               ratio(t.WallMS/t.TimedVS, in.untraced.WallMS/in.untraced.TimedVS) - 1,
		"simtest.scale_regime_s":            in.regimeS,
		"simtest.scale_regime_events_per_s": ratio(float64(in.regimeEvents), in.regimeS),
	}
	if in.x2 != nil {
		vals["sim.speedup_x2_over_x1"] = ratio(in.untraced.WallMS, in.x2.WallMS)
	}
	if in.telemetry != nil {
		vals["telemetry.overhead_frac"] = ratio(in.telemetry.WallMS, in.untraced.WallMS) - 1
	}
	// Span aggregates: totals for the build phases, means for the
	// per-call constructors.
	stats := make(map[string]spanStat)
	for _, s := range aggregate(t.Spans) {
		stats[s.Name] = s
	}
	vals["netem.build_ms"] = stats["netem.build"].WallMS
	vals["traffic.start_ms"] = stats["traffic.start"].WallMS
	vals["core.build_ms"] = stats["core.build"].WallMS
	mean := func(name string) float64 {
		s := stats[name]
		return ratio(s.WallMS*1e3, float64(s.Calls))
	}
	vals["core.create_slice_us"] = mean("core.CreateSlice")
	vals["core.add_vnode_us"] = mean("core.AddVirtualNode")
	vals["core.connect_virtual_us"] = mean("core.ConnectVirtual")
	for name, p := range in.probes {
		vals[name] = p.Value
	}
	out := make(map[string]metricValue, len(perLayer))
	for _, d := range perLayer {
		out[d.name] = metricValue{vals[d.name], d.unit}
	}
	return out
}
