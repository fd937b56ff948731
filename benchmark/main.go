// Command benchmark measures what a researcher pays to run a seeded
// VINI experiment: host time per simulated second, the time to stand
// the world up, host memory and CPU — on five fixed workloads, with
// the engine as the only thing inside the clock. See README.md.
//
//	bash benchmark/run.sh                              every workload, scored
//	bash benchmark/run.sh -workload abilene_cbr        one workload (driver contract)
//	bash benchmark/run.sh -trace 1 -tracedir DIR       traced run: per-layer table, DIR/trace.json
//	bash benchmark/run.sh -verify                      rerun each seed, statistics must be identical
//	bash benchmark/run.sh -compare A.json B.json       before/after table against the declared bounds
package main

import (
	"bytes"
	"encoding/json"

	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"vini/internal/simtest"
)

var (
	workloadFlag = flag.String("workload", "", "run one workload and print the driver's result line (default: all five, full report)")
	seedFlag     = flag.Int64("seed", 2, "workload seed: generates the world, seeds the engine")
	secondsFlag  = flag.Float64("seconds", runSeconds, "size of the timed region, in wall seconds on the reference host")
	traceFlag    = flag.Int("trace", 0, "1: traced run (spans, counters, probes) reporting the per-layer metrics")
	traceDirFlag = flag.String("tracedir", "", "with -trace 1: write trace.json (Chrome trace-event format) and layers.txt here")
	smokeFlag    = flag.Bool("smoke", false, "tiny worlds and windows (for the smoke test)")
	verifyFlag   = flag.Bool("verify", false, "rerun each workload with the same seed; fail unless the simulated statistics are identical")
	compareFlag  = flag.Bool("compare", false, "compare two reports: -compare A.json B.json")
	outFlag      = flag.String("out", "", "write the full report JSON here")
	cpuProfFlag  = flag.String("cpuprofile", "", "directory for one CPU profile per workload (timed region of the scored run)")
	memProfFlag  = flag.String("memprofile", "", "directory for one allocation profile per workload")
	manifestFlag = flag.Bool("manifest", false, "print BENCHMARK.json as generated from the metric tables")

	// Child-process flags, set only by this program when it re-executes
	// itself.
	childFlag     = flag.Bool("child", false, "internal: run one workload in this process and print its result")
	spawnedFlag   = flag.Int64("spawned", 0, "internal: parent's clock (Unix ns) at spawn")
	spansFlag     = flag.Bool("spans", false, "internal: record spans")
	workersFlag   = flag.Int("workers", 1, "internal: executor worker budget on *_domains")
	telemetryFlag = flag.Bool("telemetry", false, "internal: enable the telemetry layer")
	setupOnlyFlag = flag.Bool("setuponly", false, "internal: stop at the first Run call")
)

// Set-up is timed in several fresh processes and setup_s is their
// median: at least setupSamples of them, and for worlds that build in
// milliseconds (where process start dominates and jitters) as many more
// as fit in setupBudget, up to maxSetupSamples.
const (
	setupSamples    = 5
	maxSetupSamples = 31
	setupBudget     = time.Second
)

func main() {
	procStart := time.Now()
	flag.Parse()
	if err := run(procStart); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func usageError(format string, args ...any) error {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
	return nil
}

func run(procStart time.Time) error {
	if *compareFlag {
		if flag.NArg() != 2 {
			return usageError("-compare takes exactly two report files")
		}
		return compare(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return usageError("unexpected argument %q", flag.Arg(0))
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return usageError("-trace must be 0 or 1")
	}
	if *secondsFlag <= 0 {
		return usageError("-seconds must be positive")
	}
	names := make([]string, 0, len(workloads))
	for _, w := range workloads {
		names = append(names, w.name)
	}
	if *workloadFlag != "" {
		if _, ok := findWorkload(*workloadFlag); !ok {
			return usageError("unknown workload %q (have %v)", *workloadFlag, names)
		}
		names = []string{*workloadFlag}
	}
	if *manifestFlag {
		data, err := manifest()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(data)
		return err
	}
	if *childFlag {
		// In a child -cpuprofile and -memprofile name the file to write;
		// the parent turns its directories into per-workload paths.
		cfg := runConfig{Workload: *workloadFlag, Seed: *seedFlag, Seconds: *secondsFlag,
			Smoke: *smokeFlag, Spans: *spansFlag, Workers: *workersFlag,
			Telemetry: *telemetryFlag, SetupOnly: *setupOnlyFlag,
			CPUProfile: *cpuProfFlag, MemProfile: *memProfFlag}
		if *spawnedFlag > 0 {
			cfg.Startup = procStart.Sub(time.Unix(0, *spawnedFlag))
		}
		res, err := runChild(cfg)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(res)
	}

	rep := &report{Benchmark: "vini-benchmark/1", Host: hostInfo(), Seed: *seedFlag,
		Seconds: *secondsFlag, Smoke: *smokeFlag, Traced: *traceFlag == 1}
	// Scored runs are skipped only for the driver's traced invocation,
	// which wants the per-layer metrics alone.
	scored := !(*traceFlag == 1 && *workloadFlag != "")
	var probes map[string]probeResult
	var regime *simtest.ScaleResult
	spans := make(map[string][]span)
	for _, name := range names {
		wr := workloadReport{Name: name}
		if scored {
			if err := scoredRun(&wr); err != nil {
				return err
			}
		}
		if *traceFlag == 1 {
			if probes == nil {
				var err error
				if probes, err = runProbes(*seedFlag, *smokeFlag); err != nil {
					return err
				}
				slices := 100
				if *smokeFlag {
					slices = 12
				}
				if regime, err = simtest.RunScale(simtest.ScaleOptions{Seed: *seedFlag, Slices: slices}); err != nil {
					return fmt.Errorf("simtest scale regime: %w", err)
				}
				if regime.Failed() {
					return fmt.Errorf("simtest scale regime: %d invariant violations", len(regime.Violations))
				}
			}
			s, err := tracedRun(&wr, probes, regime)
			if err != nil {
				return err
			}
			spans[name] = s
		}
		rep.Workloads = append(rep.Workloads, wr)
		wr.print(os.Stderr)
	}
	if *traceDirFlag != "" && *traceFlag == 1 {
		if err := os.MkdirAll(*traceDirFlag, 0o755); err != nil {
			return err
		}
		if err := writeChromeTrace(filepath.Join(*traceDirFlag, "trace.json"), spans, names); err != nil {
			return err
		}
		var buf bytes.Buffer
		for _, wr := range rep.Workloads {
			wr.printLayers(&buf)
		}
		if err := os.WriteFile(filepath.Join(*traceDirFlag, "layers.txt"), buf.Bytes(), 0o644); err != nil {
			return err
		}
	}

	full, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	full = append(full, '\n')
	if *outFlag != "" {
		if err := os.WriteFile(*outFlag, full, 0o644); err != nil {
			return err
		}
	}
	if *workloadFlag == "" {
		os.Stdout.Write(full)
	} else {
		// The driver's contract: one JSON object on the last line.
		wr := rep.Workloads[0]
		metrics := wr.EndToEnd
		if *traceFlag == 1 {
			metrics = wr.PerLayer
		}
		line, err := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{wr.ok(), wr.OpsAttempted, wr.OpsFailed, metrics})
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", line)
	}
	for _, wr := range rep.Workloads {
		if !wr.ok() {
			return fmt.Errorf("%s: %d of %d correctness operations failed: %v",
				wr.Name, wr.OpsFailed, wr.OpsAttempted, wr.Failures)
		}
	}
	return nil
}

// report is the full JSON report; -compare reads two of them.
type report struct {
	Benchmark string           `json:"benchmark"`
	Host      hostBlock        `json:"host"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Smoke     bool             `json:"smoke,omitempty"`
	Traced    bool             `json:"traced"`
	Workloads []workloadReport `json:"workloads"`
	// Claim is always null: this benchmark defines the baseline and
	// claims no gain. It stays the last key of the report.
	Claim *string `json:"claim"`
}

type workloadReport struct {
	Name     string                 `json:"name"`
	EndToEnd map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer map[string]metricValue `json:"per_layer,omitempty"`
	// Stats is the simulated-statistics block: behaviour, not score.
	Stats        statsBlock `json:"stats"`
	OpsAttempted int        `json:"ops_attempted"`
	OpsFailed    int        `json:"ops_failed"`
	Failures     []string   `json:"failures,omitempty"`
	// Verified is set by -verify: a same-seed rerun reproduced Stats.
	Verified *bool `json:"verified,omitempty"`
	// CalibMS is host.calib_ms before and after the run; Noisy marks a
	// difference above 10 %, so a neighbour's burst is not read as a
	// regression.
	CalibMS   [2]float64 `json:"host_calib_ms"`
	Noisy     bool       `json:"noisy"`
	SpanStats []spanStat `json:"span_stats,omitempty"`
}

func (wr *workloadReport) ok() bool { return wr.OpsFailed == 0 && wr.OpsAttempted > 0 }

// absorb folds one child's correctness gate and noise check into the
// workload's report.
func (wr *workloadReport) absorb(r *result) {
	wr.OpsAttempted += r.OpsAttempted
	wr.OpsFailed += r.OpsFailed
	wr.Failures = append(wr.Failures, r.Failures...)
	wr.Noisy = wr.Noisy || r.Noisy
}

// check records one cross-run operation of the correctness gate.
func (wr *workloadReport) check(ok bool, format string, args ...any) {
	wr.OpsAttempted++
	if !ok {
		wr.OpsFailed++
		wr.Failures = append(wr.Failures, fmt.Sprintf(format, args...))
	}
}

// spawn re-executes this binary as a fresh child for one run.
func spawn(name string, extra ...string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", name,
		"-seed", strconv.FormatInt(*seedFlag, 10),
		"-seconds", strconv.FormatFloat(*secondsFlag, 'g', -1, 64)}
	if *smokeFlag {
		args = append(args, "-smoke")
	}
	args = append(args, extra...)
	args = append(args, "-spawned", strconv.FormatInt(time.Now().UnixNano(), 10))
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child %v: %w", name, extra, err)
	}
	var res result
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("%s child %v: bad result: %w", name, extra, err)
	}
	return &res, nil
}

// scoredRun takes the end-to-end metrics: set-up timed in several fresh
// processes, then one full untraced run.
func scoredRun(wr *workloadReport) error {
	var setups []float64
	least, most := setupSamples, maxSetupSamples
	if *smokeFlag {
		least, most = 2, 2
	}
	// The full run below contributes the last sample.
	for start := time.Now(); len(setups) < most-1 &&
		(len(setups) < least-1 || time.Since(start) < setupBudget); {
		r, err := spawn(wr.Name, "-setuponly")
		if err != nil {
			return err
		}
		setups = append(setups, r.SetupS)
	}
	var extra []string
	for _, p := range []struct{ dir, flag, ext string }{
		{*cpuProfFlag, "-cpuprofile", ".cpu.pprof"}, {*memProfFlag, "-memprofile", ".mem.pprof"}} {
		if p.dir == "" {
			continue
		}
		if err := os.MkdirAll(p.dir, 0o755); err != nil {
			return err
		}
		extra = append(extra, p.flag, filepath.Join(p.dir, wr.Name+p.ext))
	}
	r, err := spawn(wr.Name, extra...)
	if err != nil {
		return err
	}
	setups = append(setups, r.SetupS)
	wr.EndToEnd = endToEndMetrics(r, setups)
	wr.Stats = r.Stats
	wr.CalibMS = r.CalibMS
	wr.absorb(r)
	if *verifyFlag {
		again, err := spawn(wr.Name)
		if err != nil {
			return err
		}
		wr.absorb(again)
		same := again.Stats == r.Stats
		wr.Verified = &same
		wr.check(same, "verify: same-seed rerun diverged: %+v vs %+v", r.Stats, again.Stats)
	}
	return nil
}

// tracedRun takes the per-layer metrics: the workload untraced and then
// traced at half size (so a traced invocation costs about what a scored
// one does), plus the reruns individual rows need.
func tracedRun(wr *workloadReport, probes map[string]probeResult, regime *simtest.ScaleResult) ([]span, error) {
	spec, _ := findWorkload(wr.Name)
	half := []string{"-seconds", strconv.FormatFloat(*secondsFlag/2, 'g', -1, 64)}
	in := traceInputs{probes: probes, regimeS: regime.RunSeconds, regimeEvents: regime.Events}
	var err error
	if in.untraced, err = spawn(wr.Name, half...); err != nil {
		return nil, err
	}
	if in.traced, err = spawn(wr.Name, append(half, "-spans")...); err != nil {
		return nil, err
	}
	wr.absorb(in.untraced)
	wr.absorb(in.traced)
	if spec.domains {
		// The only run with more than one worker goroutine.
		if in.x2, err = spawn(wr.Name, append(half, "-workers", "2")...); err != nil {
			return nil, err
		}
		wr.absorb(in.x2)
		wr.check(in.x2.Stats.ScheduleDigest == in.untraced.Stats.ScheduleDigest,
			"two-worker schedule digest differs from one-worker")
	}
	if wr.Name == "abilene_cbr" {
		if in.telemetry, err = spawn(wr.Name, append(half, "-telemetry")...); err != nil {
			return nil, err
		}
		wr.absorb(in.telemetry)
	}
	wr.PerLayer = perLayerMetrics(in)
	wr.SpanStats = aggregate(in.traced.Spans)
	if wr.EndToEnd == nil {
		wr.Stats = in.untraced.Stats
		wr.CalibMS = in.untraced.CalibMS
	}
	return in.traced.Spans, nil
}

// print writes the human-readable summary of one workload.
func (wr *workloadReport) print(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", wr.Name)
	for _, d := range endToEnd {
		if m, ok := wr.EndToEnd[d.name]; ok {
			fmt.Fprintf(w, "  %-18s %14.4f %s\n", d.name, m.Value, m.Unit)
		}
	}
	s := wr.Stats
	fmt.Fprintf(w, "  simulated: events=%d sent=%d delivered=%d goodput_mbps=%.3f schedule_digest=%s\n",
		s.Events, s.Sent, s.Delivered, s.GoodputMbps, s.ScheduleDigest)
	fmt.Fprintf(w, "  ops_attempted=%d ops_failed=%d host.calib_ms=%.2f/%.2f noisy=%v",
		wr.OpsAttempted, wr.OpsFailed, wr.CalibMS[0], wr.CalibMS[1], wr.Noisy)
	if wr.Verified != nil {
		fmt.Fprintf(w, " verified=%v", *wr.Verified)
	}
	fmt.Fprintln(w)
	for _, f := range wr.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	if wr.PerLayer != nil {
		wr.printLayers(w)
	}
}

// printLayers writes the per-layer table: every declared metric with
// its source and the end-to-end metric it is expected to move.
func (wr *workloadReport) printLayers(w io.Writer) {
	fmt.Fprintf(w, "  per-layer metrics for %s (S span, C counter, P probe):\n", wr.Name)
	for _, d := range perLayer {
		m := wr.PerLayer[d.name]
		fmt.Fprintf(w, "  %-36s %16.4f %-6s %s  -> %s\n", d.name, m.Value, m.Unit, d.src, d.moves)
	}
	stats := append([]spanStat(nil), wr.SpanStats...)
	sort.Slice(stats, func(i, j int) bool { return stats[i].SelfMS > stats[j].SelfMS })
	fmt.Fprintf(w, "  span self time (duration minus children):\n")
	for _, s := range stats {
		fmt.Fprintf(w, "  %-36s %8d calls %12.3f ms wall %12.3f ms self  [%s]\n",
			s.Name, s.Calls, s.WallMS, s.SelfMS, s.Layer)
	}
}
