// Command vinibench regenerates every table and figure in the paper's
// Section 5 evaluation and prints paper-reported values beside the
// measured ones. See EXPERIMENTS.md for a captured run.
//
// The scale, adaptive, churn and migrate experiments also write
// BENCH_<exp>.json. vinibench reads no host clock and no host
// shape, so those reports are a function of the flags alone and the
// committed ones are goldens; what a run costs is measured by
// `bash benchmark/run.sh`.
//
// Usage:
//
//	vinibench [-exp all|NAME] [-seed N] [-short] [-slices N] [-nodes N] [-topo F -demands F] [-v]
//
// vinibench -h lists the experiment names.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"vini/internal/experiment"
	"vini/internal/rcc"
	"vini/internal/topology"
)

// experiments is the table -exp selects from, in -exp all order.
var experiments = []struct {
	name string
	run  func() error
}{
	{"table2", table2}, {"table3", table3}, {"table4", table4}, {"table5", table5},
	{"table6", table6}, {"fig6", fig6}, {"fig7", fig7}, {"fig8", fig8}, {"fig9", fig9},
	{"ablation", ablation}, {"telemetry", telemetryExp}, {"churn", churnExp},
	{"migrate", migrateExp}, {"scale", scaleExp}, {"adaptive", adaptiveExp},
}

// expNames renders the valid -exp values.
func expNames() string {
	names := []string{"all"}
	for _, e := range experiments {
		names = append(names, e.name)
	}
	return strings.Join(names, "|")
}

var (
	expFlag     = flag.String("exp", "all", "experiment to run: "+expNames())
	seedFlag    = flag.Int64("seed", 2, "simulation seed")
	short       = flag.Bool("short", false, "shorter measurement windows")
	verbose     = flag.Bool("v", false, "print the per-domain executor profile and the JSON snapshot in the telemetry experiment")
	scaleSlices = flag.Int("slices", 0, "concurrent slice count for the scale experiment (default 500, 150 with -short)")
	scaleNodes  = flag.Int("nodes", 64, "synthetic substrate size for the scale experiment")
	topoFlag    = flag.String("topo", "", "external REPETITA .graph file for the scale experiment")
	demandsFlag = flag.String("demands", "", "external REPETITA .demands file for the scale experiment")
)

func main() {
	flag.Parse()
	os.Exit(run(os.Stderr))
}

// run executes the experiments the parsed flags select and returns the
// process exit code: 2 for a usage error, 1 for a failed experiment.
func run(stderr io.Writer) int {
	selected := experiments[:0:0]
	for _, e := range experiments {
		if *expFlag == "all" || *expFlag == e.name {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "vinibench: unknown experiment %q; valid: %s\n", *expFlag, expNames())
		return 2
	}
	if (*topoFlag == "") != (*demandsFlag == "") {
		fmt.Fprintln(stderr, "vinibench: -topo and -demands name one external topology: give both or neither")
		return 2
	}
	for _, e := range selected {
		fmt.Printf("==== %s ====\n", e.name)
		if err := e.run(); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", e.name, err)
			return 1
		}
		fmt.Println()
	}
	return 0
}

// telemetryExp reruns the Figure 8 failure scenario with the telemetry
// layer enabled and dumps what it captured: the metrics registry and
// flight-recorder digests (the values the worker-parity property pins),
// the convergence windows derived from the control-plane timeline, and
// the per-domain executor profile. With -v it also emits the full JSON
// snapshot, the machine-readable form the Section 5 harness reads.
func telemetryExp() error {
	e, err := experiment.NewAbilene(*seedFlag)
	if err != nil {
		return err
	}
	if _, err := e.Figure8(); err != nil {
		return err
	}
	tel := e.V.Telemetry()
	snap := tel.Snapshot()
	fmt.Printf("metrics: %d series (digest %016x); flight recorder: %d events, %d dropped (digest %016x)\n",
		len(snap.Metrics), snap.MetricsDigest, len(snap.Events), snap.Dropped, snap.FlightDigest)
	fmt.Println("convergence after link events (first-class query over the timeline):")
	for _, c := range snap.Convergences {
		dir := "up"
		if c.Down {
			dir = "down"
		}
		fmt.Printf("  %-28s %-4s at t=%-8v %3d installs, converged in %v\n",
			c.Link, dir, c.At, c.Installs, c.Duration)
	}
	prof := e.V.ExecutorProfile()
	fmt.Printf("executor: %d workers, %d rounds, %d windows, %d fallbacks\n",
		prof.Workers, prof.Rounds, prof.Windows, prof.Fallbacks)
	fmt.Printf("executor: %d trains carrying %d messages, %d deliveries, %d parks\n",
		prof.Trains, prof.TrainMsgs, prof.Deliveries, prof.Parks)
	if *verbose {
		for _, d := range prof.Domains {
			fmt.Printf("  dom %2d %-14s now=%-10v lookahead=%-8v fired=%-7d scheduled=%-7d sent=%-6d delivered=%-6d stalls=%d\n",
				d.ID, d.Label, d.Now, d.Lookahead, d.Fired, d.Scheduled, d.Sent, d.Delivered, d.Stalls)
		}
		js, err := tel.SnapshotJSON()
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", js)
	} else {
		fmt.Println("(run with -v for the per-domain profile and the full JSON snapshot)")
	}
	return nil
}

// ablation regenerates the design-choice studies DESIGN.md lists.
func ablation() error {
	fmt.Println("-- CPU isolation: which PL-VINI knob buys what (paper §4.1.2/§5.1.2)")
	rows, err := experiment.CPUIsolationAblation(*seedFlag, dur(12*time.Second, 8*time.Second), count(800, 300))
	if err != nil {
		return err
	}
	fmt.Printf("%-28s %10s %12s %10s\n", "configuration", "TCP Mb/s", "ping mdev", "ping max")
	for _, r := range rows {
		fmt.Printf("%-28s %10.1f %9.2fms %7.1fms\n", r.Name, r.Mbps, r.PingMdev, r.PingMax)
	}
	fmt.Println("\n-- socket buffer vs Figure 6 loss knee (45 Mb/s CBR, default share)")
	bufs, err := experiment.SocketBufferAblation(*seedFlag, []int{32, 64, 128, 256, 1024}, dur(10*time.Second, 5*time.Second))
	if err != nil {
		return err
	}
	for _, b := range bufs {
		fmt.Printf("  %5d KB buffer  loss %6.2f%%\n", b.BufferKB, b.LossPct)
	}
	fmt.Println("\n-- user-space forwarding capacity vs packet size (DETER, saturating CBR)")
	sizes, err := experiment.PacketSizeAblation(*seedFlag, []int{64, 256, 512, 1024, 1400}, dur(4*time.Second, 2*time.Second))
	if err != nil {
		return err
	}
	for _, s := range sizes {
		fmt.Printf("  %5dB payload  %8.1f Mb/s  %8.1f kpps\n", s.PayloadBytes, s.Mbps, s.KppsMeasured)
	}
	fmt.Println("\n-- BGP multiplexer: external-session load for N experiments (§6.1)")
	for _, n := range []int{2, 4, 8} {
		row, err := experiment.BGPMuxAblation(n)
		if err != nil {
			return err
		}
		fmt.Printf("  %d experiments: %d session with mux vs %d without; hijacks rejected %d, flood updates dropped %d\n",
			row.Experiments, row.SessionsWithMux, row.SessionsWithout, row.RejectedHijacks, row.RateLimitedFloods)
	}
	return nil
}

func dur(long, shortDur time.Duration) time.Duration {
	if *short {
		return shortDur
	}
	return long
}

func count(long, shortN int) int {
	if *short {
		return shortN
	}
	return long
}

func table2() error {
	fmt.Println("TCP throughput on DETER (20 iperf streams, GigE)")
	fmt.Printf("%-10s %14s %14s %8s\n", "", "paper Mb/s", "measured Mb/s", "CPU%")
	paper := map[string][2]float64{"Network": {940, 48}, "IIAS": {195, 99}}
	for _, overlay := range []bool{false, true} {
		r, err := experiment.Table2(*seedFlag, overlay, dur(10*time.Second, 3*time.Second))
		if err != nil {
			return err
		}
		p := paper[r.Name]
		fmt.Printf("%-10s %9.0f (%2.0f%%) %14.1f %7.1f\n", r.Name, p[0], p[1], r.Mbps, 100*r.CPU)
	}
	return nil
}

func table3() error {
	fmt.Println("ping on DETER (ms)")
	fmt.Printf("%-10s %28s %38s\n", "", "paper min/avg/max/mdev", "measured min/avg/max/mdev")
	paper := map[string]string{
		"Network": "0.193/0.414/0.593/0.089",
		"IIAS":    "0.269/0.547/0.783/0.080",
	}
	for _, overlay := range []bool{false, true} {
		r, err := experiment.Table3(*seedFlag, overlay, count(10000, 2000))
		if err != nil {
			return err
		}
		fmt.Printf("%-10s %28s %18.3f/%.3f/%.3f/%.3f (loss %.1f%%)\n",
			r.Name, paper[r.Name], r.Min, r.Avg, r.Max, r.Mdev, r.LossPct)
	}
	return nil
}

var modes = []experiment.Mode{experiment.ModeNative, experiment.ModeDefaultShare, experiment.ModePLVINI}

func table4() error {
	fmt.Println("TCP throughput on PlanetLab (Chicago -> Washington, 20 streams)")
	fmt.Printf("%-20s %12s %14s %8s\n", "", "paper Mb/s", "measured Mb/s", "CPU%")
	paper := map[string][2]float64{
		"Network": {90.8, 0}, "IIAS on PlanetLab": {22.5, 13}, "IIAS on PL-VINI": {86.2, 40}}
	for _, m := range modes {
		r, err := experiment.Table4(*seedFlag, m, dur(10*time.Second, 4*time.Second))
		if err != nil {
			return err
		}
		p := paper[r.Name]
		fmt.Printf("%-20s %12.1f %14.1f %7.1f\n", r.Name, p[0], r.Mbps, 100*r.CPU)
	}
	return nil
}

func table5() error {
	fmt.Println("ping on PlanetLab (ms)")
	fmt.Printf("%-20s %26s %30s\n", "", "paper min/avg/max/mdev", "measured min/avg/max/mdev")
	paper := map[string]string{
		"Network":           "24.4/24.5/28.2/0.2",
		"IIAS on PlanetLab": "24.7/27.7/80.9/4.8",
		"IIAS on PL-VINI":   "24.7/25.1/28.6/0.38",
	}
	for _, m := range modes {
		r, err := experiment.Table5(*seedFlag, m, count(3000, 800))
		if err != nil {
			return err
		}
		fmt.Printf("%-20s %26s %12.1f/%.1f/%.1f/%.2f\n",
			r.Name, paper[r.Name], r.Min, r.Avg, r.Max, r.Mdev)
	}
	return nil
}

func table6() error {
	fmt.Println("jitter on PlanetLab (ms, CBR streams 1-50 Mb/s)")
	fmt.Printf("%-20s %12s %24s\n", "", "paper mean", "measured mean (stddev)")
	paper := map[string]float64{
		"Network": 0.27, "IIAS on PlanetLab": 2.4, "IIAS on PL-VINI": 1.3}
	for _, m := range modes {
		r, err := experiment.Table6(*seedFlag, m)
		if err != nil {
			return err
		}
		fmt.Printf("%-20s %12.2f %16.2f (%.2f)\n", r.Name, paper[r.Name], r.Mean, r.Stddev)
	}
	return nil
}

func fig6() error {
	fmt.Println("packet loss vs UDP rate (Figure 6)")
	rates := []float64{1, 5, 10, 15, 20, 25, 30, 35, 40, 45}
	if *short {
		rates = []float64{5, 15, 25, 35, 45}
	}
	for _, m := range []experiment.Mode{experiment.ModeDefaultShare, experiment.ModePLVINI} {
		pts, err := experiment.Figure6(*seedFlag, m, rates, dur(10*time.Second, 5*time.Second))
		if err != nil {
			return err
		}
		fmt.Printf("%s:\n", m)
		for _, p := range pts {
			fmt.Printf("  %5.1f Mb/s  loss %6.2f%%  %s\n", p.RateMbps, p.LossPct, bar(p.LossPct))
		}
	}
	fmt.Println("paper: default share rises to ~14% at 45 Mb/s; PL-VINI stays at network level")
	return nil
}

func bar(pct float64) string {
	n := int(pct)
	if n > 60 {
		n = 60
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = '#'
	}
	return string(b)
}

func fig7() error {
	fmt.Println("Abilene topology as extracted from router configurations (Figure 7)")
	configs, err := rcc.ParseAbilene()
	if err != nil {
		return err
	}
	if probs := rcc.Check(configs); len(probs) > 0 {
		return fmt.Errorf("configuration faults: %v", probs)
	}
	g, err := rcc.BuildTopology(configs)
	if err != nil {
		return err
	}
	fmt.Printf("%d PoPs, %d links (rcc static analysis: clean)\n", len(g.Nodes()), len(g.Links()))
	for _, l := range g.Links() {
		fmt.Printf("  %-6s -- %-6s cost %4d delay %s\n", l.A, l.B, l.CostAB, l.Delay)
	}
	def := g.ShortestPaths(topology.AbileneRouterCode[topology.Washington], nil)
	p := def[topology.AbileneRouterCode[topology.Seattle]]
	fmt.Printf("default wash->sttl path: %v (RTT %v)\n", p.Hops, 2*p.Delay)
	return nil
}

func fig8() error {
	fmt.Println("ping RTT during OSPF convergence (Figure 8; fail Denver-Kansas City at t=10s, restore t=34s)")
	e, err := experiment.NewAbilene(*seedFlag)
	if err != nil {
		return err
	}
	pts, err := e.Figure8()
	if err != nil {
		return err
	}
	prev := -1.0
	for _, p := range pts {
		marker := ""
		if p.Lost {
			fmt.Printf("  t=%5.1fs  lost\n", p.T)
			prev = -1
			continue
		}
		if prev > 0 && (p.RTTms-prev > 2 || prev-p.RTTms > 2) {
			marker = "  <- path change"
		}
		if prev < 0 || marker != "" || int(p.T*5)%25 == 0 {
			fmt.Printf("  t=%5.1fs  rtt %6.1f ms%s\n", p.T, p.RTTms, marker)
		}
		prev = p.RTTms
	}
	fmt.Println("paper: 76 ms -> failure at 10 s -> no replies until ~17 s -> brief ~110 ms -> 93 ms -> restore at 34 s -> brief ~87 ms -> 76 ms")
	for _, c := range e.Convergences() {
		dir := "restore"
		if c.Down {
			dir = "failure"
		}
		fmt.Printf("telemetry: %s %s at t=%v reconverged in %v (%d route installs)\n",
			c.Link, dir, c.At, c.Duration, c.Installs)
	}
	return nil
}

func fig9() error {
	fmt.Println("TCP transfer during OSPF convergence (Figure 9; 16 KB window)")
	e, err := experiment.NewAbilene(*seedFlag)
	if err != nil {
		return err
	}
	arr, err := e.Figure9()
	if err != nil {
		return err
	}
	last := -2.0
	for _, a := range arr {
		if a.T-last >= 2 {
			fmt.Printf("  t=%5.1fs  %6.3f MB transferred\n", a.T, a.MB)
			last = a.T
		}
	}
	if n := len(arr); n > 0 {
		fmt.Printf("  t=%5.1fs  %6.3f MB transferred (final)\n", arr[n-1].T, arr[n-1].MB)
	}
	fmt.Println("paper 9(a): steady ~16KB/76ms progress, stall 10-18 s, slow-start restart, dip near 38 s")
	// 9(b): the detail around the restart.
	fmt.Println("restart detail (Figure 9(b)):")
	var restart float64
	var base float64
	for _, a := range arr {
		if a.T > 10.5 && restart == 0 {
			restart = a.T
			base = a.MB
		}
		if restart > 0 && a.T < restart+2.2 {
			fmt.Printf("  t=%7.3fs  stream position %8.0f bytes\n", a.T, (a.MB-base)*1e6)
		}
	}
	return nil
}
