package main

import (
	"fmt"

	"vini/internal/simtest"
)

// adaptivePhaseRow is one quiescent measurement point in the report:
// the controller's estimate beside the true available bandwidth.
type adaptivePhaseRow struct {
	Name         string  `json:"name"`
	AvailBps     float64 `json:"avail_bps"`
	EstimateBps  float64 `json:"estimate_bps"`
	DeliveredBps float64 `json:"delivered_bps"`
	RatioPct     float64 `json:"estimate_over_avail_pct"`
}

type adaptiveReport struct {
	Seed          int64              `json:"seed"`
	BottleneckBps float64            `json:"bottleneck_bps"`
	AltBps        float64            `json:"alt_path_bps"`
	CrossBps      float64            `json:"cross_traffic_bps"`
	Phases        []adaptivePhaseRow `json:"phases"`
	engineRow
	TracePoints int `json:"controller_updates"`
}

// adaptiveExp drives the delay-gradient adaptive sender through the
// full simtest scenario — alone, against CBR cross-traffic, across
// overlay Pause/Resume, and through a substrate reroute — and fails
// unless the run satisfies the convergence and teardown invariants. The
// per-phase estimate-vs-actual table is the paper-style readout,
// written to BENCH_adaptive.json.
func adaptiveExp() error {
	r, err := simtest.RunAdaptive(simtest.AdaptiveOptions{Seed: *seedFlag})
	if err != nil {
		return err
	}
	if r.Failed() {
		fmt.Printf("%s\n", r)
		return fmt.Errorf("%d invariant violations", len(r.Violations))
	}
	rep := adaptiveReport{Seed: *seedFlag,
		BottleneckBps: r.BottleneckBps, AltBps: r.AltBps, CrossBps: r.CrossBps,
		engineRow: measured(&r.Outcome), TracePoints: r.TracePoints}
	for _, p := range r.Phases {
		rep.Phases = append(rep.Phases, adaptivePhaseRow{
			Name: p.Name, AvailBps: p.AvailBps,
			EstimateBps: p.EstimateBps, DeliveredBps: p.DeliveredBps,
			RatioPct: 100 * p.EstimateBps / p.AvailBps,
		})
	}
	fmt.Printf("%12s %10s %18s %18s\n", "events", "updates", "digest", "schedule")
	fmt.Printf("%12d %10d %18s %18s\n", rep.Events, rep.TracePoints, rep.Digest, rep.Schedule)
	fmt.Printf("\nbottleneck %.2f Mb/s, alternate path %.2f Mb/s, CBR cross-traffic %.2f Mb/s\n",
		rep.BottleneckBps/1e6, rep.AltBps/1e6, rep.CrossBps/1e6)
	fmt.Printf("%-10s %12s %14s %14s %8s\n", "phase", "avail", "estimate", "delivered", "est/avail")
	for _, p := range rep.Phases {
		fmt.Printf("%-10s %9.0f kb %11.0f kb %11.0f kb %7.0f%%\n",
			p.Name, p.AvailBps/1e3, p.EstimateBps/1e3, p.DeliveredBps/1e3, p.RatioPct)
	}
	return writeReport("adaptive", rep)
}
