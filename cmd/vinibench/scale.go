package main

import (
	"fmt"
	"os"

	"vini/internal/simtest"
)

// scaleRow is one engine configuration's measurement in the
// BENCH_scale.json report.
type scaleRow struct {
	engineRow
	BuildSeconds float64 `json:"build_seconds"`
	RunSeconds   float64 `json:"run_seconds"`
	Sent         uint64  `json:"sent"`
	Delivered    uint64  `json:"delivered"`
}

type scaleReport struct {
	benchHeader
	Topology   string  `json:"topology"`
	Nodes      int     `json:"nodes"`
	Links      int     `json:"links"`
	Slices     int     `json:"slices"`
	VNodes     int     `json:"vnodes"`
	Flows      int     `json:"flows"`
	OfferedBps float64 `json:"offered_bps"`
	engineLegs[*scaleRow]
}

// scaleExp runs the scale-regime scenario — hundreds of slices on a
// REPETITA topology, far past the old 126-slice ceiling — on 1, 2 and 4
// workers, checks digest parity, and writes BENCH_scale.json. External REPETITA files plug in via
// -topo/-demands; otherwise the pinned synthetic topology is used.
func scaleExp() error {
	opts := simtest.ScaleOptions{
		Seed:   *seedFlag,
		Nodes:  *scaleNodes,
		Slices: count(*scaleSlices, 150),
	}
	if *topoFlag != "" {
		g, err := os.ReadFile(*topoFlag)
		if err != nil {
			return fmt.Errorf("scale: %w", err)
		}
		opts.GraphText = string(g)
		d, err := os.ReadFile(*demandsFlag)
		if err != nil {
			return fmt.Errorf("scale: %w", err)
		}
		opts.DemandsText = string(d)
	}
	rep := scaleReport{benchHeader: newHeader(), Topology: "synthetic"}
	if *topoFlag != "" {
		rep.Topology = *topoFlag
	}
	fmt.Printf("scale regime: %d slices, seed %d\n", opts.Slices, opts.Seed)
	columns := fmt.Sprintf("%-14s %8s %8s %12s %14s %10s %12s",
		"engine", "build", "run", "events", "events/sec", "sent", "delivered")
	var err error
	rep.engineLegs, err = forEngines(&rep.benchHeader, columns, func(leg engineRow) (*scaleRow, error) {
		o := opts
		o.Workers = leg.Workers
		r, err := simtest.RunScale(o)
		if err != nil {
			return nil, err
		}
		if r.Failed() {
			fmt.Printf("%s\n", r)
			return nil, fmt.Errorf("%d invariant violations", len(r.Violations))
		}
		row := &scaleRow{engineRow: leg.measured(&r.Outcome),
			BuildSeconds: r.BuildSeconds, RunSeconds: r.RunSeconds,
			Sent: r.Sent, Delivered: r.Delivered}
		fmt.Printf("%-14s %7.2fs %7.2fs %12d %14.0f %10d %12d\n",
			row.Name, row.BuildSeconds, row.RunSeconds, row.Events,
			row.EventsPerSec, row.Sent, row.Delivered)
		rep.Nodes, rep.Links, rep.Slices = r.Nodes, r.Links, r.Slices
		rep.VNodes, rep.Flows, rep.OfferedBps = r.VNodes, r.Flows, r.OfferedBps
		return row, nil
	})
	if err != nil {
		return err
	}
	return rep.gate("scale", rep, func(base baseline) bool {
		return base.Slices == rep.Slices && base.Nodes == rep.Nodes
	})
}
