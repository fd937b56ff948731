package main

import (
	"fmt"
	"os"

	"vini/internal/simtest"
)

// scaleRow is the run's outcome in the BENCH_scale.json report.
type scaleRow struct {
	engineRow
	Sent      uint64 `json:"sent"`
	Delivered uint64 `json:"delivered"`
}

type scaleReport struct {
	Seed       int64   `json:"seed"`
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
		Slices: *scaleSlices,
	}
	if opts.Slices == 0 {
		opts.Slices = count(500, 150)
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
	rep := scaleReport{Seed: *seedFlag, Topology: "synthetic"}
	if *topoFlag != "" {
		rep.Topology = *topoFlag
	}
	fmt.Printf("scale regime: %d slices, seed %d\n", opts.Slices, opts.Seed)
	columns := fmt.Sprintf("%-14s %12s %10s %12s %18s %18s",
		"engine", "events", "sent", "delivered", "digest", "schedule")
	var err error
	rep.engineLegs, err = forEngines(columns, func(workers int) (*scaleRow, error) {
		o := opts
		o.Workers = workers
		r, err := simtest.RunScale(o)
		if err != nil {
			return nil, err
		}
		if r.Failed() {
			fmt.Printf("%s\n", r)
			return nil, fmt.Errorf("%d invariant violations", len(r.Violations))
		}
		row := &scaleRow{engineRow: measured(&r.Outcome), Sent: r.Sent, Delivered: r.Delivered}
		fmt.Printf("domains x%-5d %12d %10d %12d %18s %18s\n", workers,
			row.Events, row.Sent, row.Delivered, row.Digest, row.Schedule)
		rep.Nodes, rep.Links, rep.Slices = r.Nodes, r.Links, r.Slices
		rep.VNodes, rep.Flows, rep.OfferedBps = r.VNodes, r.Flows, r.OfferedBps
		return row, nil
	})
	if err != nil {
		return err
	}
	return rep.gate("scale", rep)
}
