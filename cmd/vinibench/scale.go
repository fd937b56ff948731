package main

import (
	"fmt"
	"os"

	"vini/internal/simtest"
)

type scaleReport struct {
	Seed       int64   `json:"seed"`
	Topology   string  `json:"topology"`
	Nodes      int     `json:"nodes"`
	Links      int     `json:"links"`
	Slices     int     `json:"slices"`
	VNodes     int     `json:"vnodes"`
	Flows      int     `json:"flows"`
	OfferedBps float64 `json:"offered_bps"`
	engineRow
	Sent      uint64 `json:"sent"`
	Delivered uint64 `json:"delivered"`
}

// scaleExp runs the scale-regime scenario — hundreds of slices on a
// REPETITA topology, far past the old 126-slice ceiling — fails on any
// invariant violation, and writes BENCH_scale.json. External REPETITA
// files plug in via -topo/-demands; otherwise the pinned synthetic
// topology is used.
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
	fmt.Printf("scale regime: %d slices, seed %d\n", opts.Slices, opts.Seed)
	r, err := simtest.RunScale(opts)
	if err != nil {
		return err
	}
	if r.Failed() {
		fmt.Printf("%s\n", r)
		return fmt.Errorf("%d invariant violations", len(r.Violations))
	}
	rep := scaleReport{Seed: *seedFlag, Topology: "synthetic",
		Nodes: r.Nodes, Links: r.Links, Slices: r.Slices, VNodes: r.VNodes, Flows: r.Flows, OfferedBps: r.OfferedBps,
		engineRow: measured(&r.Outcome), Sent: r.Sent, Delivered: r.Delivered}
	if *topoFlag != "" {
		rep.Topology = *topoFlag
	}
	fmt.Printf("%12s %10s %12s %18s %18s\n", "events", "sent", "delivered", "digest", "schedule")
	fmt.Printf("%12d %10d %12d %18s %18s\n", rep.Events, rep.Sent, rep.Delivered, rep.Digest, rep.Schedule)
	return writeReport("scale", rep)
}
