package main

import (
	"fmt"

	"vini/internal/simtest"
)

// churnRow is one create/run/pause/reembed/destroy round in the
// BENCH_churn.json report.
type churnRow struct {
	Round     int      `json:"round"`
	SliceIDs  []int    `json:"slice_ids"`
	BasePorts []uint16 `json:"base_ports"`
	Moved     int      `json:"reembed_moved"`
	Back      int      `json:"reembed_back"`
	Events    uint64   `json:"events"`
}

type churnReport struct {
	Seed  int64      `json:"seed"`
	Nodes int        `json:"nodes"`
	Rows  []churnRow `json:"rows"`
	// Both hold, or the regime fails: it admits every round on round
	// 0's slice ids, port blocks and prefixes, and balances the pool
	// ledger and empties the domain heaps after every teardown.
	IDsRecycled bool `json:"ids_recycled"`
	LedgerClean bool `json:"ledger_clean"`
	engineRow
}

// churnExp runs the churn regime at -seed: slices created, converged,
// paused across the dead interval, re-embedded around a substrate
// failure and back, and destroyed, round after round on one substrate.
// It fails on any invariant violation and writes BENCH_churn.json.
func churnExp() error {
	r, err := simtest.RunChurn(simtest.ChurnOptions{Seed: *seedFlag})
	if err != nil {
		return err
	}
	if r.Failed() {
		fmt.Printf("%s\n", r)
		return fmt.Errorf("%d invariant violations", len(r.Violations))
	}
	rep := churnReport{Seed: *seedFlag, Nodes: r.Nodes, IDsRecycled: true, LedgerClean: true,
		engineRow: measured(&r.Outcome)}
	fmt.Printf("slice churn on %d generated nodes, %d rounds\n", r.Nodes, len(r.Rounds))
	fmt.Printf("%-6s %8s %14s %6s %6s %8s\n", "round", "ids", "baseports", "moved", "back", "events")
	for i, rd := range r.Rounds {
		rep.Rows = append(rep.Rows, churnRow{Round: i, SliceIDs: rd.IDs, BasePorts: rd.BasePorts,
			Moved: rd.Moved, Back: rd.Back, Events: rd.Events})
		fmt.Printf("%-6d %8s %14s %6d %6d %8d\n", i, fmt.Sprint(rd.IDs), fmt.Sprint(rd.BasePorts), rd.Moved, rd.Back, rd.Events)
	}
	fmt.Printf("%12s %18s %18s\n", "events", "digest", "schedule")
	fmt.Printf("%12d %18s %18s\n", rep.Events, rep.Digest, rep.Schedule)
	return writeReport("churn", rep)
}
