package main

import (
	"fmt"

	"vini/internal/simtest"
)

// migrateRow is one move of the blackout pair in BENCH_migrate.json.
type migrateRow struct {
	Mode           string `json:"mode"`
	From           string `json:"from"`
	To             string `json:"to"`
	Sent           int    `json:"probes_sent"`
	Delivered      int    `json:"probes_delivered"`
	Duplicates     int    `json:"duplicate_deliveries"`
	BlackoutUs     int64  `json:"blackout_us"`
	MaxGapUs       int64  `json:"max_gap_us"`
	Clones         uint64 `json:"window_clones_sent"`
	CloneDrops     uint64 `json:"window_clones_suppressed"`
	NeighborEvents int    `json:"ospf_neighbor_events"`
}

type migrateReport struct {
	Seed            int64      `json:"seed"`
	MBB             migrateRow `json:"make_before_break"`
	Naive           migrateRow `json:"naive_reembed"`
	StrictlySmaller bool       `json:"mbb_blackout_strictly_smaller"`
	engineRow
}

// migrateExp runs the migrate regime at -seed and writes its blackout
// pair to BENCH_migrate.json: one member moved make-before-break (state
// transplanted, traffic double-delivered across the window) and one
// break-before-make (retire, rebuild, reconverge), each under a probe
// every millisecond to the moving vnode. It fails on any violation; a
// make-before-break loss and a naive move that loses nothing are two.
func migrateExp() error {
	r, err := simtest.RunMigrate(simtest.MigrateOptions{Seed: *seedFlag})
	if err != nil {
		return err
	}
	if r.Failed() {
		fmt.Printf("%s\n", r)
		return fmt.Errorf("%d invariant violations", len(r.Violations))
	}
	row := func(mode string, a simtest.MigrateArm) migrateRow {
		return migrateRow{Mode: mode, From: a.From, To: a.To, Sent: a.Sent, Delivered: a.Delivered,
			Duplicates: a.Duplicates, BlackoutUs: a.Blackout.Microseconds(), MaxGapUs: a.MaxGap.Microseconds(),
			Clones: a.Clones, CloneDrops: a.CloneDrops, NeighborEvents: a.NeighborEvents}
	}
	rep := migrateReport{Seed: *seedFlag, MBB: row("make-before-break", r.MBB), Naive: row("naive-reembed", r.Naive),
		StrictlySmaller: r.MBB.Blackout < r.Naive.Blackout, engineRow: measured(&r.Outcome)}
	fmt.Println("live migration blackout: a probe every 1ms from a virtual neighbour to the moving vnode")
	fmt.Printf("%-18s %8s %6s %10s %5s %10s %10s %8s %9s\n",
		"mode", "move", "sent", "delivered", "dups", "blackout", "maxgap", "clones", "nbr-evts")
	for _, m := range []migrateRow{rep.MBB, rep.Naive} {
		fmt.Printf("%-18s %8s %6d %10d %5d %8dus %8dus %8d %9d\n", m.Mode, m.From+"->"+m.To, m.Sent, m.Delivered,
			m.Duplicates, m.BlackoutUs, m.MaxGapUs, m.Clones, m.NeighborEvents)
	}
	fmt.Printf("%12s %18s %18s\n", "events", "digest", "schedule")
	fmt.Printf("%12d %18s %18s\n", rep.Events, rep.Digest, rep.Schedule)
	return writeReport("migrate", rep)
}
