package main

import (
	"fmt"
	"time"

	"vini"
	"vini/internal/core"
	"vini/internal/packet"
	"vini/internal/topology"
)

// churnRow is one create/run/pause/reembed/destroy cycle in the
// BENCH_churn.json report.
type churnRow struct {
	Cycle    int    `json:"cycle"`
	SliceID  int    `json:"slice_id"`
	BasePort uint16 `json:"base_port"`
	Moved    int    `json:"reembed_moved"`
	Events   uint64 `json:"events"`
	InFlight int64  `json:"pool_in_flight_after_teardown"`
}

type churnReport struct {
	Seed        int64      `json:"seed"`
	Topology    string     `json:"topology"`
	Cycles      int        `json:"cycles"`
	Rows        []churnRow `json:"rows"`
	IDsRecycled bool       `json:"ids_recycled"`
	LedgerClean bool       `json:"ledger_clean"`
}

// churnExp cycles one IIAS slice through its whole lifecycle on a
// running Abilene substrate — admit, embed, converge, pause across the
// dead interval, resume, re-embed around a substrate failure, destroy —
// and verifies after every teardown that the substrate is exactly as
// clean as before the slice existed: the packet-pool ledger balances
// and the next cycle is re-admitted onto the recycled slice id, port
// block, and address prefix (the allocator's LIFO free lists hand
// released blocks straight back).
func churnExp() error {
	cycles := count(8, 3)
	v, err := vini.BuildAbilene(*seedFlag, vini.PlanetLabProfile())
	if err != nil {
		return err
	}
	baseline := packet.Stats()
	loop := v.Loop()
	rep := churnReport{Seed: *seedFlag, Topology: "abilene",
		Cycles: cycles, IDsRecycled: true, LedgerClean: true}
	fmt.Printf("slice churn on Abilene (11 PoPs), %d cycles\n", cycles)
	fmt.Printf("%-6s %8s %10s %8s %12s %10s\n",
		"cycle", "id", "baseport", "moved", "events", "inflight")
	firstID := 0
	var firstPrefix, firstPorts string
	links := topology.Abilene().Links()
	var prevFired uint64
	for c := 0; c < cycles; c++ {
		s, err := vini.MirrorAbilene(v, core.SliceConfig{
			Name: fmt.Sprintf("churn%d", c), CPUShare: 0.25, RT: true,
			ExposePhysicalFailures: true}, 5*time.Second, 10*time.Second)
		if err != nil {
			return err
		}
		if c == 0 {
			firstID = s.ID()
			firstPrefix = s.Prefix().String()
			firstPorts = s.PortRange().String()
		} else if s.ID() != firstID || s.Prefix().String() != firstPrefix ||
			s.PortRange().String() != firstPorts {
			rep.IDsRecycled = false
		}
		v.Run(loop.Now() + dur(30*time.Second, 15*time.Second))
		if err := s.Pause(); err != nil {
			return err
		}
		v.Run(loop.Now() + 15*time.Second)
		if err := s.Resume(); err != nil {
			return err
		}
		v.Run(loop.Now() + dur(30*time.Second, 20*time.Second))
		// Fail a rotating substrate link and walk the slice around it.
		l := links[c%len(links)]
		if err := v.FailLink(l.A, l.B, 100*time.Millisecond); err != nil {
			return err
		}
		v.Run(loop.Now() + 2*time.Second)
		moved, err := s.ReEmbed()
		if err != nil {
			return err
		}
		v.Run(loop.Now() + 5*time.Second)
		if err := v.RestoreLink(l.A, l.B, 100*time.Millisecond); err != nil {
			return err
		}
		v.Run(loop.Now() + 2*time.Second)
		if _, err := s.ReEmbed(); err != nil {
			return err
		}
		if err := s.Destroy(); err != nil {
			return err
		}
		if err := s.Audit(); err != nil {
			return fmt.Errorf("cycle %d: %v", c, err)
		}
		v.Run(loop.Now() + 3*time.Second)
		inFlight := settlePool(v, baseline)
		fired := v.Executor().TotalFired()
		row := churnRow{Cycle: c, SliceID: s.ID(), BasePort: s.BasePort(),
			Moved: moved, Events: fired - prevFired, InFlight: inFlight}
		prevFired = fired
		if row.InFlight != 0 {
			rep.LedgerClean = false
		}
		rep.Rows = append(rep.Rows, row)
		fmt.Printf("%-6d %8d %10d %8d %12d %10d\n",
			row.Cycle, row.SliceID, row.BasePort, row.Moved, row.Events, row.InFlight)
	}
	if rep.IDsRecycled {
		fmt.Printf("slice id %d, port block %s, prefix %s recycled across all %d cycles\n",
			firstID, firstPorts, firstPrefix, cycles)
	} else {
		fmt.Println("WARNING: recycling failed: destroyed slice id/prefix/ports were not reissued")
	}
	if !rep.LedgerClean {
		fmt.Println("WARNING: pool ledger did not balance after teardown")
	}
	if err := writeReport("churn", rep); err != nil {
		return err
	}
	if !rep.IDsRecycled || !rep.LedgerClean {
		return fmt.Errorf("churn: lifecycle invariants violated")
	}
	return nil
}
