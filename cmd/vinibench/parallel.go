package main

import (
	"fmt"
	"net/netip"
	"time"

	"vini"
	"vini/internal/core"
	"vini/internal/netem"
	"vini/internal/topology"
	"vini/internal/traffic"
)

// parallelRow is the executor's account of the run in the
// BENCH_parallel.json report: the counters every worker count must
// reproduce. Windows, trains and parks depend on how the host
// interleaves workers, so they are not behaviour and are not reported.
type parallelRow struct {
	engineRow
	// Deliveries is reported separately: cross-domain typed messages
	// delivered into a destination heap.
	Deliveries uint64 `json:"deliveries"`
	// Rounds counts coordinator quiescence epochs.
	Rounds    uint64 `json:"rounds"`
	Fallbacks uint64 `json:"fallbacks"`
	TrainMsgs uint64 `json:"train_msgs"`
	// PerDomain maps domain label -> fired event count; the full
	// counter set prints under -v.
	PerDomain map[string]uint64 `json:"per_domain_fired,omitempty"`
}

type parallelReport struct {
	Seed        int64   `json:"seed"`
	Topology    string  `json:"topology"`
	Slices      int     `json:"slices"`
	VirtualSecs float64 `json:"virtual_seconds"`
	engineLegs[*parallelRow]
}

// cbrPairs are the per-slice cross-country flows; each slice gets one,
// so traffic load spreads over distinct source/sink domains.
var cbrPairs = [][2]string{
	{topology.Washington, topology.Seattle},
	{topology.NewYork, topology.LosAngeles},
	{topology.Chicago, topology.Houston},
	{topology.Atlanta, topology.Sunnyvale},
}

// abileneWorld builds the 11-PoP Abilene substrate (PlanetLab profile;
// minimum link propagation delay 2.25 ms — the conservative executor's
// lookahead floor), each PoP its own time domain.
func abileneWorld(seed int64, workers int) (*core.VINI, error) {
	v := core.NewParallel(seed, workers)
	g := topology.Abilene()
	err := v.AddTopology(g.Nodes(), g.Links(), netem.PlanetLabProfile(), func(_ int, pop string) netip.Addr {
		addr, _ := topology.AbilenePublicAddr(pop)
		return netip.MustParseAddr(addr)
	})
	return v, err
}

// buildParallelWorld assembles the benchmark scenario: Abilene carrying
// 4 mirrored slices, each with one cross-country UDP CBR flow.
func buildParallelWorld(seed int64, workers int) (*core.VINI, error) {
	v, err := abileneWorld(seed, workers)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(cbrPairs); i++ {
		s, err := vini.MirrorAbilene(v, core.SliceConfig{Name: fmt.Sprintf("slice%d", i), CPUShare: 0.2},
			5*time.Second, 10*time.Second)
		if err != nil {
			return nil, err
		}
		src, _ := s.VirtualNode(cbrPairs[i][0])
		dst, _ := s.VirtualNode(cbrPairs[i][1])
		if _, err := traffic.StartUDPCBR(v.Net, src.Phys(), dst.Phys(), traffic.UDPCBRConfig{
			RateBps: 10e6, Port: uint16(5001 + i),
			SrcAddr: src.TapAddr, DstAddr: dst.TapAddr}); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// parallelExp runs the 4-slice Abilene scenario on 1, 2 and 4 workers,
// checks that every worker count executes the byte-identical event
// schedule, and writes BENCH_parallel.json.
func parallelExp() error {
	window := dur(60*time.Second, 20*time.Second)
	fmt.Printf("4-slice Abilene (11 PoPs, min link delay 2.25ms), %v virtual time\n", window)
	columns := fmt.Sprintf("%-14s %12s %12s %8s %12s %10s %18s",
		"engine", "events", "deliveries", "rounds", "train-msgs", "fallbacks", "schedule")
	rep := parallelReport{Seed: *seedFlag,
		Topology: "abilene", Slices: len(cbrPairs), VirtualSecs: window.Seconds()}
	var err error
	rep.engineLegs, err = forEngines(columns, func(workers int) (*parallelRow, error) {
		v, err := buildParallelWorld(*seedFlag, workers)
		if err != nil {
			return nil, err
		}
		v.Run(window)
		x := v.Executor()
		row := &parallelRow{
			engineRow:  engineRow{Events: x.TotalFired(), Schedule: fmt.Sprintf("%016x", x.ScheduleDigest())},
			Deliveries: x.Deliveries(), Rounds: x.Rounds(), Fallbacks: x.Fallbacks()}
		_, row.TrainMsgs = x.TrainStats()
		fmt.Printf("domains x%-5d %12d %12d %8d %12d %10d %18s\n", workers,
			row.Events, row.Deliveries, row.Rounds, row.TrainMsgs, row.Fallbacks, row.Schedule)
		stats := x.Stats()
		row.PerDomain = make(map[string]uint64, len(stats))
		for _, s := range stats {
			row.PerDomain[s.Label] = s.Fired
		}
		if *verbose {
			fmt.Printf("  %-14s %10s %10s %10s %10s %10s %10s %8s\n",
				"domain", "scheduled", "sent", "delivered", "fired", "cancelled", "recycled", "stalls")
			for _, s := range stats {
				fmt.Printf("  %-14s %10d %10d %10d %10d %10d %10d %8d\n",
					s.Label, s.Scheduled, s.Sent, s.Delivered, s.Fired, s.Cancelled, s.Recycled, s.Stalls)
			}
		}
		return row, nil
	})
	if err != nil {
		return err
	}
	return rep.gate("parallel", rep)
}
