package main

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"time"

	"vini/internal/core"
	"vini/internal/netem"
	"vini/internal/packet"
	"vini/internal/telemetry"
	"vini/internal/topology"
)

// migBenchPort carries the fixed-rate probe stream the blackout
// measurement is derived from.
const migBenchPort = 47000

// migProbeInterval is the probe spacing: one probe per simulated
// millisecond, so every lost sequence number is 1000 us of blackout.
const migProbeInterval = time.Millisecond

// migrateRow is one measured migration arm in BENCH_migrate.json.
type migrateRow struct {
	Mode           string `json:"mode"`
	Sent           int    `json:"probes_sent"`
	Delivered      int    `json:"probes_delivered"`
	Lost           int    `json:"probes_lost"`
	Duplicates     int    `json:"duplicate_deliveries"`
	BlackoutUs     int64  `json:"blackout_us"`
	MaxGapUs       int64  `json:"max_gap_us"`
	Clones         uint64 `json:"window_clones_sent"`
	CloneDrops     uint64 `json:"window_clones_suppressed"`
	NeighborEvents int    `json:"ospf_neighbor_events"`
	MetricsDigest  string `json:"metrics_digest"`
	FlightDigest   string `json:"flight_digest"`
}

type migrateReport struct {
	Seed            int64      `json:"seed"`
	ProbeIntervalUs int64      `json:"probe_interval_us"`
	MBB             migrateRow `json:"make_before_break"`
	Naive           migrateRow `json:"naive_reembed"`
	StrictlySmaller bool       `json:"mbb_blackout_strictly_smaller"`
}

// migrateExp measures the cutover blackout of live vnode migration two
// ways on the same seeded quad substrate: the make-before-break path
// (shadow pre-built, state transplanted, in-flight traffic
// double-delivered across the window) against the naive
// break-before-make baseline (retire first, rebuild, let OSPF
// reconverge). A probe leaves west for east through the migrating
// transit hop every simulated millisecond; the blackout window is the
// probes that never arrive. The experiment fails unless the
// make-before-break blackout is strictly smaller than the naive one
// (and, concretely, zero).
func migrateExp() error {
	warm, total := count(1000, 400), count(6000, 3000)
	mbb, err := migrateArm(false, warm, total)
	if err != nil {
		return err
	}
	naive, err := migrateArm(true, warm, total)
	if err != nil {
		return err
	}
	rep := migrateReport{
		Seed:            *seedFlag,
		ProbeIntervalUs: migProbeInterval.Microseconds(),
		MBB:             mbb, Naive: naive,
		StrictlySmaller: mbb.BlackoutUs < naive.BlackoutUs,
	}
	fmt.Printf("live migration blackout: west->east probes every %v through a migrating transit vnode\n", migProbeInterval)
	fmt.Printf("%-18s %8s %10s %6s %5s %12s %12s %8s %10s\n",
		"mode", "sent", "delivered", "lost", "dups", "blackout", "maxgap", "clones", "nbr-evts")
	for _, r := range []migrateRow{mbb, naive} {
		fmt.Printf("%-18s %8d %10d %6d %5d %10dus %10dus %8d %10d\n",
			r.Mode, r.Sent, r.Delivered, r.Lost, r.Duplicates,
			r.BlackoutUs, r.MaxGapUs, r.Clones, r.NeighborEvents)
	}
	fmt.Printf("blackout: make-before-break %dus vs naive re-embed %dus\n", mbb.BlackoutUs, naive.BlackoutUs)
	if err := writeReport("migrate", rep); err != nil {
		return err
	}
	switch {
	case mbb.Lost != 0:
		return fmt.Errorf("migrate: make-before-break lost %d probes, want 0", mbb.Lost)
	case mbb.Duplicates != 0 || naive.Duplicates != 0:
		return fmt.Errorf("migrate: duplicate deliveries (mbb %d, naive %d)", mbb.Duplicates, naive.Duplicates)
	case naive.Lost == 0:
		return fmt.Errorf("migrate: naive baseline lost nothing — the comparison is vacuous")
	case !rep.StrictlySmaller:
		return fmt.Errorf("migrate: blackout not strictly smaller than naive (%dus vs %dus)",
			mbb.BlackoutUs, naive.BlackoutUs)
	}
	return nil
}

// migrateArm runs one seeded migration under the probe stream: warm
// probes settle the overlay, the migration starts at probe `warm`, and
// the stream continues to `total` before a settling run tallies
// deliveries.
func migrateArm(naive bool, warm, total int) (migrateRow, error) {
	mode := "make-before-break"
	if naive {
		mode = "naive-reembed"
	}
	row := migrateRow{Mode: mode, Sent: total}
	v := core.New(*seedFlag)
	nodes := []string{"west", "mid", "east", "spare"}
	var links []topology.Link
	for _, l := range [][2]string{{"west", "mid"}, {"mid", "east"}, {"west", "spare"}, {"spare", "east"}} {
		links = append(links, topology.Link{A: l[0], B: l[1], CostAB: 1, Bandwidth: 1e9, Delay: time.Millisecond})
	}
	if err := v.AddTopology(nodes, links, netem.DETERProfile(), func(i int, _ string) netip.Addr {
		return netip.AddrFrom4([4]byte{198, 51, 100, byte(i + 1)})
	}); err != nil {
		return row, err
	}
	tel := v.EnableTelemetry()
	base := packet.Stats()
	s, err := v.CreateSlice(core.SliceConfig{Name: "mig", CPUShare: 0.25, RT: true})
	if err != nil {
		return row, err
	}
	// The spare stays out of the overlay: the migration's target.
	if err := s.Mirror(nodes, links, map[string]bool{"spare": true}); err != nil {
		return row, err
	}
	s.StartOSPF(time.Second, 3*time.Second)
	loop := v.Loop()
	v.Run(loop.Now() + 20*time.Second)
	west, _ := s.VirtualNode("west")
	east, _ := s.VirtualNode("east")
	westTap, eastTap := west.TapAddr, east.TapAddr
	// core.New runs every domain on one worker, so a plain slice
	// indexed by sequence number is race-free here.
	delivered := make([]int, total)
	for _, n := range nodes {
		node, ok := v.Net.Node(n)
		if !ok {
			return row, fmt.Errorf("no node %s", n)
		}
		if err := node.StackListenUDP(migBenchPort, func(d []byte) {
			var ip packet.IPv4
			seg, err := ip.Parse(d)
			if err != nil {
				return
			}
			var u packet.UDP
			pay, err := u.Parse(seg)
			if err != nil || len(pay) < 4 {
				return
			}
			if seq := int(binary.BigEndian.Uint32(pay)); seq < total && ip.Dst == eastTap {
				delivered[seq]++
			}
		}); err != nil {
			return row, err
		}
	}
	westNode, _ := v.Net.Node("west")
	var m *core.Migration
	var migStart time.Duration
	for i := 0; i < total; i++ {
		var pay [4]byte
		binary.BigEndian.PutUint32(pay[:], uint32(i))
		westNode.StackSend(packet.BuildUDP(westTap, eastTap, migBenchPort, migBenchPort, 64, pay[:]))
		if i == warm {
			migStart = loop.Now()
			m, err = s.Migrate("mid", "spare", core.MigrateOptions{
				Window: 500 * time.Millisecond, Drain: 500 * time.Millisecond, Naive: naive})
			if err != nil {
				return row, err
			}
		}
		v.Run(loop.Now() + migProbeInterval)
	}
	v.Run(loop.Now() + 10*time.Second)
	if m.Phase() != core.MigDone {
		return row, fmt.Errorf("%s: migration phase %v, want Done", mode, m.Phase())
	}
	if _, ok := s.VirtualNode("spare"); !ok {
		return row, fmt.Errorf("%s: spare does not host the slice after migration", mode)
	}
	gap := 0
	for i := 0; i < total; i++ {
		switch n := delivered[i]; {
		case n == 0:
			row.Lost++
			gap++
			if us := int64(gap) * migProbeInterval.Microseconds(); us > row.MaxGapUs {
				row.MaxGapUs = us
			}
		default:
			row.Delivered++
			row.Duplicates += n - 1
			gap = 0
		}
	}
	row.BlackoutUs = int64(row.Lost) * migProbeInterval.Microseconds()
	row.Clones, row.CloneDrops = m.ClonesSent(), m.CloneDrops()
	for _, ev := range tel.Rec.Events() {
		if ev.Kind == telemetry.EvNeighbor && ev.At >= migStart {
			row.NeighborEvents++
		}
	}
	row.MetricsDigest = fmt.Sprintf("%016x", tel.Reg.Digest())
	row.FlightDigest = fmt.Sprintf("%016x", tel.Rec.Digest())
	if err := s.Audit(); err != nil {
		return row, fmt.Errorf("%s: %v", mode, err)
	}
	if f := settlePool(v, base); f != 0 {
		return row, fmt.Errorf("%s: pool ledger unbalanced: %d in flight", mode, f)
	}
	return row, nil
}
