package simtest

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"time"

	"vini/internal/core"
	"vini/internal/packet"
	"vini/internal/sim"
	"vini/internal/telemetry"
)

// migProbePort is the UDP port the migration regime's painted probes
// target (distinct from the steady-state regime's probePort so the two
// regimes can never cross-count); the blackout pair's streams target
// migStreamPort.
const migProbePort, migStreamPort = 40001, 40002

// The blackout pair's probe stream: streamProbes probes, one per
// millisecond, the move starting at probe streamMove; the last
// streamTail must all arrive, or the stream ended inside the blackout
// it measures.
const streamProbes, streamMove, streamTail = 2500, 100, 200

// MigrateOptions configures one migration scenario: a seeded substrate
// with one spare node, a slice embedded on the rest, and repeated live
// migrations under continuous traffic, substrate link flaps, and
// Pause/Resume/Destroy churn, then the blackout pair.
type MigrateOptions struct {
	Seed int64
	// rounds is the number of migration rounds (default 4).
	rounds int
	// workers is the executor's worker budget, exactly as in baseOptions.
	workers int
	// sabotage disables duplicate suppression on every shadow — the
	// mutation hook proving the exactly-once checker has teeth. A
	// sabotaged run MUST report duplicate-delivery violations.
	sabotage bool
}

// MigrateResult is everything one migration scenario produced. Every
// painted probe carries its round number and is tracked per
// (destination, sequence), so loss and duplication are attributable to
// the exact in-flight packet, not just aggregate counters. Digest folds
// every per-round observation (op, migration phase, clone counts, probe
// ledger, FIB fingerprints) and the blackout pair.
type MigrateResult struct {
	Outcome
	Nodes int
	// Sent/Delivered/Duplicates aggregate the painted-probe ledger:
	// Delivered counts probes that arrived at least once, Duplicates
	// those that arrived more than once (must be 0).
	Sent, Delivered, Duplicates int
	// MBB and Naive are the blackout pair, run after the last round: one
	// member moved make-before-break, then one moved break-before-make.
	MBB, Naive MigrateArm
}

// MigrateArm is one move of the blackout pair, made under a stream of
// a probe every millisecond from another member to the moving vnode's
// tap. Blackout is the stream's lost probes as time, MaxGap the
// longest run of them.
type MigrateArm struct {
	From, To                    string
	Sent, Delivered, Duplicates int
	Blackout, MaxGap            time.Duration
	Clones, CloneDrops          uint64
	// NeighborEvents counts OSPF neighbor transitions from the move on.
	NeighborEvents int
}

// migWorld is one generated migration scenario: the substrate, the
// slice under test, the rotating spare node, and the painted-probe
// delivery ledger.
type migWorld struct {
	*world
	// overlay is the slice under test. Its slot vnode[i] follows
	// members[i] through every rotation; the tap address is the vnode's
	// identity and survives migration.
	*overlay
	opts     MigrateOptions
	rng      *sim.RNG
	nodes    []string
	subLinks []genLink
	members  []string // phys nodes currently hosting the slice
	spare    string   // the one free phys node, rotated by migrations
	vlinks   []genLink
	// delivered is the painted-probe ledger: per-node maps from probe
	// key to delivery count; stream is the blackout stream's, per node
	// and sequence number. Each physical node's stack listeners write
	// only its own entries (listeners run on the node's time domain),
	// and the driver merges them at barriers —
	// the same single-writer discipline as scenario.delivered.
	delivered []map[string]uint32
	stream    [][]uint32
	seq       uint32
	res       *MigrateResult
}

// RunMigrate executes one seeded migration scenario end to end. Like
// runBase, it returns an error only for harness bugs; every system-under-
// test failure lands in Violations.
func RunMigrate(opts MigrateOptions) (*MigrateResult, error) {
	if opts.rounds == 0 {
		opts.rounds = 4
	}
	rng := sim.NewRNG(opts.Seed)
	n := 4 + rng.Intn(3)
	res := &MigrateResult{Nodes: n}
	w := &migWorld{
		world: newWorld("migrate", &res.Outcome, opts.Seed, opts.workers),
		opts:  opts, rng: rng, res: res,
		delivered: make([]map[string]uint32, n),
		stream:    make([][]uint32, n),
	}
	var err error
	w.subLinks = genTopology(rng, n)
	if w.nodes, err = w.genSubstrate(rng, n, w.subLinks, 3, 5); err != nil {
		return nil, err
	}
	w.members = append([]string(nil), w.nodes[:n-1]...)
	w.spare = w.nodes[n-1]
	w.vlinks = genTopology(rng, n-1)
	// Every physical node — including the spare — listens for painted
	// probes and the blackout streams, so a duplicate surfacing anywhere
	// is counted.
	for i, name := range w.nodes {
		w.delivered[i], w.stream[i] = make(map[string]uint32), make([]uint32, streamProbes)
		ledger, stream := w.delivered[i], w.stream[i]
		node := w.vini.Net.MustNode(name)
		err := node.StackListenUDP(migProbePort, func(d []byte) {
			if dst, seq, ok := parseProbe(d); ok {
				ledger[probeKey(dst, seq)]++
			}
		})
		if err == nil {
			err = node.StackListenUDP(migStreamPort, func(d []byte) {
				if _, seq, ok := parseProbe(d); ok && seq < streamProbes {
					stream[seq]++
				}
			})
		}
		if err != nil {
			return nil, err
		}
	}

	w.baseline()
	if err := w.buildSlice("mig0"); err != nil {
		return nil, err
	}
	w.converge("build")

	for round := 0; round < opts.rounds; round++ {
		// Round 0 is always a clean migration so every seed exercises
		// the double-delivery window (and the sabotage arm has a target).
		op := 0
		if round > 0 {
			switch d := rng.Intn(8); {
			case d < 4:
				op = 0
			case d < 6:
				op = 1
			case d == 6:
				op = 2
			default:
				op = 3
			}
		}
		var line string
		switch op {
		case 0:
			line, err = w.roundMigrate(round, false)
		case 1:
			line, err = w.roundMigrate(round, true)
		case 2:
			line, err = w.roundPauseAbort(round)
		case 3:
			line, err = w.roundPauseDestroy(round)
		}
		if err != nil {
			return nil, fmt.Errorf("seed %d round %d: %w", opts.Seed, round, err)
		}
		w.note("round %d: %s", round, line)
		w.fold("round %d %s fib=%016x", round, line, fibFingerprint(w.vnode))
	}

	// The blackout pair: make-before-break must lose nothing where the
	// naive re-embed loses something.
	res.MBB, res.Naive = w.blackout(false), w.blackout(true)

	// Final teardown: the substrate must come out exactly as clean as it
	// went in.
	if err := w.slice.Destroy(); err != nil {
		w.violate("final destroy: %v", err)
	}
	w.audit("final teardown")
	w.drain(3*time.Second, "final teardown")
	w.finish("rounds=%d nodes=%d sent=%d delivered=%d dups=%d blackout=%v/%v",
		opts.rounds, res.Nodes, res.Sent, res.Delivered, res.Duplicates, res.MBB.Blackout, res.Naive.Blackout)
	return res, nil
}

// roundMigrate is the core arm: continuous painted traffic through (and
// to) the migrating vnode across the whole window, with zero loss and
// exactly-once delivery demanded afterwards. With flap set, a substrate
// link fails mid-window and restores after the retirement — loss is
// then legitimate (packets die on the dead physical link) but
// duplicates and ledger imbalance still are not.
func (w *migWorld) roundMigrate(round int, flap bool) (string, error) {
	victimIdx := w.rng.Intn(len(w.members))
	victim := w.members[victimIdx]
	target := w.spare
	var keys []string
	paint := byte(round)
	for i := 0; i < 3; i++ {
		w.step(&keys, -1, paint)
	}
	migStart := w.loop.Now()
	m, err := w.slice.Migrate(victim, target, core.MigrateOptions{
		Window: 800 * time.Millisecond, Drain: 400 * time.Millisecond})
	if err != nil {
		return "", fmt.Errorf("migrate %s->%s: %w", victim, target, err)
	}
	if w.opts.sabotage {
		m.Shadow().BreakDupSuppressionForTest()
	}
	var failed *genLink
	for i := 0; i < 16; i++ {
		if flap && i == 2 {
			l := w.subLinks[w.rng.Intn(len(w.subLinks))]
			failed = &l
			if err := w.vini.FailLink(w.nodes[l.a], w.nodes[l.b], 100*time.Millisecond); err != nil {
				return "", err
			}
		}
		w.step(&keys, victimIdx, paint)
	}
	w.run(2 * time.Second)
	if m.Phase() != core.MigDone {
		w.violate("round %d: migration %s->%s stuck in %s", round, victim, target, m.Phase())
	}
	clones, drops := m.ClonesSent(), m.CloneDrops()
	if clones == 0 {
		w.violate("round %d: no clones sent — the double-delivery window never carried traffic", round)
	}
	if failed != nil {
		if err := w.vini.RestoreLink(w.nodes[failed.a], w.nodes[failed.b], 100*time.Millisecond); err != nil {
			return "", err
		}
	}
	w.rotate(victimIdx, target)
	w.converge(fmt.Sprintf("round %d", round))
	// Bounded control-plane disruption: a clean migration transplants
	// OSPF state, so no neighbor FSM transition may occur anywhere.
	if !flap {
		if nev := w.neighborEventsSince(migStart); nev != 0 {
			w.violate("round %d: %d OSPF neighbor transitions during a clean migration (adjacencies reset)",
				round, nev)
		}
	}
	w.checkRound(round, keys, !flap)
	w.audit(fmt.Sprintf("round %d", round))
	op := "migrate"
	if flap {
		op = "migrate+flap"
	}
	w.fold("%s %s->%s clones=%d drops=%d", op, victim, target, clones, drops)
	return fmt.Sprintf("%s %s->%s probes=%d clones=%d", op, victim, target, len(keys), clones), nil
}

// rotate records a finished move of member i to target: the vacated
// node is the next spare. It reports whether target hosts the slice.
func (w *migWorld) rotate(i int, target string) bool {
	vn, ok := w.slice.VirtualNode(target)
	if ok {
		w.vnode[i] = vn
	}
	w.members[i], w.spare = target, w.members[i]
	return ok
}

// blackout moves one member to the spare, make-before-break or naive,
// under a stream of a probe every millisecond from a virtual neighbour
// to the moving vnode's tap, numbered 0..streamProbes-1. The stream is
// paced on the source node's clock, so it costs the driver no barrier
// per probe.
func (w *migWorld) blackout(naive bool) MigrateArm {
	vi := w.rng.Intn(len(w.members))
	var peers []int
	for _, l := range w.vlinks {
		if l.a == vi || l.b == vi {
			peers = append(peers, l.a+l.b-vi)
		}
	}
	src := w.vnode[peers[w.rng.Intn(len(peers))]]
	arm := MigrateArm{From: w.members[vi], To: w.spare, Sent: streamProbes}
	where := fmt.Sprintf("make-before-break %s->%s", arm.From, arm.To)
	if naive {
		where = fmt.Sprintf("naive %s->%s", arm.From, arm.To)
	}
	for _, l := range w.stream {
		clear(l)
	}
	phys, dst, seq := src.Phys(), w.vnode[vi].TapAddr, uint32(0)
	var send func()
	send = func() {
		phys.StackSend(packet.BuildUDP(src.TapAddr, dst, migStreamPort, migStreamPort, 64, binary.BigEndian.AppendUint32(nil, seq)))
		if seq++; seq < streamProbes {
			phys.Clock().Schedule(time.Millisecond, send)
		}
	}
	phys.Clock().Schedule(0, send)
	w.run(streamMove * time.Millisecond)
	start := w.loop.Now()
	m, err := w.slice.Migrate(arm.From, arm.To, core.MigrateOptions{
		Window: 500 * time.Millisecond, Drain: 500 * time.Millisecond, Naive: naive})
	if err != nil {
		w.violate("%s: %v", where, err)
		return arm
	}
	w.run((streamProbes-streamMove)*time.Millisecond + 2*time.Second)
	if m.Phase() != core.MigDone {
		w.violate("%s: migration phase %s, want Done", where, m.Phase())
	}
	if !w.rotate(vi, arm.To) {
		w.violate("%s: %s does not host the slice after the move", where, arm.To)
	}
	arm.Clones, arm.CloneDrops = m.ClonesSent(), m.CloneDrops()
	// A clean move transplants OSPF state: no adjacency may reset.
	if arm.NeighborEvents = w.neighborEventsSince(start); !naive && arm.NeighborEvents != 0 {
		w.violate("%s: %d OSPF neighbor transitions (adjacencies reset)", where, arm.NeighborEvents)
	}
	gap, lastLost := 0, -1
	for i := 0; i < streamProbes; i++ {
		n := 0
		for _, l := range w.stream {
			n += int(l[i])
		}
		if n == 0 {
			gap, lastLost = gap+1, i
			arm.Blackout += time.Millisecond
			arm.MaxGap = max(arm.MaxGap, time.Duration(gap)*time.Millisecond)
			continue
		}
		gap = 0
		arm.Delivered++
		arm.Duplicates += n - 1
	}
	if (arm.Blackout == 0) == naive {
		w.violate("%s: blackout %v (make-before-break must lose nothing, the naive move something)", where, arm.Blackout)
	}
	if lastLost >= streamProbes-streamTail {
		w.violate("%s: probe %d of %d lost: the stream ended inside the blackout", where, lastLost, streamProbes)
	}
	if arm.Duplicates != 0 {
		w.violate("%s: %d duplicate stream deliveries", where, arm.Duplicates)
	}
	w.audit(where)
	w.settle(where)
	w.fold("blackout %s delivered=%d dups=%d blackout=%v maxgap=%v clones=%d drops=%d nbr=%d",
		where, arm.Delivered, arm.Duplicates, arm.Blackout, arm.MaxGap, arm.Clones, arm.CloneDrops, arm.NeighborEvents)
	return arm
}

// roundPauseAbort drives Pause into the double-delivery window: the
// migration must abort, the shadow's handles must all drop, and after
// Resume the old instance must still forward with exactly-once
// delivery.
func (w *migWorld) roundPauseAbort(round int) (string, error) {
	vi, target, keys, err := w.pauseMidMigration(round, 4)
	if err != nil {
		return "", err
	}
	paint := byte(round)
	victim, tap := w.members[vi], w.vnode[vi].TapAddr
	if node, ok := w.vini.Net.Node(target); ok && node.HasAddr(tap) {
		w.violate("round %d: aborted shadow still answers for %v on %s", round, tap, target)
	}
	w.audit(fmt.Sprintf("round %d after abort", round))
	w.run(time.Second)
	if err := w.slice.Resume(); err != nil {
		w.violate("round %d: resume after abort: %v", round, err)
	}
	w.converge(fmt.Sprintf("round %d", round))
	for i := 0; i < 4; i++ {
		w.step(&keys, -1, paint)
	}
	// The stale cutover timer (scheduled for the 5s window) must be
	// inert; run past it before judging the ledger.
	w.run(6 * time.Second)
	w.checkRound(round, keys, true)
	w.fold("pause-abort %s->%s", victim, target)
	return fmt.Sprintf("pause-abort %s->%s probes=%d", victim, target, len(keys)), nil
}

// pauseMidMigration opens both pause arms: painted traffic, a migration
// with a 5s double-delivery window, `during` more traffic steps inside
// it, then Pause — which must abort the migration. victim is the
// migrating member's index.
func (w *migWorld) pauseMidMigration(round, during int) (victim int, target string, keys []string, err error) {
	victim = w.rng.Intn(len(w.members))
	target = w.spare
	paint := byte(round)
	for i := 0; i < 2; i++ {
		w.step(&keys, -1, paint)
	}
	m, err := w.slice.Migrate(w.members[victim], target, core.MigrateOptions{
		Window: 5 * time.Second, Drain: 400 * time.Millisecond})
	if err != nil {
		return 0, "", nil, fmt.Errorf("migrate %s->%s: %w", w.members[victim], target, err)
	}
	for i := 0; i < during; i++ {
		w.step(&keys, victim, paint)
	}
	w.run(time.Second) // drain in-flight probes
	if err := w.slice.Pause(); err != nil {
		w.violate("round %d: pause mid-migration: %v", round, err)
	}
	if m.Phase() != core.MigAborted {
		w.violate("round %d: pause left migration in %s, want Aborted", round, m.Phase())
	}
	return victim, target, keys, nil
}

// roundPauseDestroy is the Pause -> Destroy interleaving: destroying a
// slice whose migration was aborted by the pause must release every
// shadow handle, retire every telemetry series, and leave no orphaned
// timers; the arm then rebuilds the slice so later rounds keep running.
func (w *migWorld) roundPauseDestroy(round int) (string, error) {
	vi, target, keys, err := w.pauseMidMigration(round, 3)
	if err != nil {
		return "", err
	}
	victim, tap := w.members[vi], w.vnode[vi].TapAddr
	if err := w.slice.Destroy(); err != nil {
		w.violate("round %d: destroy paused mid-migration slice: %v", round, err)
	}
	where := fmt.Sprintf("round %d destroy", round)
	w.audit(where)
	if node, ok := w.vini.Net.Node(target); ok && node.HasAddr(tap) {
		w.violate("round %d: destroyed shadow still answers for %v on %s", round, tap, target)
	}
	w.drain(6*time.Second, where) // past the stale cutover timer
	// Rebuild on the same members so later rounds have a slice to move.
	if err := w.buildSlice(fmt.Sprintf("mig%d", round+1)); err != nil {
		return "", err
	}
	w.converge(fmt.Sprintf("round %d", round))
	w.checkRound(round, keys, true)
	w.fold("pause-destroy %s->%s rebuilt=%s", victim, target, w.slice.Name())
	return fmt.Sprintf("pause-destroy %s->%s probes=%d rebuilt=%s", victim, target, len(keys), w.slice.Name()), nil
}

// buildSlice embeds the slice on the current members and starts OSPF.
func (w *migWorld) buildSlice(name string) error {
	o, err := w.embed(core.SliceConfig{Name: name, CPUShare: 0.5, RT: true}, w.members, w.vlinks)
	if err != nil {
		return err
	}
	o.slice.StartOSPF(time.Second, 3*time.Second)
	w.overlay = o
	return nil
}

// step injects one painted traffic slice: two random member-to-member
// probes plus — while a migration is in flight (victim, the migrating
// member's index, is not -1) — one probe pinned at the migrating vnode
// itself, then advances 100ms. The victim is never a source (its tap
// capture dies at retirement mid-burst) but always remains a
// destination: its tap address is exactly what must survive the move.
func (w *migWorld) step(keys *[]string, victim int, paint byte) {
	avoid := func(i int) int {
		if i == victim {
			return (i + 1) % len(w.members)
		}
		return i
	}
	for k := 0; k < 2; k++ {
		si := avoid(w.rng.Intn(len(w.members)))
		di := w.rng.Intn(len(w.members))
		if di == si {
			di = (di + 1) % len(w.members)
		}
		w.send(w.vnode[si], w.vnode[di].TapAddr, keys, paint)
	}
	if victim >= 0 {
		si := avoid(w.rng.Intn(len(w.members)))
		w.send(w.vnode[si], w.vnode[victim].TapAddr, keys, paint)
	}
	w.run(100 * time.Millisecond)
}

// send paints and injects one probe from vn's kernel stack into the
// overlay and records its ledger key.
func (w *migWorld) send(vn *core.VirtualNode, dst netip.Addr, keys *[]string, paint byte) {
	w.seq++
	var pay [5]byte
	binary.BigEndian.PutUint32(pay[:4], w.seq)
	pay[4] = paint
	vn.Phys().StackSend(packet.BuildUDP(vn.TapAddr, dst,
		uint16(41000+w.seq%1000), migProbePort, 64, pay[:]))
	*keys = append(*keys, probeKey(dst, w.seq))
}

// parseProbe reads a delivered probe datagram's destination and
// sequence number.
func parseProbe(d []byte) (netip.Addr, uint32, bool) {
	var ip packet.IPv4
	seg, err := ip.Parse(d)
	if err != nil {
		return netip.Addr{}, 0, false
	}
	var u packet.UDP
	pay, err := u.Parse(seg)
	if err != nil || len(pay) < 4 {
		return netip.Addr{}, 0, false
	}
	return ip.Dst, binary.BigEndian.Uint32(pay), true
}

// probeKey is a painted probe's ledger key.
func probeKey(dst netip.Addr, seq uint32) string { return fmt.Sprintf("%s#%d", dst, seq) }

// deliveries merges the per-node ledgers for one probe key. Driver-time
// only (barrier).
func (w *migWorld) deliveries(k string) uint32 {
	var n uint32
	for _, m := range w.delivered {
		n += m[k]
	}
	return n
}

// checkRound settles the pool ledger and then judges this round's
// painted probes: exactly-once when lossless, at-most-once always.
func (w *migWorld) checkRound(round int, keys []string, lossless bool) {
	w.settle(fmt.Sprintf("round %d", round))
	losses, dups := 0, 0
	for _, k := range keys {
		switch c := w.deliveries(k); {
		case c == 0:
			if lossless {
				losses++
				if losses <= 5 {
					w.violate("round %d: probe %s lost in flight", round, k)
				}
			}
		case c > 1:
			dups++
			if dups <= 5 {
				w.violate("round %d: probe %s delivered %d times (duplicate leaked past cutover)",
					round, k, c)
			}
			w.res.Delivered++
		default:
			w.res.Delivered++
		}
	}
	if losses > 5 {
		w.violate("round %d: ... %d probes lost in total", round, losses)
	}
	if dups > 5 {
		w.violate("round %d: ... %d duplicated probes in total", round, dups)
	}
	w.res.Sent += len(keys)
	w.res.Duplicates += dups
}

// converge runs the loop until no member FIB has been mutated for a
// settle window, then checks invariants 1 and 2 on the overlay. A round
// that never settles is a violation, and its state is not checked.
func (w *migWorld) converge(where string) {
	if _, ok := w.stable(w.vnode, time.Second, 120*time.Second, 5); !ok {
		w.violate("%s: member FIBs did not quiesce within 120s", where)
		return
	}
	w.check(where, w.overlay, w.addrs())
}

// neighborEventsSince counts OSPF neighbor FSM transitions recorded at
// or after the given instant — the convergence-timeline measure of
// control-plane disruption.
func (w *migWorld) neighborEventsSince(since time.Duration) int {
	n := 0
	for _, ev := range w.vini.Telemetry().Rec.Events() {
		if ev.Kind == telemetry.EvNeighbor && ev.At >= since {
			n++
		}
	}
	return n
}
