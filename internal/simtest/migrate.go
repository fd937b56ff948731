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
// regimes can never cross-count).
const migProbePort = 40001

// migrateOptions configures one migration scenario: a seeded substrate
// with one spare node, a slice embedded on the rest, and repeated live
// migrations under continuous traffic, substrate link flaps, and
// Pause/Resume/Destroy churn.
type migrateOptions struct {
	Seed int64
	// Rounds is the number of migration rounds (default 4).
	Rounds int
	// Workers is the executor's worker budget, exactly as in baseOptions.
	Workers int
	// Sabotage disables duplicate suppression on every shadow — the
	// mutation hook proving the exactly-once checker has teeth. A
	// sabotaged run MUST report duplicate-delivery violations.
	Sabotage bool
}

// migrateResult is everything one migration scenario produced. Every
// probe is painted with its round number and tracked per (destination,
// sequence), so loss and duplication are attributable to the exact
// in-flight packet, not just aggregate counters. Digest folds every
// per-round observation (op, migration phase, clone counts, probe
// ledger, FIB fingerprints).
type migrateResult struct {
	Outcome
	Rounds int
	Nodes  int
	// Sent/Delivered/Duplicates aggregate the painted-probe ledger:
	// Delivered counts probes that arrived at least once, Duplicates
	// those that arrived more than once (must be 0).
	Sent, Delivered, Duplicates int
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
	opts     migrateOptions
	rng      *sim.RNG
	nodes    []string
	subLinks []genLink
	members  []string // phys nodes currently hosting the slice
	spare    string   // the one free phys node, rotated by migrations
	vlinks   []genLink
	// delivered is the painted-probe ledger: per-node maps from probe
	// key to delivery count. Each physical node's stack listener writes
	// only its own map (listeners run on the node's time domain), and
	// the driver merges them at barriers —
	// the same single-writer discipline as scenario.delivered.
	delivered []map[string]uint32
	seq       uint32
	res       *migrateResult
}

// runMigrate executes one seeded migration scenario end to end. Like
// runBase, it returns an error only for harness bugs; every system-under-
// test failure lands in Violations.
func runMigrate(opts migrateOptions) (*migrateResult, error) {
	if opts.Rounds == 0 {
		opts.Rounds = 4
	}
	rng := sim.NewRNG(opts.Seed)
	n := 4 + rng.Intn(3)
	res := &migrateResult{Rounds: opts.Rounds, Nodes: n}
	w := &migWorld{
		world: newWorld("migrate", &res.Outcome, opts.Seed, opts.Workers),
		opts:  opts, rng: rng, res: res,
		delivered: make([]map[string]uint32, n),
	}
	var err error
	if w.nodes, w.subLinks, err = w.genSubstrate(rng, n, 3, 5); err != nil {
		return nil, err
	}
	w.members = append([]string(nil), w.nodes[:n-1]...)
	w.spare = w.nodes[n-1]
	w.vlinks = genTopology(rng, n-1)
	// Every physical node — including the spare — listens for painted
	// probes, so a duplicate surfacing anywhere is counted.
	for i, name := range w.nodes {
		w.delivered[i] = make(map[string]uint32)
		ledger := w.delivered[i]
		if err := w.vini.Net.MustNode(name).StackListenUDP(migProbePort, func(d []byte) {
			if k, ok := probeKey(d); ok {
				ledger[k]++
			}
		}); err != nil {
			return nil, err
		}
	}

	w.baseline()
	if err := w.buildSlice("mig0"); err != nil {
		return nil, err
	}
	w.converge("build")

	for round := 0; round < opts.Rounds; round++ {
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

	// Final teardown: the substrate must come out exactly as clean as it
	// went in.
	if err := w.slice.Destroy(); err != nil {
		w.violate("final destroy: %v", err)
	}
	w.audit("final teardown")
	w.drain(3*time.Second, "final teardown")
	w.finish("rounds=%d nodes=%d sent=%d delivered=%d dups=%d",
		res.Rounds, res.Nodes, res.Sent, res.Delivered, res.Duplicates)
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
	if w.opts.Sabotage {
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
	// Rotate: the vacated node is the next spare.
	w.members[victimIdx] = target
	if vn, ok := w.slice.VirtualNode(target); ok {
		w.vnode[victimIdx] = vn
	}
	w.spare = victim
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
	*keys = append(*keys, fmt.Sprintf("%s#%d", dst, w.seq))
}

// probeKey attributes a delivered probe datagram back to its ledger key.
func probeKey(d []byte) (string, bool) {
	var ip packet.IPv4
	seg, err := ip.Parse(d)
	if err != nil {
		return "", false
	}
	var u packet.UDP
	pay, err := u.Parse(seg)
	if err != nil || len(pay) < 5 {
		return "", false
	}
	return fmt.Sprintf("%s#%d", ip.Dst, binary.BigEndian.Uint32(pay[:4])), true
}

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
	tel := w.vini.Telemetry()
	if tel == nil {
		return 0
	}
	n := 0
	for _, ev := range tel.Rec.Events() {
		if ev.Kind == telemetry.EvNeighbor && ev.At >= since {
			n++
		}
	}
	return n
}
