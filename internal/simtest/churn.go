package simtest

import (
	"fmt"
	"time"

	"vini/internal/core"
	"vini/internal/sim"
)

// churnOptions configures a slice-churn scenario: one long-lived
// substrate over which slices are repeatedly created, run, paused,
// re-embedded, and destroyed. The churn property is the lifecycle
// counterpart of the steady-state invariants in runBase: after every
// teardown the substrate must be exactly as clean as before the slice
// existed — pool ledger balanced, no timers left in any domain heap,
// no telemetry series under the dead slice's label — and the whole
// schedule must replay byte-identically for any worker count.
type churnOptions struct {
	Seed int64
	// Rounds is the number of create/run/pause/reembed/destroy cycles
	// (default 4).
	Rounds int
	// Workers is the executor's worker budget, exactly as in baseOptions.
	Workers int
}

// churnResult is everything one churn scenario produced. Digest folds
// every per-round observation: slice identities, quiescent FIB
// fingerprints, re-embedding outcomes.
type churnResult struct {
	Outcome
	Rounds int
	Nodes  int
}

// churnSlices is the number of concurrent slices per round; with it the
// id-recycling bound: destroyed ids must be reissued, so the id space
// never grows past the concurrency high-water mark.
const churnSlices = 2

// runChurn executes one seeded churn scenario end to end.
func runChurn(opts churnOptions) (*churnResult, error) {
	if opts.Rounds == 0 {
		opts.Rounds = 4
	}
	rng := sim.NewRNG(opts.Seed)
	n := 4 + rng.Intn(3)
	res := &churnResult{Rounds: opts.Rounds, Nodes: n}
	w := newWorld("churn", &res.Outcome, opts.Seed, opts.Workers)
	nodes, links, err := w.genSubstrate(rng, n, 2, 5)
	if err != nil {
		return nil, err
	}
	w.baseline()

	for round := 0; round < opts.Rounds; round++ {
		// Create this round's slices on the running substrate.
		var slices []*core.Slice
		var vnodes [][]*core.VirtualNode
		for i := 0; i < churnSlices; i++ {
			cfg := core.SliceConfig{
				Name:     fmt.Sprintf("churn-r%d-s%d", round, i),
				CPUShare: 0.25,
				RT:       rng.Bool(0.5),
				// The first slice sees substrate failures so ReEmbed has
				// real state transitions to exercise.
				ExposePhysicalFailures: i == 0,
			}
			o, err := w.embed(cfg, nodes, links)
			if err != nil {
				return nil, err
			}
			s := o.slice
			// Recycling bound: with churnSlices concurrent slices ever
			// alive, destroyed ids must be reissued rather than burned.
			if s.ID() > churnSlices {
				w.violate("round %d: slice id %d exceeds concurrency bound %d (ids not recycled)",
					round, s.ID(), churnSlices)
			}
			s.StartOSPF(time.Second, 3*time.Second)
			w.fold("round %d slice %s id=%d port=%d prefix=%s",
				round, cfg.Name, s.ID(), s.BasePort(), s.Prefix())
			slices = append(slices, s)
			vnodes = append(vnodes, o.vnode)
		}
		w.note("round %d: created %d slices", round, len(slices))
		w.run(12 * time.Second)
		for i := range slices {
			w.fold("round %d converged s%d fib=%016x", round, i, fibFingerprint(vnodes[i]))
		}

		// Pause one slice across the OSPF dead interval, then resume and
		// let it reconverge; the sibling slice must be undisturbed.
		paused := rng.Intn(len(slices))
		if err := slices[paused].Pause(); err != nil {
			w.violate("round %d: pause: %v", round, err)
		}
		w.run(5 * time.Second)
		sibling := (paused + 1) % len(slices)
		if !reachesPeer(vnodes[sibling]) {
			w.violate("round %d: sibling slice lost routes while s%d was paused", round, paused)
		}
		if err := slices[paused].Resume(); err != nil {
			w.violate("round %d: resume: %v", round, err)
		}
		w.run(15 * time.Second)
		if !reachesPeer(vnodes[paused]) {
			w.violate("round %d: slice s%d did not reconverge after resume", round, paused)
		}
		w.fold("round %d resumed s%d fib=%016x", round, paused, fibFingerprint(vnodes[paused]))

		// Fail one substrate link, re-embed the exposed slice around it,
		// then restore and re-embed back.
		l := links[rng.Intn(len(links))]
		if err := w.vini.FailLink(nodes[l.a], nodes[l.b], 100*time.Millisecond); err != nil {
			return nil, err
		}
		w.run(2 * time.Second)
		moved, err := slices[0].ReEmbed()
		if err != nil {
			w.violate("round %d: reembed: %v", round, err)
		}
		w.run(5 * time.Second)
		if err := w.vini.RestoreLink(nodes[l.a], nodes[l.b], 100*time.Millisecond); err != nil {
			return nil, err
		}
		w.run(2 * time.Second)
		back, err := slices[0].ReEmbed()
		if err != nil {
			w.violate("round %d: reembed back: %v", round, err)
		}
		w.fold("round %d fail %s-%s moved=%d back=%d", round, nodes[l.a], nodes[l.b], moved, back)
		w.note("round %d: reembed moved %d, back %d", round, moved, back)

		// Teardown in creation order, then audit the wreckage: after every
		// teardown the substrate must be exactly as clean as before the
		// slices existed.
		where := fmt.Sprintf("round %d", round)
		for _, s := range slices {
			if err := s.Destroy(); err != nil {
				w.violate("round %d: destroy %s: %v", round, s.Name(), err)
			}
		}
		w.audit(where)
		w.drain(3*time.Second, where)
		w.fold("round %d clean pending=%d", round, w.loop.Pending())
	}

	w.finish("rounds=%d nodes=%d", res.Rounds, res.Nodes)
	return res, nil
}

// reachesPeer reports whether the first virtual node holds a FIB route
// to the last one's tap — the minimal "this slice's control plane is
// alive" probe.
func reachesPeer(vns []*core.VirtualNode) bool {
	if len(vns) < 2 {
		return true
	}
	_, ok := vns[0].FIB.Lookup(vns[len(vns)-1].TapAddr)
	return ok
}
