package simtest

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"vini/internal/core"
	"vini/internal/sim"
)

// ChurnOptions configures a slice-churn scenario: one long-lived
// substrate over which slices are repeatedly created, run, paused,
// re-embedded, and destroyed. The churn property is the lifecycle
// counterpart of the steady-state invariants in runBase: after every
// teardown the substrate must be exactly as clean as before the slice
// existed — pool ledger balanced, no timers left in any domain heap,
// no telemetry series under the dead slice's label, the next round
// admitted on the recycled ids, port blocks and prefixes — and the
// whole schedule must replay byte-identically for any worker count.
type ChurnOptions struct {
	Seed int64
	// workers is the executor's worker budget, exactly as in baseOptions.
	workers int
}

// ChurnResult is everything one churn scenario produced. Digest folds
// every per-round observation: slice identities, quiescent FIB
// fingerprints, re-embedding outcomes.
type ChurnResult struct {
	Outcome
	Nodes  int
	Rounds []ChurnRound
}

// ChurnRound is one create/run/pause/reembed/destroy cycle: the ids and
// base ports its slices were admitted on, the virtual links ReEmbed
// moved around the failed substrate link (Moved) and back after its
// restore (Back), and the executor events the round fired.
type ChurnRound struct {
	IDs         []int
	BasePorts   []uint16
	Moved, Back int
	Events      uint64
}

// churnRounds is the number of create/run/pause/reembed/destroy
// cycles, churnSlices the number of slices alive in each.
const churnRounds, churnSlices = 4, 2

// RunChurn executes one seeded churn scenario end to end.
func RunChurn(opts ChurnOptions) (*ChurnResult, error) {
	rng := sim.NewRNG(opts.Seed)
	n := 4 + rng.Intn(3)
	res := &ChurnResult{Nodes: n}
	w := newWorld("churn", &res.Outcome, opts.Seed, opts.workers)
	links := genTopology(rng, n)
	// A tree substrate gives the failed link no detour: close a cycle.
	// genTopology attaches node n-1 last, to one earlier node, so it is
	// a leaf of the tree; join it to a second node.
	if len(links) == n-1 {
		a := 0
		if links[n-2].a == 0 {
			a = 1
		}
		links = append(links, genLink{a: a, b: n - 1, cost: 1})
	}
	nodes, err := w.genSubstrate(rng, n, links, 2, 5)
	if err != nil {
		return nil, err
	}
	w.baseline()

	admitted0, fired := "", uint64(0)
	for round := 0; round < churnRounds; round++ {
		// Create this round's slices on the running substrate.
		var rd ChurnRound
		var overlays []*overlay
		var admitted []string
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
			s.StartOSPF(time.Second, 3*time.Second)
			w.fold("round %d slice %s id=%d port=%d prefix=%s",
				round, cfg.Name, s.ID(), s.BasePort(), s.Prefix())
			rd.IDs = append(rd.IDs, s.ID())
			rd.BasePorts = append(rd.BasePorts, s.BasePort())
			admitted = append(admitted, fmt.Sprintf("id %d port %d prefix %s", s.ID(), s.BasePort(), s.Prefix()))
			overlays = append(overlays, o)
		}
		// Recycling: the allocator's free lists are LIFO, so a round may
		// get round 0's ids, ports and prefixes in another order, but
		// never another one.
		slices.Sort(admitted)
		if got := strings.Join(admitted, ", "); round == 0 {
			admitted0 = got
		} else if got != admitted0 {
			w.violate("round %d admitted on %s, round 0 on %s (not recycled)", round, got, admitted0)
		}
		w.note("round %d: created %d slices", round, len(overlays))
		w.run(12 * time.Second)
		for i, o := range overlays {
			w.fold("round %d converged s%d fib=%016x", round, i, fibFingerprint(o.vnode))
		}

		// Pause one slice across the OSPF dead interval, then resume and
		// let it reconverge; the sibling slice must be undisturbed.
		paused := rng.Intn(len(overlays))
		if err := overlays[paused].slice.Pause(); err != nil {
			w.violate("round %d: pause: %v", round, err)
		}
		w.run(5 * time.Second)
		sibling := (paused + 1) % len(overlays)
		if !reachesPeer(overlays[sibling].vnode) {
			w.violate("round %d: sibling slice lost routes while s%d was paused", round, paused)
		}
		if err := overlays[paused].slice.Resume(); err != nil {
			w.violate("round %d: resume: %v", round, err)
		}
		w.run(15 * time.Second)
		if !reachesPeer(overlays[paused].vnode) {
			w.violate("round %d: slice s%d did not reconverge after resume", round, paused)
		}
		w.fold("round %d resumed s%d fib=%016x", round, paused, fibFingerprint(overlays[paused].vnode))

		// Fail one substrate link that has a detour and that a virtual
		// link of the exposed slice rides, re-embed the slice around it,
		// then restore and re-embed back.
		cands := detourable(overlays[0], nodes, links)
		if len(cands) == 0 {
			return nil, fmt.Errorf("simtest: churn seed %d: no substrate link has a detour", opts.Seed)
		}
		l := cands[rng.Intn(len(cands))]
		if err := w.vini.FailLink(nodes[l.a], nodes[l.b], 100*time.Millisecond); err != nil {
			return nil, err
		}
		w.run(2 * time.Second)
		if rd.Moved, err = overlays[0].slice.ReEmbed(); err != nil {
			w.violate("round %d: reembed: %v", round, err)
		}
		w.run(5 * time.Second)
		if err := w.vini.RestoreLink(nodes[l.a], nodes[l.b], 100*time.Millisecond); err != nil {
			return nil, err
		}
		w.run(2 * time.Second)
		if rd.Back, err = overlays[0].slice.ReEmbed(); err != nil {
			w.violate("round %d: reembed back: %v", round, err)
		}
		w.fold("round %d fail %s-%s moved=%d back=%d", round, nodes[l.a], nodes[l.b], rd.Moved, rd.Back)
		w.note("round %d: reembed moved %d, back %d", round, rd.Moved, rd.Back)

		// Teardown in creation order, then audit the wreckage: after every
		// teardown the substrate must be exactly as clean as before the
		// slices existed.
		where := fmt.Sprintf("round %d", round)
		for _, o := range overlays {
			if err := o.slice.Destroy(); err != nil {
				w.violate("round %d: destroy %s: %v", round, o.slice.Name(), err)
			}
		}
		w.audit(where)
		w.drain(3*time.Second, where)
		w.fold("round %d clean pending=%d", round, w.loop.Pending())
		total := w.vini.Executor().TotalFired()
		rd.Events, fired = total-fired, total
		res.Rounds = append(res.Rounds, rd)
	}

	w.finish("rounds=%d nodes=%d", len(res.Rounds), res.Nodes)
	return res, nil
}

// detourable is the links, in order, that a virtual link of o rides and
// that lie on a cycle of the substrate (their ends stay connected
// without them): failing one moves at least that virtual link.
func detourable(o *overlay, nodes []string, links []genLink) (out []genLink) {
	ridden := map[[2]string]bool{}
	for _, vl := range o.vls {
		p := vl.Path()
		for i := 1; i < len(p); i++ {
			ridden[[2]string{p[i-1], p[i]}], ridden[[2]string{p[i], p[i-1]}] = true, true
		}
	}
	for j, l := range links {
		seen := map[int]bool{l.a: true}
		for grew := true; grew; {
			grew = false
			for i, k := range links {
				if i != j && seen[k.a] != seen[k.b] {
					seen[k.a], seen[k.b], grew = true, true, true
				}
			}
		}
		if seen[l.b] && ridden[[2]string{nodes[l.a], nodes[l.b]}] {
			out = append(out, l)
		}
	}
	return out
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
