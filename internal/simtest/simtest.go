// Package simtest is a deterministic simulation-testing harness for the
// VINI stack, in the style FoundationDB made famous: a single seed
// drives a scenario generator (random virtual topology, traffic matrix,
// failure/recovery schedule), the whole world runs on the discrete
// event loop, and after every quiescent point an invariant engine
// checks properties that must hold in any reachable state:
//
//  1. no forwarding loops — the FIB next-hop graph is acyclic per
//     destination, and reachability matches the live link components;
//  2. control-plane/data-plane consistency — protocol RIB == FEA RIB ==
//     installed FIB == compiled stride-8 FIB == Click element caches;
//  3. packet conservation — every pooled packet obtained is released
//     or still in flight; nothing leaks (checked via the pool's
//     Gets == Releases ledger);
//  4. bounded reconvergence — after every injected failure the control
//     plane reaches a new fixed point within the scenario budget.
//
// Invariants 1 and 2 are world.check on an overlay; the base, scale and
// migrate regimes run it at every quiescent point.
//
// Differential oracles ride along: the compiled FIB and per-element
// caches are audited against the reference binary trie, and live
// traffic probes check that the data plane agrees with the control
// plane walk. Any divergence reproduces exactly from the printed seed.
package simtest

import (
	"fmt"
	"net/netip"
	"time"

	"vini/internal/packet"
)

// baseOptions configures one base scenario: a seed, and the knobs
// this package's tests turn, whose zero values select the defaults.
type baseOptions struct {
	seed int64
	// minNodes..maxNodes bounds the drawn topology size (defaults 3..8).
	minNodes, maxNodes int
	// workers is the executor's worker budget (<= 1 is one worker):
	// every node is its own time domain, executed by that many workers
	// under conservative synchronization. Any value must produce
	// byte-identical results (that is the worker-parity property the CI
	// matrix asserts).
	workers int
}

// runBase executes one seeded scenario end to end; its Log holds the
// injected failure/recovery events in order. It only returns an error
// for scenario-construction failures (which indicate harness bugs, not
// system-under-test bugs); invariant violations land in Violations.
func runBase(opts baseOptions) (*Outcome, error) {
	sc, err := buildScenario(opts)
	if err != nil {
		return nil, err
	}

	// Quiescence windows. RIP only notices a dead route when its
	// Timeout (6 updates = 30s at the 5s period) expires, and until
	// then the FIB can sit on a stale plateau that looks converged —
	// so scenarios running RIP must demand a stability window longer
	// than that plateau before declaring quiescence.
	const step = time.Second
	settle := sc.settleSteps()
	const maxConverge = 300 * time.Second

	if _, ok := sc.stable(sc.vnode, step, maxConverge, settle); !ok {
		sc.violate("initial convergence not reached within %v", maxConverge)
	}
	sc.checkpoint()
	sc.fold("warmup fib=%016x", fibFingerprint(sc.vnode))

	events := 2 + sc.rng.Intn(4)
	for e := 0; e < events; e++ {
		line := sc.nextEvent()
		sc.note("%s", line)
		sc.fold("event %s", line)
		if _, ok := sc.stable(sc.vnode, step, maxConverge, settle); !ok {
			sc.violate("reconvergence after %q not reached within %v", line, maxConverge)
			continue
		}
		sc.checkpoint()
		sc.fold("quiescent fib=%016x", fibFingerprint(sc.vnode))
	}

	sc.audit("end of run")
	sc.finish("nodes=%d links=%d rip=%v", len(sc.vnode), len(sc.links), sc.withRIP)
	return sc.out, nil
}

// settleSteps is the quiescence window in 1s steps (see runBase).
func (sc *scenario) settleSteps() int {
	if sc.withRIP {
		return 36
	}
	return 5
}

// checkpoint runs the full invariant suite at one quiescent point.
func (sc *scenario) checkpoint() {
	sc.check("checkpoint", sc.overlay, sc.addrSample())
	sc.out.Violations = append(sc.out.Violations, sc.runProbes()...)
	sc.settle("checkpoint")
}

// addrSample is the overlay's addresses plus 16 seeded random ones for
// the no-route paths.
func (sc *scenario) addrSample() []netip.Addr {
	out := sc.addrs()
	for i := 0; i < 16; i++ {
		out = append(out, netip.AddrFrom4([4]byte{10, byte(sc.rng.Intn(256)),
			byte(sc.rng.Intn(256)), byte(sc.rng.Intn(256))}))
	}
	return out
}

// runProbes injects a small traffic matrix — real UDP datagrams through
// the pooled data plane — and checks exact delivery counts against the
// link-component ground truth: same-component pairs deliver every
// probe, cross-component pairs deliver none.
func (sc *scenario) runProbes() []string {
	const perPair = 2
	comp := sc.components()
	before := append([]int(nil), sc.delivered...)
	expected := make([]int, len(sc.vnode))
	for s, svn := range sc.vnode {
		for d, dvn := range sc.vnode {
			if s == d {
				continue
			}
			n := 1 // cross-component probes still exercise drop paths
			if comp[s] == comp[d] {
				n = perPair
				expected[d] += perPair
			}
			for k := 0; k < n; k++ {
				sc.probeSent++
				sport := uint16(41000 + sc.probeSent%1000)
				svn.Phys().StackSend(packet.BuildUDP(svn.TapAddr, dvn.TapAddr,
					sport, probePort, 64, []byte("simtest-probe")))
			}
		}
	}
	// Drain: worst-case path is diameter x (propagation + forwarder
	// scheduling), far under a virtual second; give it two.
	sc.run(2 * time.Second)
	var out []string
	for d := range sc.vnode {
		got := sc.delivered[d] - before[d]
		if got != expected[d] {
			out = append(out, fmt.Sprintf("probe delivery at n%d: got %d datagrams, expected %d",
				d, got, expected[d]))
		}
	}
	return out
}
