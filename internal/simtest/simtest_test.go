package simtest

import (
	"strings"
	"testing"
	"time"
)

// TestDistinctSeedsDiverge is the generator sanity check: different
// seeds must explore different worlds.
func TestDistinctSeedsDiverge(t *testing.T) {
	digests := map[uint64]int64{}
	same := 0
	for s := int64(1); s <= 8; s++ {
		r, err := Run(Options{Seed: s})
		if err != nil {
			t.Fatalf("seed %d: %v", s, err)
		}
		if _, dup := digests[r.Digest]; dup {
			same++
		}
		digests[r.Digest] = s
	}
	if same > 0 {
		t.Errorf("%d of 8 seeds produced duplicate digests — generator is not consuming the seed", same)
	}
}

// TestReconvergenceBounded checks invariant 4's reporting path: every
// recorded reconvergence must be finite and under the budget.
func TestReconvergenceBounded(t *testing.T) {
	r, err := Run(Options{Seed: 7, events: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed() {
		t.Fatalf("seed 7 violated invariants:\n%s", r)
	}
	if len(r.Reconvergences) != 4 {
		t.Fatalf("expected 4 reconvergence samples, got %d", len(r.Reconvergences))
	}
	for i, d := range r.Reconvergences {
		if d < 0 || d > 300*time.Second {
			t.Errorf("event %d: reconvergence %v out of bounds", i, d)
		}
	}
}

// --- mutation tests: each one injects a fault the harness must catch ---

// TestCatchesCompiledFIBMutation poisons one node's compiled FIB (via
// the fib package's test-only hook) and demands the differential
// oracle reports it.
func TestCatchesCompiledFIBMutation(t *testing.T) {
	sc, err := buildScenario(Options{Seed: 3, minNodes: 4, maxNodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sc.stable(sc.vnode, time.Second, 300*time.Second, sc.settleSteps()); !ok {
		t.Fatal("did not converge")
	}
	if v := sc.checkLoops(); len(v) != 0 {
		t.Fatalf("clean scenario reported loop violations: %v", v)
	}
	sc.vnode[1].FIB.CorruptCompiledForTest()
	sample := sc.addrSample()
	var all []string
	for i := range sc.vnode {
		all = append(all, sc.checkConsistency(i, sample)...)
	}
	if len(all) == 0 {
		t.Fatal("compiled-FIB mutation went undetected by the differential oracle")
	}
	t.Logf("caught: %v", all[0])
}

// TestCatchesPacketLeak takes a pooled packet and never releases it;
// the conservation checker must flag exactly that.
func TestCatchesPacketLeak(t *testing.T) {
	sc, err := buildScenario(Options{Seed: 5, minNodes: 3, maxNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sc.stable(sc.vnode, time.Second, 300*time.Second, sc.settleSteps()); !ok {
		t.Fatal("did not converge")
	}
	leakPacketForTest() // Get() with no Release
	sc.settle("leak test")
	if !sc.res.Failed() {
		t.Fatal("leaked packet went undetected by the conservation checker")
	}
	t.Logf("caught: %v", sc.res.Violations[0])
}

// TestCatchesForwardingLoop installs a two-node routing loop for a
// bogus destination straight into the FIBs and demands the loop walker
// reports it.
func TestCatchesForwardingLoop(t *testing.T) {
	sc, err := buildScenario(Options{Seed: 11, minNodes: 4, maxNodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sc.stable(sc.vnode, time.Second, 300*time.Second, sc.settleSteps()); !ok {
		t.Fatal("did not converge")
	}
	if v := sc.checkLoops(); len(v) != 0 {
		t.Fatalf("clean scenario reported loop violations: %v", v)
	}
	// Point n0's route for n1's tap back through a next hop owned by
	// n0 itself is impossible; instead aim n0 -> n1 and n1 -> n0 for
	// the same destination: n2's tap.
	dst := sc.vnode[2].TapAddr
	installLoopForTest(sc, 0, 1, dst)
	v := sc.checkLoops()
	found := false
	for _, s := range v {
		if strings.HasPrefix(s, "forwarding loop") {
			found = true
		}
	}
	if !found {
		t.Fatalf("injected forwarding loop went undetected; got %v", v)
	}
	t.Logf("caught: %v", v)
}
