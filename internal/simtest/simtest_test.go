package simtest

import (
	"net/netip"
	"strings"
	"testing"
	"time"

	"vini/internal/fib"
)

// TestDistinctSeedsDiverge is the generator sanity check: different
// seeds must explore different worlds.
func TestDistinctSeedsDiverge(t *testing.T) {
	digests := map[uint64]int64{}
	same := 0
	for s := int64(1); s <= 8; s++ {
		r, err := runBase(baseOptions{seed: s})
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

// TestQuiescenceSeesARestoredRoute pins what quiescence means: no FIB
// mutation for a settle window. A route installed and withdrawn again
// inside one step leaves the table's contents as they were, but it is a
// mutation all the same, so the settle window restarts and stable takes
// one step more than settle.
func TestQuiescenceSeesARestoredRoute(t *testing.T) {
	sc, err := buildScenario(baseOptions{seed: 3, minNodes: 4, maxNodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	settle := sc.settleSteps()
	if _, ok := sc.stable(sc.vnode, time.Second, 300*time.Second, settle); !ok {
		t.Fatal("did not converge")
	}
	tbl := sc.vnode[0].FIB
	r := fib.Route{Prefix: netip.MustParsePrefix("192.0.2.0/24"), NextHop: sc.vnode[1].Interfaces()[0].Addr,
		OutPort: outPortEncap, Metric: 1, Owner: "test", Proto: "static"}
	sc.loop.Schedule(300*time.Millisecond, func() { tbl.Add(r) })
	sc.loop.Schedule(600*time.Millisecond, func() { tbl.Remove(r.Prefix) })
	took, ok := sc.stable(sc.vnode, time.Second, 300*time.Second, settle)
	if want := time.Duration(settle+1) * time.Second; !ok || took != want {
		t.Fatalf("took %v (settled %v), want %v", took, ok, want)
	}
}

// --- mutation tests: each one injects a fault the harness must catch ---

// TestCatchesCompiledFIBMutation poisons one node's compiled FIB (via
// the fib package's test-only hook) and demands the differential
// oracle reports it.
func TestCatchesCompiledFIBMutation(t *testing.T) {
	sc, err := buildScenario(baseOptions{seed: 3, minNodes: 4, maxNodes: 4})
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
	sc, err := buildScenario(baseOptions{seed: 5, minNodes: 3, maxNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sc.stable(sc.vnode, time.Second, 300*time.Second, sc.settleSteps()); !ok {
		t.Fatal("did not converge")
	}
	leakPacketForTest() // Get() with no Release
	sc.settle("leak test")
	if !sc.out.Failed() {
		t.Fatal("leaked packet went undetected by the conservation checker")
	}
	t.Logf("caught: %v", sc.out.Violations[0])
}

// TestCatchesForwardingLoop installs a two-node routing loop for a
// bogus destination straight into the FIBs and demands the loop walker
// reports it.
func TestCatchesForwardingLoop(t *testing.T) {
	sc, err := buildScenario(baseOptions{seed: 11, minNodes: 4, maxNodes: 4})
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
