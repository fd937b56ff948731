package telemetry

import "testing"

func TestMergeSnapshots(t *testing.T) {
	// Two shards build the identical registry; each owns one node's
	// counters. Shard 0 is the base.
	build := func(n0, n1 uint64) *Registry {
		r := NewRegistry()
		r.Counter("phys", "a", "pkts").Add(n0)
		r.Counter("phys", "b", "pkts").Add(n1)
		r.gauge("phys", "b", "depth").Set(int64(n1))
		return r
	}
	want := build(10, 20) // single-process truth
	s0 := build(10, 999)  // shard 0: node b is a stale replica
	s1 := build(999, 20)  // shard 1: node a is a stale replica
	owner := func(node string) int {
		if node == "b" {
			return 1
		}
		return 0
	}
	merged, err := MergeSnapshots(s0.Snapshot(), owner, [][]MetricValue{nil, s1.Snapshot()})
	if err != nil {
		t.Fatalf("MergeSnapshots: %v", err)
	}
	if got, w := DigestOf(merged), want.Digest(); got != w {
		t.Fatalf("merged digest %016x != single-process %016x", got, w)
	}

	// A diverged world (missing series on the owner shard) must error,
	// not silently keep the replica value.
	short := NewRegistry()
	short.Counter("phys", "a", "pkts").Add(10)
	if _, err := MergeSnapshots(s0.Snapshot(), owner, [][]MetricValue{nil, short.Snapshot()}); err == nil {
		t.Fatal("missing owner series accepted")
	}
	// An out-of-range owner shard must error too.
	if _, err := MergeSnapshots(s0.Snapshot(), func(string) int { return 7 }, [][]MetricValue{nil, s1.Snapshot()}); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
}
