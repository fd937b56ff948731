// Distributed parity scenario: the same seeded, fixed-schedule physical
// world is built by every participating process (replicated
// construction), executed either whole (one process) or sharded across
// vinid workers, and fingerprinted. Per-domain schedule digests and the
// telemetry registry snapshot must merge byte-identically — that is the
// distributed analogue of the worker-parity property the CI matrix
// asserts in-process.
//
// The scenario is deliberately fixed-schedule (timed failures, timed
// run segments, no RunUntilStable feedback loop): quiescence probing
// reads world state between runs, which a sharded process cannot see
// for nodes it does not own.
package simtest

import (
	"fmt"
	"net/netip"
	"time"

	"vini/internal/core"
	"vini/internal/netem"
	"vini/internal/sched"
	"vini/internal/sim"
	"vini/internal/telemetry"
	"vini/internal/traffic"
)

// DistParams selects one distributed-parity scenario. It is the
// coordinator->worker contract: vinid serializes it as JSON into the
// handshake payload so every process provably builds the same world.
type DistParams struct {
	Seed  int64 `json:"seed"`
	Nodes int   `json:"nodes"` // ring size, >= 4
	// Duration is total virtual time, run in two segments with a
	// driver-time boundary in the middle (exercising replicated
	// driver-time code under sharding).
	Duration time.Duration `json:"duration"`
	// Workers is this process's executor worker budget (execution
	// parallelism only — never affects results).
	Workers int `json:"workers"`
}

func (p *DistParams) normalize() {
	if p.Nodes < 4 {
		p.Nodes = 6
	}
	if p.Duration <= 0 {
		p.Duration = 4 * time.Second
	}
}

// DistResult is one process's fingerprint of the scenario. For a shard
// of a split run the embedded whole-world digests cover only what this
// process saw; MergeDistResults rebuilds the real ones from
// DomainDigests and Snapshot.
type DistResult struct {
	Outcome
	// DomainDigests has one schedule digest per domain (index = domain
	// id); entries for domains this shard does not own are stale
	// replicas and must be substituted from the owner's report.
	DomainDigests []uint64
	// Snapshot is the registry snapshot (authoritative only for owned
	// nodes' series).
	Snapshot []telemetry.MetricValue
	// Delivered counts CBR packets received across all flows, a cheap
	// liveness check that traffic actually crossed shard boundaries.
	Delivered uint64
	Rounds    uint64
}

// RunDist executes the scenario as shard `shard` of `shards` joined by
// tr. Pass shards <= 1 (tr ignored) for the single-process baseline.
// The caller owns tr and closes it after the run.
func RunDist(p DistParams, tr sim.DomainTransport, shard, shards int) (*DistResult, error) {
	p.normalize()
	res := &DistResult{}
	w := newWorld("dist", &res.Outcome, p.Seed, p.Workers)
	v := w.vini

	// Ring plus stride-2 chords: every node has degree 4, failures leave
	// the graph connected, and shortest paths cross shard boundaries for
	// any ownership split.
	names := make([]string, p.Nodes)
	prof := netem.DETERProfile()
	for i := range names {
		names[i] = fmt.Sprintf("p%d", i)
		addr := netip.AddrFrom4([4]byte{10, 200, byte(i >> 8), byte(i & 0xff)})
		if _, err := v.AddNode(names[i], addr, prof, sched.Options{}); err != nil {
			return nil, err
		}
	}
	link := func(a, b string, delay time.Duration) error {
		_, err := v.AddLink(netem.LinkConfig{A: a, B: b, Bandwidth: 100e6,
			Delay: delay, QueueBytes: 64 << 10})
		return err
	}
	for i := range names {
		if err := link(names[i], names[(i+1)%p.Nodes], time.Millisecond); err != nil {
			return nil, err
		}
	}
	for i := 0; i < p.Nodes; i += 2 {
		if err := link(names[i], names[(i+2)%p.Nodes], 3*time.Millisecond); err != nil {
			return nil, err
		}
	}
	v.ComputeRoutes()
	w.baseline()

	if shards > 1 {
		v.Distribute(tr, shard, shards)
	}

	// CBR flows between far-apart nodes, so every packet crosses several
	// links (and, sharded, several process boundaries).
	var flows []*traffic.UDPCBR
	for i := 0; i < p.Nodes; i++ {
		src := v.Net.MustNode(names[i])
		dst := v.Net.MustNode(names[(i+p.Nodes/2)%p.Nodes])
		f, err := traffic.StartUDPCBR(v.Net, src, dst, traffic.UDPCBRConfig{
			RateBps: 2e6, Payload: 700, Port: uint16(6000 + i)})
		if err != nil {
			return nil, err
		}
		flows = append(flows, f)
	}

	// Timed failure and recovery on the control timeline (replicated on
	// every shard; the substrate IGP reroutes after 50ms).
	w.loop.Schedule(p.Duration/4, func() {
		if err := v.FailLink(names[0], names[1], 50*time.Millisecond); err != nil {
			panic(err)
		}
	})
	w.loop.Schedule(3*p.Duration/4, func() {
		if err := v.RestoreLink(names[0], names[1], 50*time.Millisecond); err != nil {
			panic(err)
		}
	})

	// Two segments with a replicated driver-time boundary in between.
	if err := v.RunE(p.Duration / 2); err != nil {
		return nil, err
	}
	for _, f := range flows {
		_ = f.Sent() // replicated driver-time read of owned-or-replica state
	}
	if err := v.RunE(p.Duration); err != nil {
		return nil, err
	}
	for _, f := range flows {
		f.Stop()
	}

	res.DomainDigests = v.Executor().DomainDigests()
	res.Snapshot = v.Telemetry().Reg.Snapshot()
	res.Rounds = v.Executor().Rounds()
	for _, f := range flows {
		res.Delivered += uint64(f.Received())
		f.Close()
	}
	w.audit("end of run")
	w.finish("shard=%d/%d delivered=%d", shard, shards, res.Delivered)
	return res, nil
}

// distOwner maps a telemetry node label to its executing shard for the
// RunDist world: node p<i> is created i-th, so its domain id is i+1
// (domain 0 is the replicated control timeline). Non-node labels
// (global series) stay with the coordinator.
func distOwner(shards int) func(node string) int {
	return func(node string) int {
		var i int
		if _, err := fmt.Sscanf(node, "p%d", &i); err != nil {
			return 0
		}
		return sim.OwnerShard(int32(i+1), shards)
	}
}

// MergeDistResults folds per-shard results (index = shard) into the
// whole-world schedule and telemetry digests, using the same owner
// mapping the executor used. results[0] must be the coordinator's
// result.
func MergeDistResults(results []*DistResult, shards int) (schedule, tel uint64, err error) {
	byShard := make([][]uint64, len(results))
	snaps := make([][]telemetry.MetricValue, len(results))
	for s, r := range results {
		if r == nil {
			return 0, 0, fmt.Errorf("simtest: missing result from shard %d", s)
		}
		byShard[s] = r.DomainDigests
		snaps[s] = r.Snapshot
	}
	schedule, err = core.MergeShardDigests(byShard, shards)
	if err != nil {
		return 0, 0, err
	}
	merged, err := telemetry.MergeSnapshots(results[0].Snapshot, distOwner(shards), snaps)
	if err != nil {
		return 0, 0, err
	}
	return schedule, telemetry.DigestOf(merged), nil
}
