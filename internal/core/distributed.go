package core

// Distributed execution: a VINI world is built identically in every
// process (replicated construction — the driver program must be
// deterministic), then Distribute marks which node domains this process
// executes; the rest become inert replicas whose events materialize on
// their owning shard. Cross-shard packet deliveries ride the
// sim.DomainTransport, and per-domain schedule digests plus telemetry
// snapshots merge back into a whole-world view that is byte-identical
// to a single-process run.

import (
	"fmt"
	"time"

	"vini/internal/sim"
)

// Distribute splits this infrastructure's node domains across process
// shards: this process executes shard `shard` of `shards`, joined to
// its peers by tr (a sim.SockWorker or sim.SockCoordinator). Must be
// called after the topology is complete and before the first Run.
func (v *VINI) Distribute(tr sim.DomainTransport, shard, shards int) {
	v.Executor().Distribute(tr, shard, shards)
}

// RunE advances virtual time like Run but surfaces transport failures
// (a dead or desynchronized peer shard) as a typed error instead of
// discarding it.
func (v *VINI) RunE(until time.Duration) error {
	return v.Executor().Run(until)
}

// MergeShardDigests reassembles the whole-world schedule digest from
// per-shard sim.Executor.DomainDigests reports: each domain's digest is
// taken from its owning shard, then folded exactly as a single
// process's ScheduleDigest folds its own domains. byShard[s] must be
// shard s's report; every report must cover all domains.
func MergeShardDigests(byShard [][]uint64, shards int) (uint64, error) {
	if len(byShard) == 0 {
		return 0, fmt.Errorf("core: no shard digest reports")
	}
	n := len(byShard[0])
	merged := make([]uint64, n)
	for dom := 0; dom < n; dom++ {
		s := sim.OwnerShard(int32(dom), shards)
		if s >= len(byShard) || len(byShard[s]) != n {
			return 0, fmt.Errorf("core: shard %d digest report missing or short (domain %d)", s, dom)
		}
		merged[dom] = byShard[s][dom]
	}
	return sim.FoldDigests(merged), nil
}
