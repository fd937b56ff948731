package simtest

import (
	"fmt"
	"hash"
	"hash/fnv"
	"net/netip"
	"time"

	"vini/internal/core"
	"vini/internal/netem"
	"vini/internal/packet"
	"vini/internal/sim"
	"vini/internal/topology"
)

// Outcome is the result header every regime's Result embeds: who ran
// (seed, workers), what was observed (log, violations), the replay
// fingerprints the parity properties compare, and wall-clock spend.
type Outcome struct {
	Seed int64
	// Workers is the executor's worker budget (at least 1).
	Workers    int
	Log        []string
	Violations []string
	// Digest folds every deterministic observation the regime made
	// (schedule of injected events, quiescent FIB fingerprints, traffic
	// counts, violations), so any divergence anywhere in the run changes
	// it. ScheduleDigest is the executor's fired-event digest: a fold
	// over every fired event's (timestamp, domain, sequence) merge key.
	// TelemetryDigest folds the metrics registry, FlightDigest the merged
	// flight-recorder stream, and Telemetry is the full JSON snapshot.
	// All five must be byte-identical for any Workers.
	Digest          uint64
	ScheduleDigest  uint64
	TelemetryDigest uint64
	FlightDigest    uint64
	Telemetry       string
	// Events counts fired executor events. BuildSeconds (construction up
	// to the ledger baseline) and RunSeconds (from there to the last
	// fired event) split wall-clock spend; diagnostic only, never folded
	// into digests.
	Events       uint64
	BuildSeconds float64
	RunSeconds   float64

	regime, summary string
}

// Failed reports whether any invariant was violated.
func (o *Outcome) Failed() bool { return len(o.Violations) > 0 }

// String renders a replay header plus log and violations, the text a
// failing test prints so the run can be reproduced from the seed alone.
func (o *Outcome) String() string {
	s := fmt.Sprintf("%s seed=%d workers=%d %s digest=%016x",
		o.regime, o.Seed, o.Workers, o.summary, o.Digest)
	for _, l := range o.Log {
		s += "\n  " + l
	}
	for _, v := range o.Violations {
		s += "\n  VIOLATION: " + v
	}
	return s
}

// world is the kernel every regime runs on: the infrastructure on its
// worker budget, the scenario digest, the ledger baselines, and the
// checks that must hold wherever a regime stops. Regimes keep their own
// state (topology, probes, phases) and call into it.
type world struct {
	vini   *core.VINI
	loop   *sim.Loop
	out    *Outcome
	digest hash.Hash64
	// pool and listeners are the ledger baselines taken by baseline().
	pool      packet.PoolStats
	listeners int
	// slices is every slice created through createSlice, live or
	// destroyed, in creation order: the audit's universe.
	slices []*core.Slice
	mark   time.Time
}

// beforeAuditForTest, when set, runs at the top of every audit so the
// negative tests can plant a leak inside an otherwise clean regime run.
var beforeAuditForTest func(*world)

// newWorld is the single place a regime's infrastructure is built and
// its telemetry enabled (every scenario runs with telemetry so the
// parity properties also pin the registry and flight recorder
// byte-for-byte). workers <= 1 is one worker.
func newWorld(regime string, out *Outcome, seed int64, workers int) *world {
	w := &world{out: out, digest: fnv.New64a(), mark: time.Now()}
	w.vini = core.NewParallel(seed, workers)
	out.regime, out.Seed, out.Workers = regime, seed, w.vini.Executor().Workers()
	w.vini.EnableTelemetry()
	w.loop = w.vini.Loop()
	return w
}

// note appends to the human-readable log; fold feeds the scenario
// digest; violate records an invariant failure (finish folds those).
func (w *world) note(format string, args ...any) {
	w.out.Log = append(w.out.Log, fmt.Sprintf(format, args...))
}

func (w *world) fold(format string, args ...any) {
	fmt.Fprintf(w.digest, format+"\n", args...)
}

func (w *world) violate(format string, args ...any) {
	w.out.Violations = append(w.out.Violations, fmt.Sprintf(format, args...))
}

// genSubstrate builds n DETER nodes n0..n<n-1> at 192.168.<subnet>.1..,
// joins them with a seeded random connected topology of 1 Gb/s links
// with 1..maxDelayMs ms of delay, and computes substrate routes. Every
// draw comes from rng in a fixed order — topology first, then one delay
// per link — which is the replay discipline: never reorder.
func (w *world) genSubstrate(rng *sim.RNG, n int, subnet byte, maxDelayMs int) ([]string, []genLink, error) {
	if n > 254 {
		return nil, nil, fmt.Errorf("simtest: %d nodes do not fit one /24", n)
	}
	nodes := make([]string, n)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("n%d", i)
	}
	links := genTopology(rng, n)
	wires := make([]topology.Link, len(links))
	for i, l := range links {
		wires[i] = topology.Link{A: nodes[l.a], B: nodes[l.b],
			Bandwidth: 1e9, Delay: time.Duration(1+rng.Intn(maxDelayMs)) * time.Millisecond}
	}
	err := w.vini.AddTopology(nodes, wires, netem.DETERProfile(), func(i int, _ string) netip.Addr {
		return netip.AddrFrom4([4]byte{192, 168, subnet, byte(1 + i)})
	})
	return nodes, links, err
}

// createSlice admits a slice and enrols it in the audit's universe.
func (w *world) createSlice(cfg core.SliceConfig) (*core.Slice, error) {
	s, err := w.vini.CreateSlice(cfg)
	if err == nil {
		w.slices = append(w.slices, s)
	}
	return s, err
}

// embed admits a slice through createSlice, places one virtual node on
// each of nodes, and joins them along links (indices into nodes).
func (w *world) embed(cfg core.SliceConfig, nodes []string, links []genLink) (*core.Slice, []*core.VirtualNode, []*core.VirtualLink, error) {
	s, err := w.createSlice(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	vns := make([]*core.VirtualNode, len(nodes))
	for i, name := range nodes {
		if vns[i], err = s.AddVirtualNode(name); err != nil {
			return nil, nil, nil, err
		}
	}
	vls := make([]*core.VirtualLink, len(links))
	for i, l := range links {
		if vls[i], err = s.ConnectVirtual(nodes[l.a], nodes[l.b], l.cost); err != nil {
			return nil, nil, nil, err
		}
	}
	return s, vns, vls, nil
}

// baseline snapshots the pool and stack-listener ledgers. Regimes call
// it once the substrate and their own fixtures (probe listeners) are up
// and before the loop first runs: at that instant nothing is in flight,
// and deltas from here cancel out whatever earlier scenarios in the
// same process left behind. It also ends the build phase of the
// wall-clock split.
func (w *world) baseline() {
	w.pool = packet.Stats()
	w.listeners = w.stackListeners()
	now := time.Now()
	w.out.BuildSeconds = now.Sub(w.mark).Seconds()
	w.mark = now
}

func (w *world) stackListeners() int {
	n := 0
	for _, name := range w.vini.Net.Nodes() {
		n += w.vini.Net.MustNode(name).StackListeners()
	}
	return n
}

// run advances the world by d of virtual time.
func (w *world) run(d time.Duration) { w.vini.Run(w.loop.Now() + d) }

// stable advances the loop in steps until no FIB of vnodes has been
// mutated for settle consecutive steps, or until max virtual time has
// passed, and returns the virtual time consumed and whether it got
// there. The FEA leaves a table alone when a protocol re-installs an
// unchanged route set, so a mutation counter moves only on a change.
func (w *world) stable(vnodes []*core.VirtualNode, step, max time.Duration, settle int) (time.Duration, bool) {
	start := w.loop.Now()
	last, quiet := fibVersions(vnodes), 0
	for w.loop.Now()-start < max {
		w.run(step)
		if v := fibVersions(vnodes); v != last {
			last, quiet = v, 0
		} else if quiet++; quiet >= settle {
			return w.loop.Now() - start, true
		}
	}
	return w.loop.Now() - start, false
}

// fibVersions sums the FIB mutation counters of vnodes. Each counter
// only rises, so the sum moves whenever any table is mutated.
func fibVersions(vnodes []*core.VirtualNode) (sum uint64) {
	for _, vn := range vnodes {
		sum += vn.FIB.Version()
	}
	return sum
}

// settle checks packet conservation: relative to the baseline, every
// pooled packet obtained has been released. Control traffic
// flows forever, so at any single instant a handful of pooled packets
// may legitimately be mid-flight inside the event queue; a leak, by
// contrast, never drains. Sampling the ledger at several closely spaced
// instants separates the two: a clean system hits a zero-in-flight
// instant almost immediately.
func (w *world) settle(where string) {
	for i := 0; i < 40 && packet.Stats().Sub(w.pool).InFlight() != 0; i++ {
		w.run(50 * time.Millisecond)
	}
	d := packet.Stats().Sub(w.pool)
	if n := d.InFlight(); n != 0 {
		w.violate("packet conservation at %s (t=%v): %d pooled packets unaccounted (gets=%d releases=%d)",
			where, w.loop.Now(), n, d.Gets, d.Releases)
	}
}

// drain is the tail of a full teardown: run d so in-flight deliveries
// land, settle the pool ledger, and demand empty domain heaps — with
// every slice destroyed and every workload closed, anything still
// pending is an orphaned timer.
func (w *world) drain(d time.Duration, where string) {
	w.run(d)
	w.settle(where)
	if p := w.loop.Pending(); p != 0 {
		w.violate("%s: %d events still pending after teardown (orphaned timers)", where, p)
	}
}

// audit checks every ledger that must balance wherever a regime stops,
// without advancing the clock (so it can never move a schedule or a
// digest — a finding only ever appears as a new violation): each
// slice's resource accounting, no telemetry series under a destroyed
// slice's label, the substrate address plan, and the stack-listener
// count against the baseline.
func (w *world) audit(where string) {
	if beforeAuditForTest != nil {
		beforeAuditForTest(w)
	}
	for _, s := range w.slices {
		if err := s.Audit(); err != nil {
			w.violate("%s: audit: %v", where, err)
		}
		if s.State() != core.StateDestroyed {
			continue
		}
		if live := w.vini.Telemetry().Reg.Series(s.Name()); live != 0 {
			w.violate("%s: %d telemetry series survive destroyed slice %s", where, live, s.Name())
		}
	}
	if err := w.vini.AuditAddressPlan(); err != nil {
		w.violate("%s: address plan: %v", where, err)
	}
	if n := w.stackListeners(); n != w.listeners {
		w.violate("%s: endpoint ledger unbalanced: %d stack listeners, baseline %d", where, n, w.listeners)
	}
}

// finish folds the violations, collects every digest and the telemetry
// snapshot. The format renders the regime's
// own fields for the replay header.
func (w *world) finish(format string, args ...any) {
	o := w.out
	for _, v := range o.Violations {
		w.fold("violation %s", v)
	}
	o.summary = fmt.Sprintf(format, args...)
	o.Digest = w.digest.Sum64()
	x := w.vini.Executor()
	o.Events = x.TotalFired()
	// The run ends here: rendering digests and the JSON snapshot is the
	// harness's cost, not the engine's.
	o.RunSeconds = time.Since(w.mark).Seconds()
	o.ScheduleDigest = x.ScheduleDigest()
	tel := w.vini.Telemetry()
	o.TelemetryDigest = tel.Reg.Digest()
	o.FlightDigest = tel.Rec.Digest()
	if js, err := tel.SnapshotJSON(); err == nil {
		o.Telemetry = string(js)
	}
}
