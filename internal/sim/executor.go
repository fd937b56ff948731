package sim

import (
	"sync"
	"sync/atomic"
	"time"
)

// Domain scheduler states (Domain.state). The state machine keeps each
// domain in the run queue at most once and lets message arrivals mark a
// running domain dirty instead of double-queueing it:
//
//	idle -> queued        (enqueue: domain has potential work)
//	queued -> running     (a worker picked it up)
//	running -> dirty      (new input arrived mid-window; rerun)
//	dirty -> running      (the owning worker loops again)
//	running -> idle       (window fixpoint reached)
const (
	stateIdle int32 = iota
	stateQueued
	stateRunning
	stateDirty
)

// Executor coordinates a set of Domains under conservative
// (lookahead-based) parallel discrete-event synchronization. Unlike the
// original design — a global barrier every time the narrowest horizon
// was exhausted, ~one barrier per minimum link delay of virtual time —
// domains now run free of each other between control barriers:
//
//   - Every domain publishes a monotone execution bound pub(d): a
//     promise that no event with an earlier timestamp will ever run in
//     d within the current window. After each execution window,
//     pub(d) = max(pub(d), min(next(d), H(d)+1)).
//
//   - A domain's inclusive horizon is derived from its in-neighbors'
//     promises: H(d) = min over registered edges e=(s->d) of
//     pub(s) + delay(e) - 1, capped by the run window and by the next
//     control event. Any message that can still arrive does so at or
//     after pub(s)+delay, strictly beyond H(d), so running d to H(d)
//     never receives a message from its past — the conservative-PDES
//     safety condition.
//
//   - Workers drain a domain's inbox, run it to its horizon, flush its
//     outbound message trains, publish its new bound, and wake the
//     domains that received messages or whose horizon the new bound
//     widens. Wakes cascade through one shared LIFO run queue until the
//     promises reach their fixpoint and the system goes quiescent — the
//     counting "epoch barrier": the queue is empty and an atomic counter
//     of live domains is zero.
//
//   - The coordinator — the goroutine that called Run, and the only
//     context that touches the control domain — seeds each epoch and
//     then drains the run queue as a worker itself, beside
//     min(workers, node domains)-1 helper goroutines that live for the
//     Run. With one worker there is no helper: no goroutine, no park, no
//     handoff. At quiescence the coordinator runs due control events at
//     a true barrier, re-seeds the domains, and begins the next epoch.
//     Rounds() counts these epochs: control barriers plus fallback
//     steps, not per-lookahead round trips.
//
// Determinism does not depend on thread scheduling: per-domain event
// order is fixed by the merge key (timestamp, origin domain id, origin
// sequence), and the set of events run between barriers is the least
// fixpoint of the monotone promise equations, which chaotic iteration
// reaches regardless of wake order. Runs with 1 worker and N workers
// execute the identical event sequence per domain and produce
// byte-identical schedule digests.
//
// If some lookahead is zero (a zero-delay cross-domain cycle), promises
// stop rising and the system quiesces without progress; the coordinator
// then runs the single globally minimal event sequentially. That is the
// exact total order a single shared heap would have used, so the result
// is still deterministic — it just doesn't scale.
type Executor struct {
	domains []*Domain
	loop    *Loop
	workers int

	// mu guards the run queue (LIFO: the last domain woken is the most
	// cache-warm), the count of parked workers and quit; cond, on mu,
	// does all waiting. Helper goroutines live only inside run:
	// startWorkers launches each through its pre-bound entry in helpers
	// (a bare `go fn()` allocates nothing), stopWorkers raises quit and
	// joins them on wg. started marks the first run, which fixes the
	// helper count.
	mu      sync.Mutex
	cond    sync.Cond
	queue   []*Domain
	idle    int
	quit    bool
	started bool
	helpers []func()
	wg      sync.WaitGroup

	// live counts domains in queued/running/dirty states; the epoch is
	// quiescent when it is zero and the queue is empty.
	live atomic.Int64

	// untilA/ctrlGate publish the current run window and the next
	// control-event time to the workers (read in horizon math).
	untilA   atomic.Int64
	ctrlGate atomic.Int64

	rounds    uint64
	fallbacks uint64

	// Diagnostic counters (scheduler-dependent, outside the parity
	// contract).
	windows atomic.Uint64
	parks   atomic.Uint64
	parkNS  atomic.Uint64
}

// NewExecutor returns an executor with the given worker budget (at
// least one) and its control domain (id 0) already created, seeded like
// NewLoop(seed).
func NewExecutor(seed int64, workers int) *Executor {
	if workers < 1 {
		workers = 1
	}
	x := &Executor{workers: workers}
	x.cond.L = &x.mu
	ctrl := &Domain{id: 0, label: "control", exec: x, rng: NewRNG(seed)}
	ctrl.inboxMin.Store(int64(maxTime))
	x.domains = []*Domain{ctrl}
	x.loop = &Loop{Domain: ctrl, exec: x}
	return x
}

// Loop returns the control-domain façade (Run, RunAll, Schedule on the
// control timeline).
func (x *Executor) Loop() *Loop { return x.loop }

// Workers returns the configured worker budget.
func (x *Executor) Workers() int { return x.workers }

// NewDomain creates a node domain. Its RNG forks off the control
// stream, so the draw sequence is fixed by creation order alone. All
// domains must be created before the first Run.
func (x *Executor) NewDomain(label string) *Domain {
	ctrl := x.domains[0]
	d := &Domain{id: int32(len(x.domains)), label: label, exec: x,
		rng: ctrl.rng.Fork(), now: ctrl.now}
	d.inboxMin.Store(int64(maxTime))
	x.domains = append(x.domains, d)
	return d
}

// Domains returns the live domain list (control first). Callers must
// not mutate it.
func (x *Executor) Domains() []*Domain { return x.domains }

// Rounds returns how many coordinator epochs have run: control barriers
// and fallback steps, each separated by a full parallel quiescence
// phase.
func (x *Executor) Rounds() uint64 { return x.rounds }

// Fallbacks returns how many events ran through the sequential
// zero-lookahead fallback.
func (x *Executor) Fallbacks() uint64 { return x.fallbacks }

// Windows returns how many per-domain execution windows workers ran
// (drain/run/flush/publish cycles). Scheduler-dependent; diagnostic.
func (x *Executor) Windows() uint64 { return x.windows.Load() }

// Parks returns how many times workers parked for lack of work, and
// ParkTime the wall-clock total spent parked. Scheduler-dependent.
func (x *Executor) Parks() uint64 { return x.parks.Load() }

// ParkTime returns the cumulative wall time workers spent parked.
func (x *Executor) ParkTime() time.Duration { return time.Duration(x.parkNS.Load()) }

// TrainStats sums flushed train counts and the typed messages they
// carried across domains.
func (x *Executor) TrainStats() (trains, msgs uint64) {
	for _, d := range x.domains {
		trains += d.stats.Trains
		msgs += d.stats.TrainMsgs
	}
	return trains, msgs
}

// Deliveries sums cross-domain messages materialized into domain heaps.
func (x *Executor) Deliveries() uint64 {
	var n uint64
	for _, d := range x.domains {
		n += d.stats.Delivered
	}
	return n
}

// TotalFired sums fired events across domains.
func (x *Executor) TotalFired() uint64 {
	var n uint64
	for _, d := range x.domains {
		n += d.stats.Fired
	}
	return n
}

// ScheduleDigest folds every domain's fired-event digest in domain-id
// order. Two runs of the same scenario match iff every domain fired the
// same events in the same order — the byte-identical replay check the
// worker-parity tests assert.
func (x *Executor) ScheduleDigest() uint64 {
	h := fnvOffset
	for _, d := range x.domains {
		h = (h ^ d.digest) * fnvPrime
	}
	return h
}

// pending reports scheduled events across all domains, including
// not-yet-delivered cross-domain messages and unflushed trains.
func (x *Executor) pending() int {
	n := 0
	for _, d := range x.domains {
		n += len(d.heap)
		n += d.trainBacklog()
		d.inMu.Lock()
		n += len(d.tin)
		d.inMu.Unlock()
	}
	return n
}

// Shutdown does nothing: worker goroutines exit before Run returns, so
// an executor holds nothing to release. Kept for callers written when
// workers outlived Run.
func (x *Executor) Shutdown() {}

// Run executes events until every domain's next event lies beyond
// until. Virtual time in every domain is advanced to until when its work
// drains first.
func (x *Executor) Run(until time.Duration) {
	if len(x.domains) == 1 {
		d := x.domains[0]
		for len(d.heap) > 0 {
			if d.heap[0].at > until {
				d.now = until
				return
			}
			d.step()
		}
		if d.now < until {
			d.now = until
		}
		return
	}
	x.run(until, true)
}

// runAll executes events until every queue is empty, leaving each
// domain's clock at its last event. Under multi-domain execution prefer
// Run(until): runAll leaves domain clocks ragged, which is fine for
// draining but makes "schedule more work afterwards" ambiguous.
func (x *Executor) runAll() {
	if len(x.domains) == 1 {
		for x.domains[0].step() {
		}
		return
	}
	x.run(maxTime, false)
}

// startWorkers launches the helper goroutines for one run: one fewer
// than the workers the node domains can use, since the coordinator is
// the other. The count is fixed on first use (domains are fixed before
// the first Run).
func (x *Executor) startWorkers() {
	if !x.started {
		x.started = true
		for range min(x.workers, len(x.domains)-1) - 1 {
			x.helpers = append(x.helpers, func() {
				x.work(false)
				x.wg.Done()
			})
		}
	}
	x.wg.Add(len(x.helpers))
	for _, fn := range x.helpers {
		go fn()
	}
}

// stopWorkers makes every helper exit and waits for it, so no goroutine
// outlives the run that started it. Helpers are idle here: run only
// returns from a barrier.
func (x *Executor) stopWorkers() {
	x.mu.Lock()
	x.quit = true
	x.cond.Broadcast()
	x.mu.Unlock()
	x.wg.Wait()
	x.quit = false
}

// flushAllTrains flushes every domain's outbound trains into the
// destination inboxes and clears the wake scratch lists. Barrier
// context only (driver sends between runs, control events, fallback
// steps).
func (x *Executor) flushAllTrains() {
	for _, d := range x.domains {
		d.flushTrains()
		d.flushed = d.flushed[:0]
	}
}

func (x *Executor) deliverAll() {
	for _, d := range x.domains {
		d.drainInbox()
	}
}

// minHead returns the node domain whose heap head is the earliest
// pending node event in the merge order, or nil when no node domain
// holds one. Inboxes must already be drained: after deliverAll every
// pending event sits in a heap.
func (x *Executor) minHead() *Domain {
	var m *Domain
	for _, d := range x.domains[1:] {
		if len(d.heap) > 0 && (m == nil || less(d.heap[0], m.heap[0])) {
			m = d
		}
	}
	return m
}

// advanceAll moves every domain clock forward to t (never backward).
// Called at control barriers so a control event at time t that touches
// a node's clock schedules against the correct base.
func (x *Executor) advanceAll(t time.Duration) {
	for _, d := range x.domains {
		if d.now < t {
			d.now = t
		}
	}
}

// satAdd adds durations with saturation at maxTime.
func satAdd(a, b time.Duration) time.Duration {
	s := a + b
	if s < a {
		return maxTime
	}
	return s
}

// progress is the coordinator's epoch progress metric: total events
// consumed (fired or lazily discarded). Barrier context only.
func (x *Executor) progress() uint64 {
	var n uint64
	for _, d := range x.domains {
		n += d.stats.Fired + d.stats.Cancelled
	}
	return n
}

// enqueue marks d runnable and queues it if it was idle. The control
// domain is never enqueued: only the coordinator runs it, at barriers.
func (x *Executor) enqueue(d *Domain) {
	if d.id == 0 {
		return
	}
	for {
		switch s := d.state.Load(); s {
		case stateIdle:
			if d.state.CompareAndSwap(stateIdle, stateQueued) {
				x.live.Add(1)
				x.mu.Lock()
				x.queue = append(x.queue, d)
				if x.idle > 0 {
					x.cond.Signal()
				}
				x.mu.Unlock()
				return
			}
		case stateQueued, stateDirty:
			return
		case stateRunning:
			if d.state.CompareAndSwap(stateRunning, stateDirty) {
				return
			}
		}
	}
}

// work runs queued domains until there are none left to run. A helper
// (coord false) returns once stopWorkers raises quit; the coordinator
// returns once the queue is empty and no domain is live, which is the
// epoch's quiescence. A worker that finds the queue empty spins a few
// times, then parks on cond: an enqueue wakes one parked worker, the
// last domain to go idle wakes them all.
func (x *Executor) work(coord bool) {
	spins := 0
	for {
		x.mu.Lock()
		if n := len(x.queue); n > 0 {
			d := x.queue[n-1]
			x.queue[n-1] = nil
			x.queue = x.queue[:n-1]
			x.mu.Unlock()
			spins = 0
			x.runDomain(d)
			continue
		}
		if coord && x.live.Load() == 0 || !coord && x.quit {
			x.mu.Unlock()
			return
		}
		if spins++; spins < 8 {
			x.mu.Unlock()
			continue
		}
		x.idle++
		x.parks.Add(1)
		t0 := time.Now()
		x.cond.Wait()
		x.idle--
		x.parkNS.Add(uint64(time.Since(t0)))
		x.mu.Unlock()
		spins = 0
	}
}

// horizonOf computes d's inclusive safe horizon from its in-neighbors'
// published bounds, per registered edge (pub(src)+delay), capped by the
// run window and the next control event.
func (x *Executor) horizonOf(d *Domain, until time.Duration) time.Duration {
	h := until
	if cg := time.Duration(x.ctrlGate.Load()); cg != maxTime && cg-1 < h {
		h = cg - 1
	}
	for _, e := range d.ins {
		if b := satAdd(e.src.pubTime(), e.delay) - 1; b < h {
			h = b
		}
	}
	return h
}

// runDomain is the worker-side execution window loop for one claimed
// domain: snapshot the safe horizon, drain the inbox, run the window,
// flush trains, publish the new bound, wake dependents, and loop while
// new input keeps arriving (dirty state). Exits through running->idle,
// releasing the domain's live count; the release that brings it to zero
// wakes every parked worker, the coordinator among them.
func (x *Executor) runDomain(d *Domain) {
	if !d.state.CompareAndSwap(stateQueued, stateRunning) {
		d.state.Store(stateRunning)
	}
	until := time.Duration(x.untilA.Load())
	for {
		x.windows.Add(1)
		// Snapshot the horizon BEFORE draining the inbox. A neighbor can
		// flush a message and raise its published bound at any point; if
		// we drained first, a message landing in the gap could carry a
		// timestamp inside a horizon computed from the *raised* bound,
		// and this window would run past it (late fire, order violation).
		// Read pubs first and every message flushed afterwards arrives
		// strictly beyond h (pub is monotone, arrivals are >= pub+delay);
		// the sender's post-flush enqueue marks us dirty so the loop
		// comes back for it.
		h := x.horizonOf(d, until)
		d.drainInbox()
		if len(d.heap) > 0 && d.heap[0].at <= h {
			d.runTo(h)
		} else if n := d.next(); n <= until && n > h {
			d.stats.Stalls++
		}
		d.flushTrains()
		// Publish after flushing, so a receiver that observes the new
		// bound also observes every message it promises about.
		np := d.next()
		if hp := satAdd(h, 1); hp < np {
			np = hp
		}
		raised := false
		if cur := d.pub.Load(); int64(np) > cur {
			d.pub.Store(int64(np))
			raised = true
		}
		// Wake message receivers first (they have concrete work), then
		// — if the bound rose — the domains whose horizons it widens.
		for _, dst := range d.flushed {
			x.enqueue(dst)
		}
		d.flushed = d.flushed[:0]
		if raised {
			for _, o := range d.outs {
				x.enqueue(o)
			}
		}
		if d.state.CompareAndSwap(stateRunning, stateIdle) {
			if x.live.Add(-1) == 0 {
				x.mu.Lock()
				x.cond.Broadcast()
				x.mu.Unlock()
			}
			return
		}
		// Marked dirty while running: new input arrived; go again.
		d.state.Store(stateRunning)
	}
}

// run is the multi-domain coordinator loop described on Executor. Each
// iteration flushes and delivers cross-domain traffic, finds the
// earliest pending node event, then takes exactly one action — one
// control event, a return (window exhausted), one sequential fallback
// event, or one parallel epoch.
//
// Control runs at most ONE event per iteration: a control event can
// schedule node events, so the earliest node event must be found again
// before deciding whether another control event still precedes all node
// work.
func (x *Executor) run(until time.Duration, advance bool) {
	x.startWorkers()
	defer x.stopWorkers()
	ctrl := x.domains[0]
	x.untilA.Store(int64(until))
	// Promises from a previous window may exceed events the driver has
	// scheduled since; restart them from the clocks (no workers are
	// active here, and lower bounds are always safe).
	for _, d := range x.domains {
		d.pub.Store(int64(d.now))
	}
	// stalled records that the previous iteration ran an epoch which
	// consumed nothing: the promise fixpoint is stuck below every
	// pending event.
	stalled := false
	for {
		x.flushAllTrains()
		x.deliverAll()
		head := x.minHead()
		nodeNext := maxTime
		if head != nil {
			nodeNext = head.heap[0].at
		}
		fallback := stalled
		stalled = false

		// Control phase, at a true barrier. At equal timestamps the
		// merge order (at, dom, seq) puts control (domain 0) first, so
		// the limit comparison below is inclusive.
		if len(ctrl.heap) > 0 {
			cn := ctrl.heap[0].at
			if cn <= min(until, nodeNext) {
				x.advanceAll(cn)
				ctrl.step()
				// Control work may have scheduled node events or sent
				// messages; restart from the delivery barrier.
				continue
			}
		}

		ctrlNext := maxTime
		if len(ctrl.heap) > 0 {
			ctrlNext = ctrl.heap[0].at
		}
		x.ctrlGate.Store(int64(ctrlNext))

		if head == nil || nodeNext > until {
			// The control phase already ran everything at or before
			// min(until, nodeNext), so nothing within the window
			// remains anywhere.
			if advance {
				x.advanceAll(until)
			}
			return
		}

		if fallback {
			// Quiescent with no progress: a zero-lookahead cycle (or a
			// promise fixpoint below every pending event). Run exactly
			// the globally minimal event sequentially, which is the
			// identical total order a shared heap would have used, so
			// determinism holds; only parallelism is lost.
			x.fallbacks++
			head.step()
			continue
		}

		// Epoch: seed every node domain (idle ones still relay promise
		// updates), then drain the queue beside the helpers until the
		// epoch is quiescent.
		before := x.progress()
		// Sync promises up from the clocks BEFORE the first enqueue: the
		// moment one domain is queued, worker cascades are live and
		// now/pub belong to the workers. Interleaving the sync with the
		// enqueues raced — and the check-then-store could overwrite a
		// concurrently raised bound with a stale lower one.
		for _, d := range x.domains[1:] {
			if p := int64(d.now); p > d.pub.Load() {
				d.pub.Store(p)
			}
		}
		for _, d := range x.domains[1:] {
			x.enqueue(d)
		}
		x.work(true)
		x.rounds++
		stalled = x.progress() == before
	}
}
