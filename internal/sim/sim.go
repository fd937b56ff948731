// Package sim provides the discrete-event simulation kernel used by the
// VINI substrate: a virtual clock, deterministic event ordering, and
// cancellable timers.
//
// Time is organized into Domains — sequential event timelines, one per
// physical node plus one control timeline — coordinated by an Executor
// that runs independent domains on parallel workers under conservative
// (lookahead-based) synchronization. Events are totally ordered by the
// merge key (timestamp, origin domain id, origin sequence), so results
// are byte-identical regardless of GOMAXPROCS or thread interleaving.
// See Executor for the synchronization algorithm.
//
// Loop is the control-timeline façade: NewLoop returns an executor with
// only its control domain, and all simulated components written against
// the Clock interface run unmodified inside a Domain, on a Loop, or on a
// real clock (see RealClock, which is how the live overlay in
// internal/overlay reuses the protocol implementations).
//
// Each domain's event queue is a typed 4-ary min-heap over *event (no
// interface boxing, better cache locality than binary for pop-heavy
// workloads) and event structs recycle through a per-domain free list,
// so the steady-state schedule/fire cycle does not allocate.
package sim

import (
	"time"
)

// Clock is the scheduling surface protocol code is written against.
// Implementations: *Loop and *Domain (virtual time) and *RealClock
// (wall time).
type Clock interface {
	// Now returns the current time as an offset from the start of the run.
	Now() time.Duration
	// Schedule arranges for fn to run at Now()+d. It returns a Timer that
	// can cancel the call. d < 0 is treated as 0.
	Schedule(d time.Duration, fn func()) Timer
}

// Timer is a handle to a scheduled callback. It is a small value; the
// zero Timer is valid and Stop on it is a no-op. Because events recycle
// through a free list, the handle carries a generation stamp — a Timer
// whose event has fired (and possibly been reused) safely does nothing.
// TickWheel timers point at their wheel entry instead of a heap event
// (one heap event backs a whole slot of entries); entries recycle too,
// under the same stamp.
type Timer struct {
	ev  *event
	gen uint32
	// wentry backs TickWheel timers: the entry holds the lazy
	// cancellation flag, and Stop routes through it so the wheel can
	// release the slot's heap event when its last entry is cancelled.
	wentry *wheelEntry
	// real backs RealClock timers.
	real *time.Timer
}

// Stop cancels the timer. It reports whether the call was cancelled before
// running. Stopping an already-fired, already-stopped, or zero Timer is a
// no-op. For in-domain timers, cancelling removes the event from the
// queue immediately, so the callback closure (and anything it captures)
// is released right away rather than being retained until its deadline
// pops. TickWheel timers cancel lazily: the flag flips now and the slot
// skips the entry when it fires.
func (t Timer) Stop() bool {
	if t.real != nil {
		return t.real.Stop()
	}
	if t.wentry != nil {
		return t.wentry.stop(t.gen)
	}
	if t.ev == nil || t.ev.gen != t.gen {
		return false
	}
	t.ev.owner.remove(t.ev)
	return true
}

// IsZero reports whether the timer was never set (the zero value).
// Callers use it where a nil *Timer check would have appeared.
func (t Timer) IsZero() bool { return t.ev == nil && t.wentry == nil && t.real == nil }

// pending reports whether the timer's callback is still scheduled: not
// yet fired and not stopped. For in-domain timers the generation stamp
// answers exactly; for TickWheel timers the stamp and the entry's
// cancellation flag do. RealClock timers report false — the wall clock offers no
// portable way to inspect a time.Timer, and the lifecycle audits that
// need Pending only run in simulation.
func (t Timer) pending() bool {
	if t.real != nil {
		return false
	}
	if e := t.wentry; e != nil {
		return e.gen == t.gen && !e.stopped
	}
	return t.ev != nil && t.ev.gen == t.gen
}

type event struct {
	at  time.Duration
	dom int32  // origin domain id (merge-key component)
	seq uint64 // origin sequence; ties break in schedule order
	fn  func()
	// h/arg back typed events (Send): no closure is allocated, the
	// long-lived Handler and its payload ride in the struct directly.
	h     Handler
	arg   any
	idx   int    // position in the heap
	gen   uint32 // incremented on recycle; stale Timers compare unequal
	owner *Domain
	next  *event // free-list link
}

// Loop is the control-timeline façade over a one-or-more-domain
// Executor. It embeds the control domain, so it is a Clock (Now,
// Schedule, RNG act on the control timeline), and its Run family
// drives the whole executor. The zero value is not usable; call
// NewLoop or Executor.Loop.
type Loop struct {
	*Domain
	exec *Executor
}

// NewLoop returns a Loop on a fresh one-worker executor, holding only
// the control domain until a network adds node domains. Its clock starts
// at zero and its RNG is seeded with seed (runs with equal seeds are
// bit-identical).
func NewLoop(seed int64) *Loop {
	return NewExecutor(seed, 1).Loop()
}

// Executor returns the coordinating executor (for creating node
// domains and reading parallel-run statistics).
func (l *Loop) Executor() *Executor { return l.exec }

// Pending reports the number of scheduled events across all domains.
// Cancelled in-domain events leave the queue immediately, so with a
// single domain this is exact.
func (l *Loop) Pending() int { return l.exec.pending() }

// Run executes events until every queue is empty, Stop is called, or the
// next event lies beyond until. Virtual time is left at min(until, time of
// last event run); it advances to until when the queue drains first.
func (l *Loop) Run(until time.Duration) { l.exec.Run(until) }

// RunAll executes events until the queue is empty or Stop is called.
// Unlike Run, it leaves virtual time at the time of the last event run.
func (l *Loop) RunAll() { l.exec.runAll() }

// RunUntilStable advances the loop in increments of step until the
// system fingerprint stays unchanged for settle consecutive steps, or
// until max virtual time has elapsed since the call. It returns the
// virtual time consumed and whether stability was reached.
//
// A network under periodic control traffic never drains its event queue
// (hello timers reschedule forever), so "quiescent" cannot mean "no
// events pending". Instead the caller supplies a fingerprint of the
// state it cares about — e.g. a hash over every node's FIB contents —
// and quiescence means the fingerprint stopped moving. This is the
// quiescent-point hook the simtest invariant engine runs checkers at.
func (l *Loop) RunUntilStable(step, max time.Duration, settle int, fingerprint func() uint64) (time.Duration, bool) {
	if step <= 0 {
		panic("sim: RunUntilStable with non-positive step")
	}
	if settle < 1 {
		settle = 1
	}
	start := l.Now()
	last := fingerprint()
	stable := 0
	for l.Now()-start < max {
		l.Run(l.Now() + step)
		if fp := fingerprint(); fp == last {
			stable++
			if stable >= settle {
				return l.Now() - start, true
			}
		} else {
			last = fp
			stable = 0
		}
	}
	return l.Now() - start, false
}

// RealClock adapts the wall clock to the Clock interface so protocol code
// written for the simulator drives live deployments (cmd/iiasd). Callbacks
// are delivered on arbitrary goroutines via time.AfterFunc; callers that
// need single-threaded semantics should funnel them through an actor loop
// (internal/overlay does this).
type RealClock struct {
	start time.Time
}

// NewRealClock returns a RealClock anchored at time.Now().
func NewRealClock() *RealClock { return &RealClock{start: time.Now()} }

// Now implements Clock.
func (c *RealClock) Now() time.Duration { return time.Since(c.start) }

// Schedule implements Clock.
func (c *RealClock) Schedule(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return Timer{real: time.AfterFunc(d, fn)}
}
