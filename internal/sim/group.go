package sim

import "time"

// TimerGroup is a Clock wrapper that tracks every timer scheduled
// through it, so a whole subsystem's pending work can be cancelled in
// one call — the mechanism slice teardown uses to guarantee no orphaned
// timers survive in any domain heap. Protocol code keeps its own Timer
// handles and stops them individually as usual; the group is the
// backstop for the timers nobody saved (periodic reschedules, staggered
// start closures, shaper release chains).
//
// A group is owned by exactly one timeline: it must only be used from
// code running inside the wrapped clock's domain or at a barrier
// (driver code between Run calls, control-domain events) — the same
// contract as Domain.Schedule itself. It is not safe for concurrent
// use from other domains.
type TimerGroup struct {
	clock   Clock
	stopped bool
	// timers holds the handle of every timer scheduled through the
	// group; handles whose timers fired or were stopped linger until the
	// next sweep (a stale handle is inert: Pending and Stop answer from
	// its generation stamp).
	timers []Timer
	// sweepAt triggers the compaction sweep, at twice the live count so
	// its cost stays constant per Schedule.
	sweepAt int
}

// minSweep is the smallest sweep threshold, and the handle slice's first
// capacity: a virtual node keeps a handful of timers pending per group,
// and there are thousands of groups.
const minSweep = 16

// NewTimerGroup wraps clock.
func NewTimerGroup(clock Clock) *TimerGroup {
	return &TimerGroup{clock: clock, timers: make([]Timer, 0, minSweep), sweepAt: minSweep}
}

// Now implements Clock.
func (g *TimerGroup) Now() time.Duration { return g.clock.Now() }

// Schedule implements Clock: fn runs on the wrapped clock at Now()+d
// and the timer is tracked until it fires, is stopped, or StopAll runs.
// After StopAll the group refuses new work (returning the zero Timer,
// on which Stop is a no-op), so a periodic callback racing teardown
// cannot re-arm itself.
func (g *TimerGroup) Schedule(d time.Duration, fn func()) Timer {
	if g.stopped {
		return Timer{}
	}
	t := g.clock.Schedule(d, fn)
	g.timers = append(g.timers, t)
	if len(g.timers) >= g.sweepAt {
		g.sweep()
	}
	return t
}

// sweep drops the handles of timers that already fired or were stopped
// and sets the next threshold.
func (g *TimerGroup) sweep() {
	live := g.timers[:0]
	for _, t := range g.timers {
		if t.pending() {
			live = append(live, t)
		}
	}
	clear(g.timers[len(live):])
	g.timers = live
	g.sweepAt = max(minSweep, 2*len(live))
}

// Live returns the number of tracked timers still pending — zero after
// a complete teardown, which is exactly what the lifecycle audit
// asserts.
func (g *TimerGroup) Live() int {
	n := 0
	for _, t := range g.timers {
		if t.pending() {
			n++
		}
	}
	return n
}

// StopAll cancels every tracked pending timer and marks the group
// stopped. In-domain timers leave their heap immediately (Timer.Stop
// removes the event eagerly), so after StopAll none of the group's
// work remains in any domain heap. It returns how many timers were
// actually cancelled.
func (g *TimerGroup) StopAll() int {
	g.stopped = true
	n := 0
	for _, t := range g.timers {
		if t.Stop() {
			n++
		}
	}
	g.timers = nil
	return n
}

// Stopped reports whether StopAll has run.
func (g *TimerGroup) Stopped() bool { return g.stopped }
