package sim

import (
	"testing"
	"time"
)

func TestTimerPending(t *testing.T) {
	l := NewLoop(1)
	fired := false
	tm := l.Schedule(10*time.Millisecond, func() { fired = true })
	if !tm.pending() {
		t.Fatal("fresh timer should be pending")
	}
	l.Run(20 * time.Millisecond)
	if !fired {
		t.Fatal("timer did not fire")
	}
	if tm.pending() {
		t.Fatal("fired timer still pending")
	}
	tm2 := l.Schedule(10*time.Millisecond, func() {})
	tm2.Stop()
	if tm2.pending() {
		t.Fatal("stopped timer still pending")
	}
	var zero Timer
	if zero.pending() {
		t.Fatal("zero timer pending")
	}
}

func TestTimerGroupStopAll(t *testing.T) {
	l := NewLoop(1)
	g := NewTimerGroup(l)
	fired := 0
	for i := 0; i < 5; i++ {
		g.Schedule(time.Duration(i+1)*time.Second, func() { fired++ })
	}
	if got := g.Live(); got != 5 {
		t.Fatalf("Live = %d, want 5", got)
	}
	l.Run(1500 * time.Millisecond) // first timer fires, self-deletes
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if got := g.Live(); got != 4 {
		t.Fatalf("Live after one fire = %d, want 4", got)
	}
	if n := g.StopAll(); n != 4 {
		t.Fatalf("StopAll cancelled %d, want 4", n)
	}
	if l.Pending() != 0 {
		t.Fatalf("heap not empty after StopAll: %d pending", l.Pending())
	}
	l.Run(10 * time.Second)
	if fired != 1 {
		t.Fatalf("cancelled timers fired: %d", fired)
	}
	// A stopped group refuses new work.
	tm := g.Schedule(time.Second, func() { fired++ })
	if !tm.IsZero() {
		t.Fatal("stopped group returned a live timer")
	}
	l.Run(20 * time.Second)
	if fired != 1 {
		t.Fatal("schedule-after-stop fired")
	}
}

// TestTimerGroupPeriodicReschedule models the OSPF hello pattern: a
// callback that re-arms itself through the group. StopAll must break
// the chain even mid-flight.
func TestTimerGroupPeriodicReschedule(t *testing.T) {
	l := NewLoop(1)
	g := NewTimerGroup(l)
	ticks := 0
	var tick func()
	tick = func() {
		ticks++
		g.Schedule(time.Second, tick)
	}
	g.Schedule(time.Second, tick)
	l.Run(3500 * time.Millisecond)
	if ticks != 3 {
		t.Fatalf("ticks = %d, want 3", ticks)
	}
	g.StopAll()
	if l.Pending() != 0 {
		t.Fatalf("pending after StopAll: %d", l.Pending())
	}
	l.Run(10 * time.Second)
	if ticks != 3 {
		t.Fatalf("periodic survived StopAll: %d ticks", ticks)
	}
}

// TestTimerGroupSweep checks that entries stopped through their own
// handles do not accumulate.
func TestTimerGroupSweep(t *testing.T) {
	l := NewLoop(1)
	g := NewTimerGroup(l)
	for i := 0; i < 1000; i++ {
		tm := g.Schedule(time.Hour, func() {})
		tm.Stop() // stale entry; the group must compact these
	}
	if len(g.timers) >= 1000 {
		t.Fatalf("group retained %d stale entries", len(g.timers))
	}
	if g.Live() != 0 {
		t.Fatalf("Live = %d, want 0", g.Live())
	}
}

// TestTimerGroupScheduleFireZeroAlloc: a tracked timer costs what an
// untracked one does — nothing, once the event free list and the
// group's handle slice are warm.
func TestTimerGroupScheduleFireZeroAlloc(t *testing.T) {
	l := NewLoop(1)
	g := NewTimerGroup(l)
	fired := 0
	fn := func() { fired++ }
	step := func() {
		g.Schedule(time.Millisecond, fn)
		g.Schedule(time.Hour, fn).Stop() // the dead-timer pattern: armed, then cancelled by its holder
		l.Run(l.Now() + time.Millisecond)
	}
	for i := 0; i < 300; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Errorf("TimerGroup.Schedule + fire: %.0f allocs, want 0", allocs)
	}
	if fired != 501 || g.Live() != 0 {
		t.Fatalf("fired %d of 501, %d live", fired, g.Live())
	}
}

// TestTimerGroupsShareAWheel: virtual nodes of different slices share
// their physical node's tick wheel, each through its own group. A group
// keeps the handles of fired ticks until its next sweep, and the wheel
// recycles entries, so tearing one slice down must not cancel a tick of
// another that now occupies a recycled entry.
func TestTimerGroupsShareAWheel(t *testing.T) {
	l := NewLoop(1)
	w := NewTickWheel(l, 100*time.Millisecond)
	a, b := NewTimerGroup(w), NewTimerGroup(w)
	a.Schedule(10*time.Millisecond, func() {})
	l.Run(200 * time.Millisecond) // a's tick fired; its entry is on the wheel's free list
	ran := false
	b.Schedule(10*time.Millisecond, func() { ran = true })
	if a.Live() != 0 || b.Live() != 1 {
		t.Fatalf("Live = %d, %d, want 0, 1", a.Live(), b.Live())
	}
	if n := a.StopAll(); n != 0 {
		t.Fatalf("StopAll cancelled %d timers through stale handles", n)
	}
	l.Run(400 * time.Millisecond)
	if !ran {
		t.Fatal("tearing down one group cancelled another group's tick")
	}
}
