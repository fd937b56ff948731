package sim

import (
	"testing"
	"time"
)

// TestTickWheelCoalesces checks that many timers landing in the same
// quantum share one underlying heap event and fire in Schedule order at
// the slot boundary.
func TestTickWheelCoalesces(t *testing.T) {
	l := NewLoop(1)
	w := NewTickWheel(l.Domain, 100*time.Millisecond)
	var order []int
	var at []time.Duration
	for i := 0; i < 10; i++ {
		i := i
		// Deadlines 1..10 ms all round up to the 100 ms boundary.
		w.Schedule(time.Duration(i+1)*time.Millisecond, func() {
			order = append(order, i)
			at = append(at, l.Now())
		})
	}
	if got := l.Pending(); got != 1 {
		t.Fatalf("10 wheel timers should share 1 heap event, have %d", got)
	}
	l.Run(time.Second)
	if len(order) != 10 {
		t.Fatalf("fired %d of 10", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("fire order %v, want schedule order", order)
		}
		if at[i] != 100*time.Millisecond {
			t.Fatalf("entry %d fired at %v, want 100ms boundary", i, at[i])
		}
	}
	if sch, fired := w.scheduled, w.fired; sch != 10 || fired != 1 {
		t.Fatalf("stats = (%d, %d), want (10, 1)", sch, fired)
	}
}

// TestTickWheelStop checks cancellation: a stopped entry never fires,
// Pending tracks it, and stopping twice reports false.
func TestTickWheelStop(t *testing.T) {
	l := NewLoop(1)
	w := NewTickWheel(l.Domain, 50*time.Millisecond)
	ran := 0
	tm := w.Schedule(10*time.Millisecond, func() { ran++ })
	keep := w.Schedule(10*time.Millisecond, func() { ran += 10 })
	if livePending(w) != 2 {
		t.Fatalf("Pending = %d, want 2", livePending(w))
	}
	if !tm.Stop() {
		t.Fatal("first Stop should report cancellation")
	}
	if tm.Stop() {
		t.Fatal("second Stop should be a no-op")
	}
	if livePending(w) != 1 {
		t.Fatalf("Pending after stop = %d, want 1", livePending(w))
	}
	if !keep.pending() {
		t.Fatal("unstopped wheel timer should report Pending")
	}
	l.Run(time.Second)
	if ran != 10 {
		t.Fatalf("ran = %d, want 10 (stopped entry must not fire)", ran)
	}
	if keep.pending() {
		t.Fatal("fired wheel timer should not report Pending")
	}
}

// TestTickWheelPeriodicRearm checks that a callback rescheduling itself
// lands in a future slot (the wheel behaves like a Clock for periodic
// protocol ticks) and that intervals never shrink below the request.
func TestTickWheelPeriodicRearm(t *testing.T) {
	l := NewLoop(1)
	w := NewTickWheel(l.Domain, 100*time.Millisecond)
	var fires []time.Duration
	var tick func()
	tick = func() {
		fires = append(fires, l.Now())
		if len(fires) < 5 {
			w.Schedule(250*time.Millisecond, tick)
		}
	}
	w.Schedule(250*time.Millisecond, tick)
	l.Run(10 * time.Second)
	if len(fires) != 5 {
		t.Fatalf("fired %d times, want 5", len(fires))
	}
	for i := 1; i < len(fires); i++ {
		gap := fires[i] - fires[i-1]
		if gap < 250*time.Millisecond {
			t.Fatalf("interval %d was %v, shorter than requested 250ms", i, gap)
		}
		if gap > 350*time.Millisecond {
			t.Fatalf("interval %d was %v, beyond one quantum of slack", i, gap)
		}
	}
}

// TestTickWheelScheduleFireZeroAlloc: a periodic tick re-armed from its
// own callback — every hello — recycles its entry and its slot.
func TestTickWheelScheduleFireZeroAlloc(t *testing.T) {
	l := NewLoop(1)
	w := NewTickWheel(l, 100*time.Millisecond)
	fired := 0
	var tick func()
	tick = func() {
		fired++
		w.Schedule(time.Second, tick)
	}
	w.Schedule(time.Second, tick)
	step := func() { l.Run(l.Now() + time.Second) }
	for i := 0; i < 300; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Errorf("TickWheel.Schedule + fire: %.0f allocs, want 0", allocs)
	}
	if fired != 501 || livePending(w) != 1 {
		t.Fatalf("fired %d of 501, %d pending", fired, livePending(w))
	}
}

// TestTickWheelStaleHandleIsInert: entries recycle, so the handle of a
// tick that already fired must not be able to stop, or report as
// pending, the unrelated tick that now occupies its entry.
func TestTickWheelStaleHandleIsInert(t *testing.T) {
	l := NewLoop(1)
	w := NewTickWheel(l, 100*time.Millisecond)
	stale := w.Schedule(10*time.Millisecond, func() {})
	l.Run(200 * time.Millisecond)
	ran := false
	fresh := w.Schedule(10*time.Millisecond, func() { ran = true })
	if fresh.wentry != stale.wentry {
		t.Fatal("the fired entry was not reused; the test no longer covers recycling")
	}
	if stale.pending() || stale.Stop() {
		t.Fatal("stale handle acted on a recycled entry")
	}
	if !fresh.pending() {
		t.Fatal("fresh tick not pending")
	}
	l.Run(400 * time.Millisecond)
	if !ran {
		t.Fatal("stale Stop cancelled the tick that reused the entry")
	}
	// A stopped entry is recycled when its slot fires; its handle is
	// stale from then on as well.
	keep := w.Schedule(10*time.Millisecond, func() {})
	stopped := w.Schedule(10*time.Millisecond, func() { t.Error("stopped tick ran") })
	stopped.Stop()
	l.Run(600 * time.Millisecond)
	again := w.Schedule(10*time.Millisecond, func() {})
	again2 := w.Schedule(10*time.Millisecond, func() {})
	if stopped.Stop() || stopped.pending() || keep.pending() || !again.pending() || !again2.pending() {
		t.Fatal("handles of recycled entries are not inert")
	}
	if livePending(w) != 2 {
		t.Fatalf("Pending = %d, want 2", livePending(w))
	}
}

// livePending counts w's live (unfired, unstopped) entries.
func livePending(w *TickWheel) int {
	n := 0
	for _, s := range w.slots {
		for _, e := range s.entries {
			if !e.stopped {
				n++
			}
		}
	}
	return n
}
