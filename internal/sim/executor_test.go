package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// workload drives a small ring of domains exchanging cross-domain
// messages plus local periodic work, and returns the executor's
// schedule digest and each domain's fire trace. The trace is recorded
// per domain (each domain appends only to its own slice; rounds are
// ordered by the executor's channels), so it is comparable across
// worker counts even though global interleaving differs.
func workload(t *testing.T, workers int) (uint64, [][]string) {
	t.Helper()
	const n = 4
	const look = 2 * time.Millisecond
	x := NewExecutor(42, workers)
	doms := make([]*Domain, n)
	traces := make([][]string, n)
	for i := range doms {
		doms[i] = x.NewDomain(fmt.Sprintf("n%d", i))
	}
	for i := range doms {
		doms[(i+1)%n].ObserveInboundLink(doms[i], look)
	}
	for i := range doms {
		i := i
		d := doms[i]
		next := doms[(i+1)%n]
		var tick func()
		count := 0
		tick = func() {
			count++
			if count > 50 {
				return
			}
			// Local RNG draw: per-domain streams must replay identically.
			jitter := time.Duration(d.RNG().Intn(100)) * time.Microsecond
			from := d.Now()
			d.Send(next, look+jitter, handlerFunc(func(any) {
				at := next.Now()
				if at < from+look {
					t.Errorf("causality: message sent at %v (+%v) ran at %v", from, look, at)
				}
				traces[(i+1)%n] = append(traces[(i+1)%n],
					fmt.Sprintf("recv@%v from n%d", at, i))
			}), nil)
			d.Schedule(time.Millisecond, tick)
		}
		d.Schedule(0, tick)
	}
	x.Run(200 * time.Millisecond)
	return x.ScheduleDigest(), traces
}

// TestExecutorWorkerParity: the same workload must produce byte-identical
// schedule digests and per-domain traces for 1, 4 and 16 workers — the
// last more workers than the workload has domains.
func TestExecutorWorkerParity(t *testing.T) {
	d1, t1 := workload(t, 1)
	if d1 == fnvOffset {
		t.Fatal("digest never folded any events")
	}
	for _, workers := range []int{4, 16} {
		dn, tn := workload(t, workers)
		if d1 != dn {
			t.Fatalf("schedule digest diverged: 1 worker %016x, %d workers %016x", d1, workers, dn)
		}
		for i := range t1 {
			if len(t1[i]) != len(tn[i]) {
				t.Fatalf("%d workers: domain %d trace length: %d vs %d", workers, i, len(t1[i]), len(tn[i]))
			}
			for j := range t1[i] {
				if t1[i][j] != tn[i][j] {
					t.Fatalf("%d workers: domain %d trace[%d]: %q vs %q", workers, i, j, t1[i][j], tn[i][j])
				}
			}
		}
	}
}

// TestOneWorkerStartsNoGoroutine: with one worker the goroutine that
// calls Run executes every node window itself. The count is read from
// inside a node event; goroutines earlier tests left behind may exit in
// the meantime, so only a rise is a failure.
func TestOneWorkerStartsNoGoroutine(t *testing.T) {
	x := NewExecutor(1, 1)
	a := x.NewDomain("a")
	b := x.NewDomain("b")
	a.ObserveInboundLink(b, time.Millisecond)
	b.ObserveInboundLink(a, time.Millisecond)
	during := -1
	a.Schedule(time.Millisecond, func() { during = runtime.NumGoroutine() })
	before := runtime.NumGoroutine()
	x.Run(10 * time.Millisecond)
	if during < 0 {
		t.Fatal("the node event never ran")
	}
	if during > before {
		t.Fatalf("%d goroutines inside a one-worker Run, %d before it", during, before)
	}
}

// TestExecutorRunAdvancesClocks: after Run(until), every domain clock
// sits at until, the Loop.Run contract.
func TestExecutorRunAdvancesClocks(t *testing.T) {
	x := NewExecutor(1, 2)
	a := x.NewDomain("a")
	b := x.NewDomain("b")
	a.ObserveInboundLink(b, time.Millisecond)
	b.ObserveInboundLink(a, time.Millisecond)
	a.Schedule(3*time.Millisecond, func() {})
	x.Run(10 * time.Millisecond)
	for _, d := range x.Domains() {
		if d.Now() != 10*time.Millisecond {
			t.Fatalf("domain %s clock %v, want 10ms", d.label, d.Now())
		}
	}
}

// TestControlBarrierOrder: a control event and a node event at the same
// timestamp run control-first (merge key puts domain 0 ahead), and the
// control event observes node clocks advanced to its own time.
func TestControlBarrierOrder(t *testing.T) {
	x := NewExecutor(1, 2)
	a := x.NewDomain("a")
	b := x.NewDomain("b")
	a.ObserveInboundLink(b, time.Millisecond)
	b.ObserveInboundLink(a, time.Millisecond)
	loop := x.Loop()

	var order []string
	a.Schedule(10*time.Millisecond, func() { order = append(order, "node") })
	loop.Schedule(10*time.Millisecond, func() {
		order = append(order, "control")
		if b.Now() != 10*time.Millisecond {
			t.Errorf("control event at 10ms saw node clock %v", b.Now())
		}
		// Control events may schedule onto node domains directly; the
		// barrier guarantees no worker is running.
		a.Schedule(time.Millisecond, func() { order = append(order, "follow-up") })
	})
	x.Run(20 * time.Millisecond)
	want := []string{"control", "node", "follow-up"}
	if len(order) != len(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

// TestZeroLookaheadFallback: a zero-delay cross-domain edge disables
// horizons; the executor must fall back to sequential global-min
// execution and still complete the exchange deterministically.
func TestZeroLookaheadFallback(t *testing.T) {
	run := func(workers int) (int, uint64) {
		x := NewExecutor(3, workers)
		a := x.NewDomain("a")
		b := x.NewDomain("b")
		a.ObserveInboundLink(b, 0)
		b.ObserveInboundLink(a, 0)
		count := 0
		var ping, pong handlerFunc
		ping = func(any) {
			if count >= 100 {
				return
			}
			count++
			a.Send(b, 0, pong, nil)
		}
		pong = func(any) { b.Send(a, 0, ping, nil) }
		a.Schedule(0, func() { ping(nil) })
		x.Run(time.Millisecond)
		if x.Fallbacks() == 0 {
			t.Error("zero-lookahead run never used the sequential fallback")
		}
		return count, x.ScheduleDigest()
	}
	c1, d1 := run(1)
	c4, d4 := run(4)
	if c1 != 100 || c4 != 100 {
		t.Fatalf("ping-pong count: %d and %d, want 100", c1, c4)
	}
	if d1 != d4 {
		t.Fatalf("fallback digests diverged: %016x vs %016x", d1, d4)
	}
}

// TestSingleDomainDigestStable: the schedule digest is also maintained
// on a bare loop (no node domains), and replays identically.
func TestSingleDomainDigestStable(t *testing.T) {
	run := func() uint64 {
		l := NewLoop(99)
		var tick func()
		n := 0
		tick = func() {
			if n++; n < 20 {
				l.Schedule(time.Duration(l.RNG().Intn(1000))*time.Microsecond, tick)
			}
		}
		l.Schedule(0, tick)
		l.RunAll()
		return l.Executor().ScheduleDigest()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("single-domain digest not reproducible: %016x vs %016x", a, b)
	}
}

// TestDomainStatsLedger: fired plus cancelled events equals recycles
// per domain — every materialized event is recycled exactly once.
func TestDomainStatsLedger(t *testing.T) {
	_, _ = workload(t, 4)
	x := NewExecutor(42, 4)
	a := x.NewDomain("a")
	b := x.NewDomain("b")
	a.ObserveInboundLink(b, time.Millisecond)
	b.ObserveInboundLink(a, time.Millisecond)
	for i := 0; i < 10; i++ {
		a.Send(b, time.Duration(i+1)*time.Millisecond, handlerFunc(func(any) {}), nil)
		tm := a.Schedule(time.Duration(i)*time.Millisecond, func() {})
		if i%2 == 0 {
			tm.Stop()
		}
	}
	x.Run(50 * time.Millisecond)
	for _, d := range x.Domains() {
		s := d.Stats()
		if s.Recycled < s.Fired {
			t.Fatalf("domain %s: recycled %d < fired %d", s.Label, s.Recycled, s.Fired)
		}
		if s.Fired+s.Cancelled < s.Recycled {
			t.Fatalf("domain %s: fired %d + cancelled %d < recycled %d",
				s.Label, s.Fired, s.Cancelled, s.Recycled)
		}
	}
	bs := b.Stats()
	if bs.Fired != 10 {
		t.Fatalf("b fired %d cross-domain events, want 10", bs.Fired)
	}
	as := a.Stats()
	if as.Sent != 10 || as.Fired != 5 || as.Cancelled != 5 {
		t.Fatalf("a stats: %+v", as)
	}
}
