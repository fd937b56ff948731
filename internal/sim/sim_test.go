package sim

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestLoopOrdering(t *testing.T) {
	l := NewLoop(1)
	var got []int
	l.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	l.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	l.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	l.RunAll()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if l.Now() != 30*time.Millisecond {
		t.Fatalf("Now = %v, want 30ms", l.Now())
	}
}

func TestLoopSameTimeFIFO(t *testing.T) {
	l := NewLoop(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		l.Schedule(time.Millisecond, func() { got = append(got, i) })
	}
	l.RunAll()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestLoopNestedScheduling(t *testing.T) {
	l := NewLoop(1)
	var fired []time.Duration
	l.Schedule(time.Second, func() {
		fired = append(fired, l.Now())
		l.Schedule(time.Second, func() {
			fired = append(fired, l.Now())
		})
	})
	l.RunAll()
	if len(fired) != 2 || fired[0] != time.Second || fired[1] != 2*time.Second {
		t.Fatalf("fired = %v", fired)
	}
}

func TestTimerStop(t *testing.T) {
	l := NewLoop(1)
	ran := false
	tm := l.Schedule(time.Second, func() { ran = true })
	if !tm.Stop() {
		t.Fatal("Stop returned false for pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	l.RunAll()
	if ran {
		t.Fatal("cancelled timer fired")
	}
}

func TestRunUntilHorizon(t *testing.T) {
	l := NewLoop(1)
	var count int
	var tick func()
	tick = func() {
		count++
		l.Schedule(time.Second, tick)
	}
	l.Schedule(time.Second, tick)
	l.Run(10 * time.Second)
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
	if l.Now() != 10*time.Second {
		t.Fatalf("Now = %v, want 10s", l.Now())
	}
	// Continuing runs the next batch.
	l.Run(15 * time.Second)
	if count != 15 {
		t.Fatalf("count = %d, want 15", count)
	}
}

func TestRunAdvancesToHorizonWhenIdle(t *testing.T) {
	l := NewLoop(1)
	l.Run(5 * time.Second)
	if l.Now() != 5*time.Second {
		t.Fatalf("Now = %v, want 5s", l.Now())
	}
}

// TestRunNeverRewindsClock: Run(until) with until behind the clock leaves
// the clock where it is, whether the loop has one domain and a future
// event, several domains, or nothing scheduled at all.
func TestRunNeverRewindsClock(t *testing.T) {
	oneDomain := NewLoop(1)
	oneDomain.Schedule(10*time.Second, func() {})
	multi := NewLoop(1)
	node := multi.Executor().NewDomain("n")
	node.Schedule(10*time.Second, func() {})
	for _, c := range []struct {
		name string
		l    *Loop
	}{{"one domain", oneDomain}, {"multi-domain", multi}, {"empty", NewLoop(1)}} {
		c.l.Run(5 * time.Second)
		c.l.Run(2 * time.Second)
		for _, d := range c.l.Executor().Domains() {
			if d.Now() != 5*time.Second {
				t.Errorf("%s: domain %s at %v after Run(5s), Run(2s), want 5s", c.name, d.label, d.Now())
			}
		}
	}
}

func TestScheduleNegativeDelay(t *testing.T) {
	l := NewLoop(1)
	l.Run(time.Second)
	ran := false
	l.Schedule(-time.Hour, func() { ran = true })
	l.Run(l.Now())
	if !ran {
		t.Fatal("negative-delay event did not run")
	}
	if l.Now() != time.Second {
		t.Fatalf("time went backwards: %v", l.Now())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.next() != b.next() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	for i := 0; i < 1000; i++ {
		if NewRNG(42).next() == c.next() {
			same++
		}
	}
	if same > 10 {
		t.Fatalf("different seeds look identical (%d collisions)", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	f := func(seed int64) bool {
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGIntnRange(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		m := int(n%100) + 1
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(m)
			if v < 0 || v >= m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGParetoBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			v := r.Pareto(1.2, 1, 100)
			if v < 1 || v > 100+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGFork(t *testing.T) {
	r := NewRNG(5)
	f1 := r.Fork()
	f2 := r.Fork()
	if f1.next() == f2.next() {
		t.Fatal("forked streams identical")
	}
}

func TestStatsBasics(t *testing.T) {
	var s Stats
	for _, v := range []float64{1, 2, 3, 4, 5} {
		s.Add(v)
	}
	if s.N() != 5 || s.Mean() != 3 || s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("basic stats wrong: %+v mean=%v", s, s.Mean())
	}
	if math.Abs(s.Stddev()-math.Sqrt(2)) > 1e-12 {
		t.Fatalf("stddev = %v", s.Stddev())
	}
	if math.Abs(s.Mdev()-1.2) > 1e-12 {
		t.Fatalf("mdev = %v", s.Mdev())
	}
}

func TestStatsEmpty(t *testing.T) {
	var s Stats
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.Stddev() != 0 || s.Mdev() != 0 {
		t.Fatal("empty stats should be all-zero")
	}
}

func TestStatsAddDuration(t *testing.T) {
	var s Stats
	s.AddDuration(1500 * time.Microsecond)
	if s.Mean() != 1.5 {
		t.Fatalf("AddDuration mean = %v, want 1.5 ms", s.Mean())
	}
}

func TestRealClock(t *testing.T) {
	c := NewRealClock()
	done := make(chan struct{})
	c.Schedule(time.Millisecond, func() { close(done) })
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("real timer never fired")
	}
	if c.Now() <= 0 {
		t.Fatal("RealClock.Now not advancing")
	}
	tm := c.Schedule(time.Hour, func() {})
	if !tm.Stop() {
		t.Fatal("could not stop real timer")
	}
}
