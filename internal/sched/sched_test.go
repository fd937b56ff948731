package sched

import (
	"math"
	"testing"
	"time"

	"vini/internal/sim"
	"vini/internal/telemetry"
)

// hogTask returns a config for an always-runnable CPU-bound task.
func hogTask(name string, share float64) TaskConfig {
	return TaskConfig{Name: name, Share: share,
		Work: func(budget time.Duration) (time.Duration, bool) { return budget, true }}
}

func TestSingleTaskGetsFullCPU(t *testing.T) {
	loop := sim.NewLoop(1)
	cpu := New(loop, Options{})
	task := cpu.NewTask(hogTask("solo", 0.1))
	task.Wake()
	loop.Run(time.Second)
	u := cpu.TaskUtilization(task)
	if u < 0.99 {
		t.Fatalf("solo task utilization = %.3f, want ~1 (work-conserving)", u)
	}
}

func TestFairShareBetweenEqualHogs(t *testing.T) {
	loop := sim.NewLoop(1)
	cpu := New(loop, Options{})
	a := cpu.NewTask(hogTask("a", 0.05))
	b := cpu.NewTask(hogTask("b", 0.05))
	a.Wake()
	b.Wake()
	loop.Run(2 * time.Second)
	ua, ub := cpu.TaskUtilization(a), cpu.TaskUtilization(b)
	if math.Abs(ua-ub) > 0.05 {
		t.Fatalf("unfair split: a=%.3f b=%.3f", ua, ub)
	}
	if ua+ub < 0.99 {
		t.Fatalf("CPU not fully used: %.3f", ua+ub)
	}
}

func TestReservationGuaranteesShare(t *testing.T) {
	loop := sim.NewLoop(1)
	// Short token cap so the guarantee reaches steady state within the
	// 2-second window.
	cpu := New(loop, Options{tokenCap: 30 * time.Millisecond})
	// One reserved task vs 8 hogs with tiny fair shares.
	reserved := cpu.NewTask(hogTask("reserved", 0.25))
	var hogs []*Task
	for i := 0; i < 8; i++ {
		h := cpu.NewTask(hogTask("hog", 0.02))
		h.Wake()
		hogs = append(hogs, h)
	}
	reserved.Wake()
	loop.Run(2 * time.Second)
	// Quantum-boundary waits cost a little; the guarantee is approximate
	// at this granularity (a real scheduler's is too).
	if u := cpu.TaskUtilization(reserved); u < 0.22 {
		t.Fatalf("reserved task got %.3f, want >= 0.22", u)
	}
}

func TestWorkConservingWithoutTokens(t *testing.T) {
	loop := sim.NewLoop(1)
	cpu := New(loop, Options{})
	// Zero-share task alone on the machine still runs (idle cycles).
	task := cpu.NewTask(hogTask("zero", 0))
	task.Wake()
	loop.Run(time.Second)
	if u := cpu.TaskUtilization(task); u < 0.99 {
		t.Fatalf("work conservation failed: %.3f", u)
	}
}

func TestRTPreemptsQuickly(t *testing.T) {
	loop := sim.NewLoop(1)
	opt := Options{Grain: 500 * time.Microsecond}
	cpu := New(loop, opt)
	for i := 0; i < 5; i++ {
		cpu.NewTask(hogTask("hog", 0.05)).Wake()
	}
	// An RT task woken periodically must be scheduled within one grain.
	var rt *Task
	rt = cpu.NewTask(TaskConfig{Name: "rt", RT: true, Share: 0.25,
		Work: func(budget time.Duration) (time.Duration, bool) {
			return 50 * time.Microsecond, false
		}})
	var wake telemetry.Histogram
	rt.Instrument(nil, &wake)
	var tick func()
	wakes := 0
	tick = func() {
		if wakes >= 100 {
			return
		}
		wakes++
		rt.Wake()
		loop.Schedule(7*time.Millisecond, tick)
	}
	loop.Schedule(time.Millisecond, tick)
	loop.Run(time.Second)
	if wake.Count() < 90 {
		t.Fatalf("rt ran %d times, want ~100", wake.Count())
	}
	// Bucket i holds waits below 2^i us, so a grain (500 us) lands in
	// bucket 9 or below.
	for i, n := range wake.Buckets() {
		if i > 9 && n != 0 {
			t.Fatalf("%d RT wakes waited >= %d us, want <= grain", n, 1<<(i-1))
		}
	}
}

func TestNonRTWaitsBehindHogs(t *testing.T) {
	loop := sim.NewLoop(1)
	cpu := New(loop, Options{tokenCap: 30 * time.Millisecond})
	for i := 0; i < 5; i++ {
		cpu.NewTask(hogTask("hog", 0.05)).Wake()
	}
	// A no-token interactive-style task sees multi-millisecond waits.
	lat := cpu.NewTask(TaskConfig{Name: "lat", Share: 0,
		Work: func(budget time.Duration) (time.Duration, bool) {
			return 50 * time.Microsecond, false
		}})
	var wake telemetry.Histogram
	lat.Instrument(nil, &wake)
	var tick func()
	wakes := 0
	tick = func() {
		if wakes >= 50 {
			return
		}
		wakes++
		lat.Wake()
		loop.Schedule(17*time.Millisecond, tick)
	}
	loop.Schedule(time.Millisecond, tick)
	loop.Run(2 * time.Second)
	if wake.Count() < 40 {
		t.Fatalf("task ran %d times", wake.Count())
	}
	if mean := time.Duration(wake.Sum() / wake.Count()); mean < time.Millisecond {
		t.Fatalf("mean wait = %v; expected contention delays", mean)
	}
}

func TestTokensBoundRTTask(t *testing.T) {
	loop := sim.NewLoop(1)
	cpu := New(loop, Options{})
	// Paper: "a real-time process that runs amok cannot lock the machine".
	amok := cpu.NewTask(TaskConfig{Name: "amok", RT: true, Share: 0.25,
		Work: func(budget time.Duration) (time.Duration, bool) { return budget, true }})
	fair := cpu.NewTask(hogTask("fair", 0.25))
	amok.Wake()
	fair.Wake()
	loop.Run(2 * time.Second)
	ua, uf := cpu.TaskUtilization(amok), cpu.TaskUtilization(fair)
	if uf < 0.3 {
		t.Fatalf("runaway RT task starved fair task: rt=%.3f fair=%.3f", ua, uf)
	}
}

func TestSleepingTaskConsumesNothing(t *testing.T) {
	loop := sim.NewLoop(1)
	cpu := New(loop, Options{})
	task := cpu.NewTask(TaskConfig{Name: "sleeper", Share: 0.5,
		Work: func(budget time.Duration) (time.Duration, bool) { return 0, false }})
	task.Wake() // spurious wake, no work
	loop.Run(100 * time.Millisecond)
	if task.Used() != 0 {
		t.Fatalf("sleeper consumed %v", task.Used())
	}
	if cpu.utilization() != 0 {
		t.Fatalf("cpu busy %.3f with no work", cpu.utilization())
	}
}

func TestZeroTrueWorkFuncDoesNotSpin(t *testing.T) {
	loop := sim.NewLoop(1)
	cpu := New(loop, Options{})
	task := cpu.NewTask(TaskConfig{Name: "buggy", Share: 0.5,
		Work: func(budget time.Duration) (time.Duration, bool) { return 0, true }})
	task.Wake()
	// Must terminate.
	loop.Run(10 * time.Millisecond)
}

func TestResetAccounting(t *testing.T) {
	loop := sim.NewLoop(1)
	cpu := New(loop, Options{})
	task := cpu.NewTask(hogTask("x", 0.1))
	task.Wake()
	loop.Run(time.Second)
	cpu.ResetAccounting()
	if task.Used() != 0 || cpu.utilization() != 0 {
		t.Fatal("accounting not reset")
	}
	loop.Run(2 * time.Second)
	if u := cpu.TaskUtilization(task); u < 0.99 {
		t.Fatalf("post-reset utilization = %.3f", u)
	}
}

func TestHogDutyCycle(t *testing.T) {
	loop := sim.NewLoop(42)
	cpu := New(loop, Options{})
	h := StartHog(cpu, HogConfig{
		Name: "bg", Share: 0.05,
		MeanBusy: 20 * time.Millisecond, MeanIdle: 60 * time.Millisecond,
		RNG: loop.RNG().Fork(),
	})
	loop.Run(20 * time.Second)
	u := cpu.TaskUtilization(h.task)
	// Duty cycle 20/(20+60) = 0.25 and the machine is otherwise idle, so
	// utilization should be near 25%.
	if u < 0.15 || u > 0.40 {
		t.Fatalf("hog utilization = %.3f, want ~0.25", u)
	}
}

func TestManyHogsShareFairly(t *testing.T) {
	loop := sim.NewLoop(7)
	cpu := New(loop, Options{})
	var tasks []*Task
	for i := 0; i < 4; i++ {
		task := cpu.NewTask(hogTask("h", 0.05))
		task.Wake()
		tasks = append(tasks, task)
	}
	loop.Run(4 * time.Second)
	for _, task := range tasks {
		u := cpu.TaskUtilization(task)
		if u < 0.20 || u > 0.30 {
			t.Fatalf("4-way split off: %.3f", u)
		}
	}
}

// TestStrictNonWorkConserving verifies the §6.2 repeatability scheduler:
// a strict task on an otherwise idle machine receives its share and no
// more, while an ordinary task would soak up the whole CPU.
func TestStrictNonWorkConserving(t *testing.T) {
	loop := sim.NewLoop(1)
	cpu := New(loop, Options{tokenCap: 20 * time.Millisecond})
	strict := cpu.NewTask(TaskConfig{Name: "strict", Share: 0.25, Strict: true,
		Work: func(b time.Duration) (time.Duration, bool) { return b, true }})
	strict.Wake()
	loop.Run(5 * time.Second)
	u := cpu.TaskUtilization(strict)
	if u < 0.22 || u > 0.28 {
		t.Fatalf("strict task got %.3f of an idle CPU, want ~0.25 exactly", u)
	}
	// And it keeps making progress (no starvation deadlock).
	used := strict.Used()
	loop.Run(10 * time.Second)
	if strict.Used() <= used {
		t.Fatal("strict task starved after bucket exhaustion")
	}
}

// TestStrictUnaffectedByContention: the same allocation with and without
// competing load — the "repeatable experiments" property.
func TestStrictUnaffectedByContention(t *testing.T) {
	measure := func(withHogs bool) float64 {
		loop := sim.NewLoop(1)
		cpu := New(loop, Options{tokenCap: 20 * time.Millisecond})
		strict := cpu.NewTask(TaskConfig{Name: "strict", Share: 0.2, Strict: true,
			Work: func(b time.Duration) (time.Duration, bool) { return b, true }})
		strict.Wake()
		if withHogs {
			for i := 0; i < 3; i++ {
				cpu.NewTask(hogTask("hog", 0.05)).Wake()
			}
		}
		loop.Run(5 * time.Second)
		return cpu.TaskUtilization(strict)
	}
	idle := measure(false)
	loaded := measure(true)
	diff := idle - loaded
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.04 {
		t.Fatalf("strict allocation varies with load: %.3f vs %.3f", idle, loaded)
	}
}

func TestSuspendResume(t *testing.T) {
	loop := sim.NewLoop(1)
	cpu := New(loop, Options{})
	a := cpu.NewTask(hogTask("a", 0.05))
	b := cpu.NewTask(hogTask("b", 0.05))
	a.Wake()
	b.Wake()
	loop.Run(time.Second)
	a.SetSuspended(true)
	if !a.suspended {
		t.Fatal("SetSuspended(true) did not stick")
	}
	cpu.ResetAccounting()
	loop.Run(2 * time.Second)
	if u := cpu.TaskUtilization(a); u > 0.01 {
		t.Fatalf("suspended task still ran: %.3f", u)
	}
	if u := cpu.TaskUtilization(b); u < 0.99 {
		t.Fatalf("remaining task did not absorb the CPU: %.3f", u)
	}
	// Waking a suspended task must not run it either.
	a.Wake()
	cpu.ResetAccounting()
	loop.Run(4 * time.Second)
	if u := cpu.TaskUtilization(a); u > 0.01 {
		t.Fatalf("suspended task ran after Wake: %.3f", u)
	}
	a.SetSuspended(false)
	cpu.ResetAccounting()
	loop.Run(6 * time.Second)
	ua, ub := cpu.TaskUtilization(a), cpu.TaskUtilization(b)
	if math.Abs(ua-ub) > 0.05 {
		t.Fatalf("resume did not restore fair split: a=%.3f b=%.3f", ua, ub)
	}
}

func TestSuspendedStrictTaskDoesNotSpinRefillKicks(t *testing.T) {
	loop := sim.NewLoop(1)
	cpu := New(loop, Options{})
	s := cpu.NewTask(TaskConfig{Name: "strict", Share: 0.25, Strict: true,
		Work: func(budget time.Duration) (time.Duration, bool) { return budget, true }})
	s.Wake()
	loop.Run(time.Second)
	s.SetSuspended(true)
	s.Wake() // re-queues, but must not arm refill kicks forever
	loop.Run(2 * time.Second)
	// With only a suspended strict task queued, the loop must drain
	// instead of self-perpetuating refill kicks.
	if n := loop.Pending(); n != 0 {
		t.Fatalf("refill kicks pending for suspended strict task: %d", n)
	}
}

func TestRemoveTask(t *testing.T) {
	loop := sim.NewLoop(1)
	cpu := New(loop, Options{})
	a := cpu.NewTask(hogTask("a", 0.05))
	b := cpu.NewTask(hogTask("b", 0.05))
	a.Wake()
	b.Wake()
	loop.Run(time.Second)
	cpu.RemoveTask(a)
	before := a.Used() // ResetAccounting no longer covers a: it is deregistered
	cpu.ResetAccounting()
	loop.Run(2 * time.Second)
	if d := a.Used() - before; d > 0 {
		t.Fatalf("removed task still ran: %v", d)
	}
	if u := cpu.TaskUtilization(b); u < 0.99 {
		t.Fatalf("survivor did not get the CPU: %.3f", u)
	}
	// A stale Wake reference must be inert.
	a.Wake()
	if a.queued {
		t.Fatal("Wake resurrected a removed task")
	}
	cpu.RemoveTask(a) // idempotent
	if len(cpu.tasks) != 1 {
		t.Fatalf("task list has %d entries, want 1", len(cpu.tasks))
	}
}

func TestRemoveCurrentTaskMidQuantum(t *testing.T) {
	loop := sim.NewLoop(1)
	cpu := New(loop, Options{})
	a := cpu.NewTask(hogTask("a", 0.05))
	b := cpu.NewTask(hogTask("b", 0.05))
	a.Wake()
	b.Wake()
	// Stop while a grain is in flight: the grain timer is pending and
	// current is (probably) set.
	loop.Run(3 * time.Millisecond)
	cpu.RemoveTask(cpu.current)
	loop.Run(time.Second)
	// Whichever task survived owns the machine; no panic, no stall.
	total := cpu.TaskUtilization(a) + cpu.TaskUtilization(b)
	if total < 0.9 {
		t.Fatalf("CPU stalled after removing current task: %.3f", total)
	}
}
