// Package sched models the PlanetLab node CPU scheduler that PL-VINI
// extends (Section 4.1.2 of the paper): VServer-style per-slice token
// buckets give each slice a fair share (or an explicit CPU reservation)
// of the processor, the scheduler is work-conserving (idle cycles go to
// whoever is runnable), and slices boosted to Linux real-time priority
// preempt any non-real-time task as soon as they wake.
//
// The model runs on the discrete-event loop from internal/sim. Tasks are
// callback-driven: when the scheduler selects a task it grants CPU in
// small "grains" (the preemption granularity); the task's WorkFunc does
// its processing and reports how much CPU it actually consumed. The
// emergent behaviours — scheduling latency spiking when many slices
// contend, a 25% reservation restoring throughput, real-time priority
// removing wake-up latency — are exactly the effects Tables 4-6 and
// Figure 6 of the paper measure.
package sched

import (
	"fmt"
	"time"

	"vini/internal/sim"
	"vini/internal/telemetry"
)

// WorkFunc performs up to budget of CPU work. It returns the CPU time
// actually consumed (0 <= used <= budget) and whether the task still has
// work pending (stays runnable). A WorkFunc that returns (0, true) is
// treated as asleep to keep the loop live.
type WorkFunc func(budget time.Duration) (used time.Duration, more bool)

// quantum is the timeslice a selected task may hold the CPU before
// rotating to the next runnable task.
const quantum = 10 * time.Millisecond

// Options configures a CPU.
type Options struct {
	// Grain is the preemption granularity: a higher-priority wakeup waits
	// at most this long. Default 500µs.
	Grain time.Duration

	// tokenCap is the per-task token bucket capacity: the horizon over
	// which shares and reservations are enforced. Its 300ms default lets
	// a reserved slice burst well beyond its rate in the short term (what
	// lets the paper's PL-VINI forwarder reach 40% CPU on a 25%
	// reservation when the machine has idle capacity) while still
	// throttling a runaway real-time process. Only this package's tests
	// set it.
	tokenCap time.Duration
}

func (o *Options) setDefaults() {
	if o.Grain <= 0 {
		o.Grain = 500 * time.Microsecond
	}
	if o.tokenCap <= 0 {
		o.tokenCap = 300 * time.Millisecond
	}
}

// TaskConfig describes one schedulable entity (a slice's process).
type TaskConfig struct {
	Name string
	// RT marks the task SCHED_RR real-time: it preempts any non-RT task
	// at the next grain boundary. Per the paper, RT tasks remain subject
	// to their share/reservation, so a runaway RT task cannot lock the
	// machine.
	RT bool
	// Share is the token fill rate as a fraction of one CPU: the
	// PlanetLab fair share for ordinary slices, or the value of a CPU
	// reservation (e.g. 0.25). Zero means the task only ever runs on
	// work-conserved idle cycles.
	Share float64
	// Strict makes the allocation non-work-conserving: the task runs
	// only against its tokens, receiving "neither less nor more" CPU
	// than its share — the repeatability scheduler of the paper's
	// Section 6.2.
	Strict bool
	// Work is invoked with a CPU budget when the task is scheduled.
	Work WorkFunc
}

// Task is a schedulable entity registered with a CPU.
type Task struct {
	cpu *CPU
	cfg TaskConfig
	id  int
	// runnable means the task has (or believes it has) pending work.
	runnable bool
	queued   bool
	// suspended parks the task: it keeps its registration and queue
	// position but is never selected until resumed (slice pause).
	suspended bool
	// removed marks a task deregistered via RemoveTask; Wake becomes
	// inert so a stale reference cannot resurrect it.
	removed bool
	// tokens is the CPU-time bucket; lazily refilled.
	tokens     time.Duration
	lastRefill time.Duration
	// quantumLeft is the remaining timeslice of the current selection.
	quantumLeft time.Duration
	// used accumulates total CPU consumed, for CPU% reporting.
	used time.Duration
	// wakeAt marks when the task last became runnable after sleeping,
	// and waiting whether that wake's latency is still unrecorded.
	wakeAt  time.Duration
	waiting bool
	// Telemetry mirrors (nil-safe): cumulative CPU nanoseconds consumed
	// and the wake-to-dispatch latency distribution — the quantity
	// whose tail causes the paper's Figure 6(a) losses.
	mUsed *telemetry.Counter
	mWake *telemetry.Histogram
}

// Instrument attaches telemetry handles to the task: a cumulative
// CPU-time counter (nanoseconds; unlike Used it survives
// ResetAccounting, so callers measure windows by deltas) and a wake
// latency histogram. Driver-time only.
func (t *Task) Instrument(usedNS *telemetry.Counter, wake *telemetry.Histogram) {
	t.mUsed, t.mWake = usedNS, wake
}

// Used returns total CPU time consumed.
func (t *Task) Used() time.Duration { return t.used }

// SetSuspended parks or resumes the task. A suspended task is never
// selected (its class is ineligible) and never preempts; if it is
// mid-quantum the current grain completes and the rotation parks it.
// Resuming a runnable task re-queues it and kicks the scheduler.
func (t *Task) SetSuspended(v bool) {
	if t.suspended == v || t.removed {
		return
	}
	t.suspended = v
	if v {
		return
	}
	c := t.cpu
	if t.runnable && !t.queued && c.current != t {
		t.queued = true
		c.queue = append(c.queue, t)
	}
	c.kick()
}

// CPU is one simulated processor.
type CPU struct {
	clock   sim.Clock
	opt     Options
	tasks   []*Task
	queue   []*Task // FIFO arrival order of runnable, unselected tasks
	current *Task
	// busy accounts total non-idle time for utilization reporting.
	busy    time.Duration
	started time.Duration
	running bool
	nextID  int
	// refillKick guards the pending wake-up that re-runs the scheduler
	// when a strict (non-work-conserving) task's bucket refills.
	refillKick bool
	// mBusy is the telemetry mirror of busy (cumulative, nil-safe).
	mBusy *telemetry.Counter
	// onGrainDone is c.grainDone bound once (no method value per grain).
	onGrainDone func()
}

// Instrument attaches the CPU's cumulative busy-time counter
// (nanoseconds). Driver-time only.
func (c *CPU) Instrument(busyNS *telemetry.Counter) { c.mBusy = busyNS }

// New returns a CPU bound to a domain-scoped clock (or a Loop).
func New(clock sim.Clock, opt Options) *CPU {
	opt.setDefaults()
	c := &CPU{clock: clock, opt: opt, started: clock.Now()}
	c.onGrainDone = c.grainDone
	return c
}

// Options returns the CPU's effective options.
func (c *CPU) Options() Options { return c.opt }

// NewTask registers a task. Tasks start asleep; call Wake when work
// arrives.
func (c *CPU) NewTask(cfg TaskConfig) *Task {
	if cfg.Work == nil {
		panic("sched: task without WorkFunc")
	}
	t := &Task{cpu: c, cfg: cfg, id: c.nextID, tokens: c.opt.tokenCap,
		lastRefill: c.clock.Now()}
	c.nextID++
	c.tasks = append(c.tasks, t)
	return t
}

// RemoveTask deregisters a task (slice teardown). The task is dropped
// from the registration list and the run queue, a pending wake can no
// longer resurrect it, and if it was the current selection the in-flight
// grain completes but nothing further is charged to it.
func (c *CPU) RemoveTask(t *Task) {
	if t == nil || t.removed {
		return
	}
	t.removed = true
	t.runnable = false
	for i, x := range c.tasks {
		if x == t {
			c.tasks = append(c.tasks[:i], c.tasks[i+1:]...)
			break
		}
	}
	if t.queued {
		for i, x := range c.queue {
			if x == t {
				c.queue = append(c.queue[:i], c.queue[i+1:]...)
				break
			}
		}
		t.queued = false
	}
	if c.current == t {
		// grainDone tolerates a nil current: it simply picks the next
		// queued task when the in-flight grain timer pops.
		c.current = nil
	}
}

// utilization returns the busy fraction of the CPU since accounting start.
func (c *CPU) utilization() float64 {
	elapsed := c.clock.Now() - c.started
	if elapsed <= 0 {
		return 0
	}
	return float64(c.busy) / float64(elapsed)
}

// TaskUtilization returns the fraction of wall time task has consumed
// since accounting start.
func (c *CPU) TaskUtilization(t *Task) float64 {
	elapsed := c.clock.Now() - c.started
	if elapsed <= 0 {
		return 0
	}
	return float64(t.used) / float64(elapsed)
}

// ResetAccounting zeroes utilization counters (between experiment phases).
func (c *CPU) ResetAccounting() {
	c.started = c.clock.Now()
	c.busy = 0
	for _, t := range c.tasks {
		t.used = 0
	}
}

// Wake marks the task runnable. Safe to call redundantly; the overlay
// calls it on every packet arrival.
func (t *Task) Wake() {
	if t.removed {
		return
	}
	c := t.cpu
	if !t.runnable {
		t.runnable = true
		if !t.waiting {
			t.wakeAt = c.clock.Now()
			t.waiting = true
		}
	}
	if !t.queued && c.current != t {
		t.queued = true
		c.queue = append(c.queue, t)
	}
	c.kick()
}

func (t *Task) refill() {
	now := t.cpu.clock.Now()
	dt := now - t.lastRefill
	t.lastRefill = now
	if t.cfg.Share <= 0 {
		return
	}
	t.tokens += time.Duration(float64(dt) * t.cfg.Share)
	if t.tokens > t.cpu.opt.tokenCap {
		t.tokens = t.cpu.opt.tokenCap
	}
}

// class returns the task's current scheduling class: 0 = real-time with
// tokens, 1 = tokens available, 2 = work-conserving only, 3 =
// ineligible (a strict task with an empty bucket never runs on idle
// cycles; suspended and removed tasks are always ineligible). Lower is
// better.
func (t *Task) class() int {
	t.refill()
	if t.suspended || t.removed {
		return 3
	}
	switch {
	case t.cfg.RT && t.tokens > 0:
		return 0
	case t.tokens > 0:
		return 1
	case t.cfg.Strict:
		return 3
	default:
		return 2
	}
}

// kick starts the scheduler if the CPU is idle.
func (c *CPU) kick() {
	if !c.running {
		c.dispatch()
	}
}

// pickLocked selects the best queued task: lowest class, FIFO within
// class. It removes the selection from the queue.
func (c *CPU) pickQueued() *Task {
	bestIdx, bestClass := -1, 3
	for i, t := range c.queue {
		if cl := t.class(); cl < bestClass {
			bestIdx, bestClass = i, cl
		}
	}
	if bestIdx < 0 {
		return nil
	}
	t := c.queue[bestIdx]
	c.queue = append(c.queue[:bestIdx], c.queue[bestIdx+1:]...)
	t.queued = false
	return t
}

// dispatch runs the scheduler: select (or continue) a task and execute
// one grain of its work, then schedule the grain's completion.
func (c *CPU) dispatch() {
	for {
		t := c.current
		if t == nil {
			t = c.pickQueued()
			if t == nil {
				c.running = false
				c.armRefillKick()
				return
			}
			c.current = t
			t.quantumLeft = quantum
			if t.waiting {
				t.waiting = false
				t.mWake.Observe(c.clock.Now() - t.wakeAt)
			}
		}
		budget := c.opt.Grain
		if t.quantumLeft < budget {
			budget = t.quantumLeft
		}
		used, more := t.cfg.Work(budget)
		if used < 0 {
			used = 0
		}
		if used > budget {
			used = budget
		}
		t.used += used
		t.tokens -= used
		t.quantumLeft -= used
		t.runnable = more && used > 0 // (0, true) treated as asleep
		c.busy += used
		t.mUsed.Add(uint64(used))
		c.mBusy.Add(uint64(used))
		if used == 0 {
			// Nothing consumed: the task sleeps; pick another.
			c.current = nil
			continue
		}
		c.running = true
		c.clock.Schedule(used, c.onGrainDone)
		return
	}
}

// grainDone handles rotation/preemption decisions after a grain.
func (c *CPU) grainDone() {
	cur := c.current
	if cur != nil {
		rotate := !cur.runnable || cur.quantumLeft <= 0 || cur.suspended
		if !rotate && len(c.queue) > 0 {
			// Mid-quantum preemption is a real-time privilege only; an
			// ordinary slice waking with tokens still waits for the
			// current timeslice to end, which is exactly the scheduling
			// latency the paper measures on default-share PlanetLab.
			curClass := cur.class()
			for _, w := range c.queue {
				if w.class() == 0 && curClass != 0 {
					rotate = true
					break
				}
			}
		}
		if rotate {
			c.current = nil
			if cur.runnable && !cur.queued && !cur.suspended {
				cur.queued = true
				c.queue = append(c.queue, cur)
			}
		}
	}
	c.running = false
	c.dispatch()
}

// armRefillKick schedules a scheduler re-run for when the earliest
// queued strict task will have tokens again (a strict task is never run
// on idle cycles, so nothing else would wake the CPU for it).
func (c *CPU) armRefillKick() {
	if c.refillKick {
		return
	}
	var wait time.Duration = -1
	for _, t := range c.queue {
		if !t.cfg.Strict || t.cfg.Share <= 0 || t.suspended || t.removed {
			continue
		}
		t.refill()
		need := -t.tokens
		if need < 0 {
			need = 0
		}
		w := time.Duration(float64(need)/t.cfg.Share) + c.opt.Grain
		if wait < 0 || w < wait {
			wait = w
		}
	}
	if wait < 0 {
		return
	}
	c.refillKick = true
	c.clock.Schedule(wait, func() {
		c.refillKick = false
		c.kick()
	})
}

// String summarises scheduler state for debugging.
func (c *CPU) String() string {
	cur := "idle"
	if c.current != nil {
		cur = c.current.cfg.Name
	}
	return fmt.Sprintf("cpu{current=%s queued=%d util=%.1f%%}", cur, len(c.queue), 100*c.utilization())
}
