package sim

import (
	"sync"
	"sync/atomic"
	"time"
)

// maxTime is the "no event / no constraint" sentinel for horizon math.
const maxTime = time.Duration(1<<63 - 1)

// fnvPrime folds the per-domain schedule digest (FNV-1a style over the
// fired-event keys). The digest is order-sensitive, so two runs match
// only if every domain fired the same events in the same order.
const (
	fnvOffset uint64 = 0xcbf29ce484222325
	fnvPrime  uint64 = 0x100000001b3
)

// DomainStats is one domain's event-lifecycle counter snapshot.
type DomainStats struct {
	ID    int32
	Label string
	// Scheduled counts local Schedule calls; Sent counts cross-domain
	// sends originated here; Delivered counts cross-domain messages
	// materialized into this domain's queue.
	Scheduled, Sent, Delivered uint64
	// Fired, Cancelled, Recycled track the event lifecycle. Every
	// allocated event is eventually recycled exactly once.
	Fired, Cancelled, Recycled uint64
	// Stalls counts execution windows where this domain had work within
	// the run window but its conservative horizon did not yet cover it.
	// Scheduler-dependent (diagnostic only, not part of the parity
	// contract).
	Stalls uint64
	// Trains counts flushed message trains; TrainMsgs counts the typed
	// messages they carried. TrainMsgs/Trains is the batching factor the
	// train layer achieves.
	Trains, TrainMsgs uint64
}

// Domain is one sequential event timeline: a per-physical-node (or
// control) event queue carrying its own virtual clock, sequence
// counter, RNG stream, and free list. All code running inside a domain
// is single-threaded with respect to that domain, exactly as all code
// was single-threaded under the old global Loop. The only concurrent
// surface is the typed inbox, which other domains append to under inMu.
//
// A Domain implements Clock, so sched.CPU, the routing protocols, and
// the traffic tools take a domain-scoped handle without API changes.
type Domain struct {
	id    int32
	label string
	exec  *Executor

	now  time.Duration
	seq  uint64
	heap []*event // 4-ary min-heap ordered by (at, dom, seq)
	free *event   // recycled event structs
	rng  *RNG

	// digest folds the key of every fired event, in fire order.
	digest uint64
	stats  DomainStats

	// remote marks a replica domain in a sharded run: another shard owns
	// and executes this domain's timeline. The local copy exists so
	// replicated world construction and control-domain code hold
	// identical references, but it never materializes or fires events —
	// Schedule is inert, its inbox is drained onto the wire at exchange
	// barriers, and the executor never enqueues it.
	remote bool

	// ins are the registered per-pair inbound edges: the only domains
	// that may send here, each bounding the horizon by its own delay.
	// outs are the domains this one has registered edges into — the
	// executor wakes them when this domain's published bound rises.
	ins  []inEdge
	outs []*Domain

	// pub is the domain's published execution bound (nanoseconds): a
	// monotone promise that no event with an earlier timestamp will ever
	// run here within the current Run window. Receivers read it to widen
	// their horizons (pub + edge delay bounds this domain's influence).
	// Written by the owning worker after each window (flush-then-publish
	// order), reset by the coordinator at Run entry.
	pub atomic.Int64

	// state is the scheduler state machine (stateIdle/Queued/Running/
	// Dirty) that keeps a domain in the run queue at most once.
	state atomic.Int32

	// trains accumulate outbound typed messages per destination domain;
	// dirtyTrains lists those with pending messages; flushed is the
	// wake-up scratch list the last flushTrains call populated.
	trains      []*train
	dirtyTrains []*train
	flushed     []*Domain

	// tin collects the typed train messages (Send) other domains flush
	// here between windows. inboxMin caches its earliest timestamp so
	// horizon checks don't scan; it is atomic because next() reads it
	// from the owning worker while senders update it under inMu. tspare
	// is the drained buffer kept for reuse.
	inMu     sync.Mutex
	tin      []tmsg
	inboxMin atomic.Int64
	tspare   []tmsg
}

// ID returns the domain's executor-assigned id (0 is the control
// domain). Ids order the deterministic merge: at equal timestamps,
// lower ids run first.
func (d *Domain) ID() int32 { return d.id }

// Now returns the domain's current virtual time.
func (d *Domain) Now() time.Duration { return d.now }

// Remote reports whether this domain is an inert replica whose timeline
// executes on another shard (always false outside sharded runs).
func (d *Domain) Remote() bool { return d.remote }

// RNG returns the domain's deterministic random stream. Each domain
// forks its own stream at creation, so draws in one domain never
// perturb another's sequence regardless of execution interleaving.
func (d *Domain) RNG() *RNG { return d.rng }

// Stats returns a snapshot of the domain's counters.
func (d *Domain) Stats() DomainStats {
	s := d.stats
	s.ID, s.Label = d.id, d.label
	return s
}

// Lookahead returns the domain's conservative inbound lookahead — the
// minimum latency of any cross-domain edge into it (maxTime when
// nothing sends here). Telemetry surfaces it next to the stall counts:
// a small lookahead is why a domain's horizon advances slowly.
func (d *Domain) Lookahead() time.Duration {
	look := maxTime
	for _, e := range d.ins {
		if e.delay < look {
			look = e.delay
		}
	}
	return look
}

// Schedule implements Clock: fn runs in this domain at Now()+delay.
// It must only be called from code executing inside this domain (or at
// a barrier: driver code between Run calls, or control-domain events).
func (d *Domain) Schedule(delay time.Duration, fn func()) Timer {
	if fn == nil {
		panic("sim: Schedule with nil fn")
	}
	if d.remote {
		// Replica of a domain owned by another shard: the owner's
		// replicated copy of the calling code schedules the authentic
		// event. A zero Timer is inert (Stop and Pending are no-ops).
		return Timer{}
	}
	if delay < 0 {
		delay = 0
	}
	d.seq++
	d.stats.Scheduled++
	ev := d.alloc()
	ev.at = d.now + delay
	ev.dom = d.id
	ev.seq = d.seq
	ev.fn = fn
	d.push(ev)
	return Timer{ev: ev, gen: ev.gen}
}

// drainInbox materializes queued typed cross-domain messages into the
// heap. Called by the owning worker at the start of each execution
// window, or by the coordinator at a barrier. Heap keys are globally
// unique and totally ordered, so the append order of the inbox — the
// one thing thread interleaving can vary — is semantically invisible.
func (d *Domain) drainInbox() {
	d.inMu.Lock()
	if len(d.tin) == 0 {
		d.inMu.Unlock()
		return
	}
	tmsgs := d.tin
	d.tin = d.tspare[:0]
	d.inboxMin.Store(int64(maxTime))
	d.inMu.Unlock()
	for i := range tmsgs {
		m := &tmsgs[i]
		ev := d.alloc()
		ev.at, ev.dom, ev.seq = m.at, m.dom, m.seq
		ev.h, ev.arg = m.h, m.arg
		d.push(ev)
		d.stats.Delivered++
		m.h, m.arg = nil, nil
	}
	d.tspare = tmsgs[:0]
}

// next returns the earliest timestamp of any pending work (heap or
// undelivered inbox), or maxTime when idle. Barrier-context only.
func (d *Domain) next() time.Duration {
	n := maxTime
	if len(d.heap) > 0 {
		n = d.heap[0].at
	}
	if m := time.Duration(d.inboxMin.Load()); m < n {
		n = m
	}
	return n
}

// step runs the single earliest event. It reports false when the queue
// is empty.
func (d *Domain) step() bool {
	if len(d.heap) == 0 {
		return false
	}
	ev := d.pop()
	if ev.at > d.now {
		d.now = ev.at
	}
	fn := ev.fn
	th, targ := ev.h, ev.arg
	// Fold the fired event's merge key before the struct recycles.
	h := d.digest
	h = (h ^ uint64(ev.at)) * fnvPrime
	h = (h ^ uint64(uint32(ev.dom))) * fnvPrime
	h = (h ^ ev.seq) * fnvPrime
	d.digest = h
	// Recycle before running so a Stop on the firing timer is a no-op
	// and the struct is immediately reusable by fn's own Schedule calls.
	d.recycle(ev)
	d.stats.Fired++
	if th != nil {
		th.Invoke(targ)
	} else {
		fn()
	}
	return true
}

// runTo is the worker-side window body: run every event at or before
// the inclusive horizon h. Nothing outside this domain is touched
// except via Send (train buffers and inboxes), so domains in one
// window race on nothing.
func (d *Domain) runTo(h time.Duration) bool {
	ran := false
	stop := &d.exec.stopped
	for len(d.heap) > 0 && d.heap[0].at <= h {
		if stop.Load() {
			return ran
		}
		d.step()
		ran = true
	}
	return ran
}

// pubTime reads the domain's published execution bound.
func (d *Domain) pubTime() time.Duration { return time.Duration(d.pub.Load()) }

// alloc takes an event struct from the free list, or makes one.
func (d *Domain) alloc() *event {
	if ev := d.free; ev != nil {
		d.free = ev.next
		ev.next = nil
		return ev
	}
	return &event{owner: d}
}

// recycle invalidates outstanding Timers for ev and returns it to the
// free list. The callback reference is dropped here, not at pop time.
func (d *Domain) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.h, ev.arg = nil, nil
	ev.next = d.free
	d.free = ev
	d.stats.Recycled++
}

// less orders events by the deterministic merge key (time, origin
// domain, origin sequence). With a single domain this degenerates to
// (time, sequence) order.
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.dom != b.dom {
		return a.dom < b.dom
	}
	return a.seq < b.seq
}

// push inserts ev into the 4-ary heap.
func (d *Domain) push(ev *event) {
	ev.idx = len(d.heap)
	d.heap = append(d.heap, ev)
	d.siftUp(ev.idx)
}

// pop removes and returns the earliest event. The heap must be non-empty.
func (d *Domain) pop() *event {
	h := d.heap
	ev := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[0].idx = 0
	h[n] = nil
	d.heap = h[:n]
	if n > 0 {
		d.siftDown(0)
	}
	return ev
}

// remove deletes ev from the heap (timer cancellation) and recycles it.
func (d *Domain) remove(ev *event) {
	h := d.heap
	i := ev.idx
	n := len(h) - 1
	if i != n {
		h[i] = h[n]
		h[i].idx = i
	}
	h[n] = nil
	d.heap = h[:n]
	if i != n {
		d.siftDown(i)
		d.siftUp(i)
	}
	d.stats.Cancelled++
	d.recycle(ev)
}

func (d *Domain) siftUp(i int) {
	h := d.heap
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !less(ev, h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].idx = i
		i = parent
	}
	h[i] = ev
	ev.idx = i
}

func (d *Domain) siftDown(i int) {
	h := d.heap
	n := len(h)
	ev := h[i]
	for {
		min := -1
		first := 4*i + 1
		last := first + 4
		if last > n {
			last = n
		}
		for c := first; c < last; c++ {
			if min < 0 || less(h[c], h[min]) {
				min = c
			}
		}
		if min < 0 || !less(h[min], ev) {
			break
		}
		h[i] = h[min]
		h[i].idx = i
		i = min
	}
	h[i] = ev
	ev.idx = i
}
