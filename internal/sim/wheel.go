package sim

import "time"

// TickWheel is a Clock that quantizes deadlines to a fixed slot width so
// many coarse periodic timers share one underlying heap event per slot.
// Protocol ticks (OSPF hellos, RIP periodic updates, LSA refresh sweeps)
// do not need microsecond placement — they need "about every 5 seconds"
// — but each one scheduled directly on a Domain is a separate heap
// event, and every such event bounds the domain's published execution
// promise, forcing neighbors to wait on timer housekeeping. Rounding ticks up to the next slot boundary lets one
// heap event fire a whole batch, and stretches the gap between
// consecutive events, which widens the horizon every neighbor can run
// to.
//
// Deadlines only ever round up (never early), so interval invariants
// like Dead >= 2*Hello survive quantization. Entries within a slot fire
// in Schedule order, and slots are ordinary domain events, so runs stay
// deterministic. Like any Clock, a wheel is owned by its domain's
// timeline and must not be shared across domains.
type TickWheel struct {
	clock   Clock
	quantum time.Duration
	slots   map[int64]*wheelSlot
	// spareSlots and spareEntries recycle fired slots and entries. A
	// Timer handle carries its entry's generation stamp, as heap event
	// handles do, so a stale Stop cannot cancel the tick that reuses the
	// entry.
	spareSlots   *wheelSlot
	spareEntries *wheelEntry
	// scheduled and fired count entries and slot events, for the
	// coalescing ratio in executor profiles.
	scheduled, fired uint64
}

// wheelEntry is one timer in a slot. It shares the slot's heap event
// with its neighbours, so it cannot be removed on Stop: cancellation is
// lazy — Stop sets stopped and the slot skips the entry when it fires.
// Like Schedule, Stop runs only in the owning domain or at a barrier, so
// the flag needs no atomics.
type wheelEntry struct {
	fn      func()
	stopped bool
	gen     uint32 // incremented on recycle; stale Timers compare unequal
	slot    *wheelSlot
	next    *wheelEntry // free-list link
}

type wheelSlot struct {
	entries []*wheelEntry
	wheel   *TickWheel
	idx     int64
	// live counts unstopped entries; when the last one is stopped the
	// slot's heap event is cancelled too, so a torn-down subsystem
	// leaves nothing behind in the domain heap (the lifecycle audits
	// assert exactly that). Mutated only from the owning domain or at a
	// barrier — the same contract as Schedule itself.
	live  int
	timer Timer
	// fire is the slot's heap callback, bound once for the slot's life.
	fire func()
	next *wheelSlot // free-list link
}

// stop cancels one entry (Timer.Stop delegates here). It reports
// whether the entry was still pending.
func (e *wheelEntry) stop(gen uint32) bool {
	if e.gen != gen || e.stopped {
		return false
	}
	e.stopped = true
	s := e.slot
	if s != nil && s.wheel != nil {
		s.live--
		if s.live == 0 {
			s.timer.Stop()
			delete(s.wheel.slots, s.idx)
			s.wheel = nil
		}
	}
	return true
}

// NewTickWheel wraps clock with slot width quantum (<= 0 defaults to
// 100 ms, fine-grained enough that a 5 s hello jitters by at most 2%).
func NewTickWheel(clock Clock, quantum time.Duration) *TickWheel {
	if quantum <= 0 {
		quantum = 100 * time.Millisecond
	}
	return &TickWheel{clock: clock, quantum: quantum, slots: make(map[int64]*wheelSlot)}
}

// Now implements Clock.
func (w *TickWheel) Now() time.Duration { return w.clock.Now() }

// Schedule implements Clock: fn runs at Now()+d rounded up to the next
// slot boundary. The returned Timer cancels through a shared flag (the
// slot event is not removed — it may carry other entries — the entry is
// skipped at fire time).
func (w *TickWheel) Schedule(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	now := w.clock.Now()
	at := now + d
	idx := int64((at + w.quantum - 1) / w.quantum)
	s, ok := w.slots[idx]
	if !ok {
		if s = w.spareSlots; s != nil {
			w.spareSlots, s.next = s.next, nil
		} else {
			s = &wheelSlot{}
			s.fire = func() { w.fire(s) }
		}
		s.wheel, s.idx, s.live = w, idx, 0
		w.slots[idx] = s
		s.timer = w.clock.Schedule(time.Duration(idx)*w.quantum-now, s.fire)
	}
	e := w.spareEntries
	if e != nil {
		w.spareEntries, e.next = e.next, nil
	} else {
		e = &wheelEntry{}
	}
	e.fn, e.slot = fn, s
	s.entries = append(s.entries, e)
	s.live++
	w.scheduled++
	return Timer{wentry: e, gen: e.gen}
}

// fire runs every live entry of one slot in Schedule order. The slot is
// detached first so callbacks that re-arm (periodic ticks) land in a
// fresh future slot rather than the one being drained; each entry is
// recycled before its callback runs, so a periodic tick re-arms into
// the entry it fired from.
func (w *TickWheel) fire(s *wheelSlot) {
	delete(w.slots, s.idx)
	s.wheel = nil
	w.fired++
	for i, e := range s.entries {
		s.entries[i] = nil
		fn, run := e.fn, !e.stopped
		e.gen++
		e.fn, e.slot, e.stopped = nil, nil, false
		e.next, w.spareEntries = w.spareEntries, e
		if run {
			fn()
		}
	}
	s.entries = s.entries[:0]
	s.next, w.spareSlots = w.spareSlots, s
}
