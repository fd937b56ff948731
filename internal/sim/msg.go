package sim

import (
	"slices"
	"time"
)

// Handler is the typed callback carried by pooled cross-domain messages
// and typed local events. Implementations are long-lived objects (a link
// direction, a socket, a protocol instance), so scheduling through a
// Handler costs no closure allocation: the event stores the interface
// pair (h, arg) and the payload travels as arg. Invoke runs in the
// destination domain at the event's timestamp.
type Handler interface {
	Invoke(arg any)
}

// tmsg is a typed, pooled cross-domain message: "invoke h(arg) in the
// receiving domain at virtual time at". (dom, seq) is the sender's
// unique key, slotting the message into the deterministic global merge
// order (at, dom, seq) no matter when the train carrying it is flushed.
// There is no cancellation flag: typed sends are fire-and-forget
// (packet deliveries), which is what makes them allocation-free.
type tmsg struct {
	at  time.Duration
	dom int32
	seq uint64
	h   Handler
	arg any
}

// train accumulates this domain's typed messages for one destination
// between flushes. A burst of N packets over one cross-domain link costs
// N slice appends plus a single lock acquisition at flush time, instead
// of N allocations and N lock acquisitions.
type train struct {
	dst   *Domain
	msgs  []tmsg
	dirty bool
}

// inEdge is one registered cross-domain link into a domain: messages
// from src arrive no earlier than src's published execution bound plus
// delay, so each neighbor constrains the receiver's horizon by its own
// delay.
type inEdge struct {
	src   *Domain
	delay time.Duration
}

// ObserveInboundLink registers a cross-domain edge src -> d with the
// given propagation delay (parallel edges keep the smallest). A domain's
// horizon is computed over its registered edges only, so every sender
// must register its edge before it first sends (netem does this for
// every link at AddLink time); a domain nothing sends to runs straight
// to the window. A zero delay forces the executor's sequential fallback,
// which stays correct (and deterministic) but does not scale.
func (d *Domain) ObserveInboundLink(src *Domain, delay time.Duration) {
	if delay < 0 {
		delay = 0
	}
	for i := range d.ins {
		if d.ins[i].src == src {
			if delay < d.ins[i].delay {
				d.ins[i].delay = delay
			}
			return
		}
	}
	d.ins = append(d.ins, inEdge{src: src, delay: delay})
	for _, o := range src.outs {
		if o == d {
			return
		}
	}
	src.outs = append(src.outs, d)
}

// Send arranges for h.Invoke(arg) to run in dst at this domain's
// Now()+delay. Same-domain sends become ordinary local events.
// Cross-domain sends append to the per-(src,dst) train, which the
// executor flushes into dst's inbox once per execution window:
// allocation-free and lock-amortized on the per-packet data path.
// There is no Timer: typed sends cannot be cancelled.
func (d *Domain) Send(dst *Domain, delay time.Duration, h Handler, arg any) {
	if h == nil {
		panic("sim: Send with nil handler")
	}
	if delay < 0 {
		delay = 0
	}
	if dst == d {
		d.seq++
		d.stats.Scheduled++
		ev := d.alloc()
		ev.at = d.now + delay
		ev.dom = d.id
		ev.seq = d.seq
		ev.h, ev.arg = h, arg
		d.push(ev)
		return
	}
	d.seq++
	d.stats.Sent++
	t := d.trainFor(dst)
	t.msgs = append(t.msgs, tmsg{at: d.now + delay, dom: d.id, seq: d.seq, h: h, arg: arg})
	if !t.dirty {
		t.dirty = true
		d.dirtyTrains = append(d.dirtyTrains, t)
	}
}

// trainFor returns the accumulation buffer for dst, creating the
// per-destination table on first use. Domains are fixed before the
// first Run, so the table is indexed by domain id.
func (d *Domain) trainFor(dst *Domain) *train {
	if len(d.trains) < len(d.exec.domains) {
		grown := make([]*train, len(d.exec.domains))
		copy(grown, d.trains)
		d.trains = grown
	}
	t := d.trains[dst.id]
	if t == nil {
		if !slices.ContainsFunc(dst.ins, func(e inEdge) bool { return e.src == d }) {
			panic("sim: Send to domain " + dst.label + " from unregistered source " +
				d.label + " (missing ObserveInboundLink)")
		}
		t = &train{dst: dst}
		d.trains[dst.id] = t
	}
	return t
}

// flushTrains appends every dirty train to its destination's inbox, one
// lock acquisition per destination, and returns how many destinations
// received messages (the flushed trains are recorded in d.flushed for
// the executor's wake-up pass). Runs in the owning domain's context
// (worker window end) or at a barrier.
func (d *Domain) flushTrains() int {
	if len(d.dirtyTrains) == 0 {
		return 0
	}
	n := 0
	d.flushed = d.flushed[:0]
	for _, t := range d.dirtyTrains {
		if len(t.msgs) > 0 {
			// Arrivals within a train need not be sorted (a train can
			// aggregate several links to the same node), so the inbox
			// minimum is the min over the whole batch.
			min := t.msgs[0].at
			for i := 1; i < len(t.msgs); i++ {
				if t.msgs[i].at < min {
					min = t.msgs[i].at
				}
			}
			dst := t.dst
			dst.inMu.Lock()
			dst.tin = append(dst.tin, t.msgs...)
			if int64(min) < dst.inboxMin.Load() {
				dst.inboxMin.Store(int64(min))
			}
			dst.inMu.Unlock()
			d.stats.TrainMsgs += uint64(len(t.msgs))
			d.stats.Trains++
			for i := range t.msgs {
				t.msgs[i].h, t.msgs[i].arg = nil, nil
			}
			t.msgs = t.msgs[:0]
			n++
			d.flushed = append(d.flushed, dst)
		}
		t.dirty = false
	}
	d.dirtyTrains = d.dirtyTrains[:0]
	return n
}

// trainBacklog counts not-yet-flushed outbound messages (Pending
// support; barrier context).
func (d *Domain) trainBacklog() int {
	n := 0
	for _, t := range d.dirtyTrains {
		n += len(t.msgs)
	}
	return n
}
