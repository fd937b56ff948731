package netem

import (
	"time"

	"vini/internal/packet"
	"vini/internal/sim"
	"vini/internal/telemetry"
)

// LinkConfig describes one physical link.
type LinkConfig struct {
	A, B string
	// Bandwidth in bits per second.
	Bandwidth float64
	// Delay is one-way propagation delay.
	Delay time.Duration
	// Jitter adds a uniform random delay in [0, Jitter) per packet,
	// modelling the residual variability real paths show (the paper's
	// native Abilene ping mdev of 0.2 ms).
	Jitter time.Duration
	// QueueBytes bounds the transmit queue in each direction (default
	// 256 KiB, a typical router interface buffer).
	QueueBytes int
}

// Link is an instantiated bidirectional link. Each direction has its own
// transmitter state.
type Link struct {
	cfg LinkConfig
	net *Network
	// index is the link's position in net.links and in net.graph.
	index int
	a, b  *Node
	down  bool
	dir   [2]*linkDir // 0: a->b, 1: b->a
}

type linkDir struct {
	link *Link
	// src transmits in this direction and dst receives.
	src, dst *Node
	// rng draws per-packet jitter: each direction owns a forked stream,
	// since transmit runs in the source node's domain.
	rng *sim.RNG
	// busyUntil is when the transmitter finishes the current queue.
	busyUntil time.Duration
	// queued tracks bytes committed but not yet serialized.
	queued int
	// pend records in-flight (arrival, size) pairs; the transmit path
	// purges due entries lazily instead of scheduling one queue-drain
	// event per packet. pendHead is the ring's consumed prefix.
	pend     []drainRec
	pendHead int
	// Drops counts queue-overflow losses.
	Drops uint64
	// Packets and Bytes count transmissions.
	Packets, Bytes uint64
	// lastArrival keeps delivery FIFO under per-packet jitter: a link is
	// a pipe, so a later packet never overtakes an earlier one.
	lastArrival time.Duration
	// Telemetry mirrors of the counters above; nil-safe, each direction
	// written only from the source node's domain.
	mPkts, mBytes, mDrops *telemetry.Counter
}

// drainRec is one lazily-drained transmit-queue entry.
type drainRec struct {
	at   time.Duration
	size int
}

// linkTx is a linkDir seen as the typed handler for the kernel-forwarding
// hand-off onto the link: forwardOut schedules it (same-domain, through
// the event free list) after the forwarding latency, so the per-hop path
// costs no closure allocation.
type linkTx linkDir

// Invoke runs in src's domain: put the packet on the wire.
func (t *linkTx) Invoke(arg any) { (*linkDir)(t).transmit(arg.(*packet.Packet)) }

// txFrom returns the transmit handler for packets leaving src.
func (l *Link) txFrom(src *Node) *linkTx {
	if src == l.a {
		return (*linkTx)(l.dir[0])
	}
	return (*linkTx)(l.dir[1])
}

// purge applies every due queue-drain entry: each decrements queued,
// floored at zero (an idle-reset may already have zeroed it).
func (d *linkDir) purge(now time.Duration) {
	for d.pendHead < len(d.pend) && d.pend[d.pendHead].at <= now {
		d.queued -= d.pend[d.pendHead].size
		if d.queued < 0 {
			d.queued = 0
		}
		d.pendHead++
	}
	if d.pendHead == len(d.pend) {
		d.pend = d.pend[:0]
		d.pendHead = 0
	} else if d.pendHead > 64 && d.pendHead*2 > len(d.pend) {
		n := copy(d.pend, d.pend[d.pendHead:])
		d.pend = d.pend[:n]
		d.pendHead = 0
	}
}

// Invoke is the typed arrival handler: it runs in the receiving node's
// domain at the packet's arrival time, delivered by a pooled message
// train — never a per-packet closure. The transmit queue is the sender's
// state and drains there (see purge).
func (d *linkDir) Invoke(arg any) {
	p := arg.(*packet.Packet)
	if d.link.down {
		p.Release() // failed while in flight
		return
	}
	d.dst.receive(p, d.link)
}

// Instrument attaches telemetry counters to one direction (0: A->B,
// 1: B->A). Call from the driver before traffic flows.
func (l *Link) Instrument(dir int, pkts, bytes, drops *telemetry.Counter) {
	d := l.dir[dir]
	d.mPkts, d.mBytes, d.mDrops = pkts, bytes, drops
}

// Config returns the link's configuration.
func (l *Link) Config() LinkConfig { return l.cfg }

// SetDown fails or restores the physical link. In-flight packets are not
// recalled (they were already on the wire). It is the one place a link
// changes state, so the network's down set and shortest-path trees
// follow here. Like every topology change it must run at a barrier or on
// the control domain.
func (l *Link) SetDown(v bool) {
	if l.down == v {
		return
	}
	l.down = v
	if v {
		l.net.down[l.index] = true
	} else {
		delete(l.net.down, l.index)
	}
	l.net.trees = nil
}

// Stats returns per-direction counters (0: A->B, 1: B->A).
func (l *Link) Stats(dir int) (packets, bytes, drops uint64) {
	d := l.dir[dir]
	return d.Packets, d.Bytes, d.Drops
}

// transmit sends p across the link in this direction. It models a FIFO
// drop-tail queue ahead of a fixed-rate serializer plus propagation
// delay, then hands the packet to the far node's receive path. It runs
// in src's time domain; the arrival becomes a timestamped mailbox
// message, which is the only way simulated state ever crosses domains.
func (d *linkDir) transmit(p *packet.Packet) {
	l, src, dst := d.link, d.src, d.dst
	if l.down {
		p.Release()
		return
	}
	now := src.dom.Now()
	d.purge(now)
	if d.busyUntil < now {
		d.busyUntil = now
		d.queued = 0
	}
	if d.queued+p.Len() > l.cfg.QueueBytes {
		d.Drops++
		d.mDrops.Inc()
		p.Release()
		return
	}
	d.queued += p.Len()
	wire := time.Duration(float64(p.Len()*8) / l.cfg.Bandwidth * float64(time.Second))
	d.busyUntil += wire
	d.Packets++
	d.Bytes += uint64(p.Len())
	d.mPkts.Inc()
	d.mBytes.Add(uint64(p.Len()))
	if l.net.onPacket != nil {
		l.net.onPacket(src, "link-tx", p)
	}
	delay := l.cfg.Delay
	if l.cfg.Jitter > 0 {
		delay += time.Duration(d.rng.Float64() * float64(l.cfg.Jitter))
	}
	arrival := d.busyUntil + delay
	if arrival < d.lastArrival {
		arrival = d.lastArrival
	}
	d.lastArrival = arrival
	// The transmitter state (d.queued) belongs to src's domain and the
	// receive path to dst's, so the queue drain is recorded for lazy
	// application at the next transmit (no event at all) and the
	// delivery rides a typed message train — one inbox lock per flushed
	// train rather than per packet. Ownership of p transfers with it.
	d.pend = append(d.pend, drainRec{at: arrival, size: p.Len()})
	src.dom.Send(dst.dom, arrival-now, d, p)
}
