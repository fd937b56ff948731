package sim

import (
	"fmt"
	"testing"
	"time"
)

// recorder is a typed message Handler that appends each delivery to a
// trace owned by the destination domain.
type recorder struct {
	d     *Domain
	trace *[]string
}

func (r *recorder) Invoke(arg any) {
	*r.trace = append(*r.trace, fmt.Sprintf("%v:%v", r.d.Now(), arg))
}

// TestTrainOrderAcrossHorizon: typed messages batched into trains must
// fire at the destination in merge-key order even when a train spans a
// horizon boundary — some messages deliverable in the current window,
// later ones only after the source republishes its bound. The source
// deliberately sends at exactly the edge delay (landing on the boundary
// itself), just inside, and well beyond it, interleaved with local
// destination events, and the resulting trace must be byte-identical
// across worker counts.
func TestTrainOrderAcrossHorizon(t *testing.T) {
	run := func(workers int) (uint64, []string, []string) {
		const edge = time.Millisecond
		x := NewExecutor(11, workers)
		a := x.NewDomain("a")
		b := x.NewDomain("b")
		b.ObserveInboundLink(a, edge)
		a.ObserveInboundLink(b, edge)

		var btrace, atrace []string
		rb := &recorder{d: b, trace: &btrace}
		ra := &recorder{d: a, trace: &atrace}

		var tick func()
		n := 0
		tick = func() {
			if n++; n > 40 {
				return
			}
			// One message exactly at the horizon boundary, one just
			// beyond, one far beyond (delivered only in a later window),
			// with a deterministic jitter draw from a's own stream.
			a.Send(b, edge, rb, n*3)
			a.Send(b, edge+time.Duration(a.RNG().Intn(50))*time.Microsecond, rb, n*3+1)
			a.Send(b, 3*edge+edge/2, rb, n*3+2)
			a.Schedule(edge/4, tick)
		}
		a.Schedule(0, tick)
		// b runs its own periodic work and replies, so trains flow both
		// ways and b's heap interleaves local and delivered events.
		var pong func()
		m := 0
		pong = func() {
			if m++; m > 60 {
				return
			}
			b.Send(a, edge, ra, -m)
			b.Schedule(edge/3, pong)
		}
		b.Schedule(0, pong)
		x.Run(50 * time.Millisecond)
		if tr, msgs := x.TrainStats(); tr == 0 || msgs < 120 {
			t.Errorf("workers=%d: trains=%d msgs=%d — cross-domain sends did not ride trains", workers, tr, msgs)
		}
		return x.ScheduleDigest(), btrace, atrace
	}

	d1, b1, a1 := run(1)
	d4, b4, a4 := run(4)
	if d1 != d4 {
		t.Fatalf("digest diverged: %016x vs %016x", d1, d4)
	}
	if len(b1) != 3*40 || len(a1) != 60 {
		t.Fatalf("trace lengths %d, %d — want 120, 60", len(b1), len(a1))
	}
	for i := range b1 {
		if b1[i] != b4[i] {
			t.Fatalf("b trace[%d]: %q vs %q", i, b1[i], b4[i])
		}
	}
	for i := range a1 {
		if a1[i] != a4[i] {
			t.Fatalf("a trace[%d]: %q vs %q", i, a1[i], a4[i])
		}
	}
}

// TestUnbalancedParkDeterminism: sixteen domains with deliberately
// unbalanced load on four workers leave the run queue empty while some
// domains are still running, so workers spin and park and are woken by
// the next enqueue — and the schedule must still replay byte-identically
// against the sequential run, twice.
func TestUnbalancedParkDeterminism(t *testing.T) {
	run := func(workers int) uint64 {
		const n = 16
		x := NewExecutor(5, workers)
		doms := make([]*Domain, n)
		for i := range doms {
			doms[i] = x.NewDomain(fmt.Sprintf("n%d", i))
		}
		for i := range doms {
			for j := range doms {
				if i != j {
					doms[i].ObserveInboundLink(doms[j], time.Millisecond)
				}
			}
		}
		for i := range doms {
			i := i
			d := doms[i]
			var tick func()
			k := 0
			tick = func() {
				if k++; k > 30 {
					return
				}
				// Unbalanced: domain i does i+1 units of local work,
				// then scatters messages to two neighbors.
				for w := 0; w <= i; w++ {
					d.Schedule(time.Duration(d.RNG().Intn(200))*time.Microsecond, func() {})
				}
				d.Send(doms[(i+1)%n], time.Millisecond, &recorder{d: doms[(i+1)%n], trace: new([]string)}, i)
				d.Send(doms[(i*7+3)%n], 2*time.Millisecond, &recorder{d: doms[(i*7+3)%n], trace: new([]string)}, i)
				d.Schedule(500*time.Microsecond, tick)
			}
			d.Schedule(0, tick)
		}
		x.Run(40 * time.Millisecond)
		return x.ScheduleDigest()
	}
	seq := run(1)
	p1 := run(4)
	p2 := run(4)
	if seq != p1 || p1 != p2 {
		t.Fatalf("digests diverged: seq %016x, 4w %016x, 4w again %016x", seq, p1, p2)
	}
}

// TestZeroLookaheadCycleFallback: a three-domain cycle of zero-delay
// edges has no usable lookahead anywhere — every horizon computes below
// the domain's own clock — so the executor must detect the stall and
// take the sequential global-min fallback, still completing the token
// ring deterministically.
func TestZeroLookaheadCycleFallback(t *testing.T) {
	run := func(workers int) (int, uint64, uint64) {
		x := NewExecutor(13, workers)
		a := x.NewDomain("a")
		b := x.NewDomain("b")
		c := x.NewDomain("c")
		b.ObserveInboundLink(a, 0)
		c.ObserveInboundLink(b, 0)
		a.ObserveInboundLink(c, 0)
		hops := 0
		var ab, bc, ca handlerFunc
		ab = func(any) { hops++; b.Send(c, 0, bc, nil) }
		bc = func(any) { hops++; c.Send(a, 0, ca, nil) }
		ca = func(any) {
			hops++
			if hops < 300 {
				a.Send(b, 0, ab, nil)
			}
		}
		a.Schedule(0, func() { a.Send(b, 0, ab, nil) })
		x.Run(time.Millisecond)
		return hops, x.Fallbacks(), x.ScheduleDigest()
	}
	h1, f1, d1 := run(1)
	h4, f4, d4 := run(4)
	if h1 != 300 || h4 != 300 {
		t.Fatalf("hops %d and %d, want 300", h1, h4)
	}
	if f1 == 0 || f4 == 0 {
		t.Fatalf("zero-lookahead cycle never fell back (fallbacks %d, %d)", f1, f4)
	}
	if d1 != d4 {
		t.Fatalf("fallback digests diverged: %016x vs %016x", d1, d4)
	}
}

// handlerFunc adapts a func to Handler for tests.
type handlerFunc func(any)

func (f handlerFunc) Invoke(arg any) { f(arg) }

// TestCrossDomainSendSteadyStateAllocs: after warmup (event free lists
// primed, train buffers and inbox slices grown), the cross-domain
// Send→train→flush→deliver→fire cycle must not allocate — this is the
// per-packet path of the parallel network simulator.
func TestCrossDomainSendSteadyStateAllocs(t *testing.T) {
	const edge = time.Millisecond
	x := NewExecutor(17, 1)
	a := x.NewDomain("a")
	b := x.NewDomain("b")
	b.ObserveInboundLink(a, edge)
	a.ObserveInboundLink(b, edge)
	fired := 0
	h := handlerFunc(func(any) { fired++ })
	payload := new(int)

	until := time.Duration(0)
	cycle := func() {
		for i := 0; i < 64; i++ {
			a.Send(b, edge+time.Duration(i)*time.Microsecond, h, payload)
		}
		until += 5 * edge
		x.Run(until)
	}
	// Warm: grow free lists, train capacity, inbox capacity, heaps.
	for i := 0; i < 5; i++ {
		cycle()
	}
	avg := testing.AllocsPerRun(50, cycle)
	perMsg := avg / 64
	if perMsg > 0.02 {
		t.Fatalf("cross-domain steady state allocates %.3f allocs/message (%.1f per cycle), want 0",
			perMsg, avg)
	}
	if fired == 0 {
		t.Fatal("no messages fired")
	}
}
