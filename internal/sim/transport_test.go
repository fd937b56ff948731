package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"vini/internal/packet"
)

// relayHandler is a wire-capable typed handler for transport tests: a
// token (hop counter) circulates a ring of domains, each hop a typed
// cross-domain Send. Every process holds an identical replicated set of
// handlers, so handler ids and behavior agree across shards.
type relayHandler struct {
	dom   *Domain
	next  *Domain
	nh    *relayHandler
	limit uint64
	delay time.Duration
}

func (h *relayHandler) Invoke(arg any) {
	v := arg.(uint64)
	if v >= h.limit {
		return
	}
	h.dom.Send(h.next, h.delay, h.nh, v+1)
}

func (h *relayHandler) EncodeArg(dst []byte, arg any) []byte {
	return binary.LittleEndian.AppendUint64(dst, arg.(uint64))
}

func (h *relayHandler) DecodeArg(b []byte) (any, error) {
	if len(b) != 8 {
		return nil, fmt.Errorf("relay arg length %d", len(b))
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (h *relayHandler) DropArg(any) {}

// buildRelayWorld replicates one world: n node domains in a ring
// (stride-1 edges) plus stride-2 chords, all carrying relay tokens.
func buildRelayWorld(seed int64, n, workers int) (*Executor, []*Domain, []*relayHandler, []*relayHandler) {
	x := NewExecutor(seed, workers)
	doms := make([]*Domain, n)
	for i := range doms {
		doms[i] = x.NewDomain(fmt.Sprintf("d%d", i))
	}
	ring := make([]*relayHandler, n)
	chord := make([]*relayHandler, n)
	for i := range doms {
		ring[i] = &relayHandler{dom: doms[i], limit: 300, delay: time.Millisecond}
		chord[i] = &relayHandler{dom: doms[i], limit: 150, delay: 3 * time.Millisecond}
	}
	for i := range doms {
		ring[i].next = doms[(i+1)%n]
		ring[i].nh = ring[(i+1)%n]
		chord[i].next = doms[(i+2)%n]
		chord[i].nh = chord[(i+2)%n]
		doms[(i+1)%n].ObserveInboundLink(doms[i], time.Millisecond)
		doms[(i+2)%n].ObserveInboundLink(doms[i], 3*time.Millisecond)
	}
	for i := range doms {
		x.BindWire(ring[i])
		x.BindWire(chord[i])
	}
	return x, doms, ring, chord
}

func seedRelays(doms []*Domain, ring, chord []*relayHandler) {
	for i := range doms {
		d := doms[i]
		r, c := ring[i], chord[i]
		d.Schedule(time.Duration(i)*137*time.Microsecond, func() {
			d.Send(r.next, r.delay, r.nh, uint64(0))
		})
		if i%2 == 0 {
			d.Schedule(time.Duration(i)*211*time.Microsecond, func() {
				d.Send(c.next, c.delay, c.nh, uint64(0))
			})
		}
	}
}

type shardOutcome struct {
	digests   []uint64
	rounds    uint64
	fallbacks uint64
	fired     uint64
	err       error
}

// runRelayShard replicates the whole scenario on one shard: build,
// distribute, seed, run two window segments with a mid-run reseed.
func runRelayShard(seed int64, n, workers, shard, shards int, tr DomainTransport) shardOutcome {
	x, doms, ring, chord := buildRelayWorld(seed, n, workers)
	if shards > 1 {
		x.Distribute(tr, shard, shards)
	}
	seedRelays(doms, ring, chord)
	if err := x.Run(200 * time.Millisecond); err != nil {
		return shardOutcome{err: err}
	}
	// Driver-time reseed between segments: replicated on every shard,
	// materialized only at owners.
	seedRelays(doms, ring, chord)
	if err := x.Run(500 * time.Millisecond); err != nil {
		return shardOutcome{err: err}
	}
	return shardOutcome{digests: x.DomainDigests(), rounds: x.Rounds(),
		fallbacks: x.Fallbacks(), fired: x.TotalFired()}
}

// mergeDigests selects each domain's digest from its owning shard's
// report and folds the whole-world digest.
func mergeDigests(outcomes []shardOutcome, shards int) uint64 {
	merged := make([]uint64, len(outcomes[0].digests))
	for dom := range merged {
		merged[dom] = outcomes[OwnerShard(int32(dom), shards)].digests[dom]
	}
	return FoldDigests(merged)
}

// TestSocketShardParity runs the identical seeded relay scenario
// in-process and split across three executors (a coordinator and two
// workers) joined by loopback TCP socket transports, and requires the
// merged per-domain schedule digests — and the epoch/fallback counts —
// to be byte-identical.
func TestSocketShardParity(t *testing.T) {
	const (
		seed    = 12345
		n       = 9
		shards  = 3
		timeout = 10 * time.Second
	)
	base := runRelayShard(seed, n, 2, 0, 1, nil)
	if base.err != nil {
		t.Fatalf("in-process run: %v", base.err)
	}
	if base.fired == 0 {
		t.Fatal("scenario fired no events")
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()

	outcomes := make([]shardOutcome, shards)
	var wg sync.WaitGroup
	for s := 1; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			w, payload, err := DialCoordinator(ln.Addr().String(), s, timeout)
			if err != nil {
				outcomes[s] = shardOutcome{err: err}
				return
			}
			defer w.Close()
			if string(payload) != "relay-scenario" {
				outcomes[s] = shardOutcome{err: fmt.Errorf("payload %q", payload)}
				return
			}
			out := runRelayShard(seed, n, 1, s, shards, w)
			if out.err == nil {
				out.err = w.Report(out.digests, nil)
			}
			outcomes[s] = out
		}(s)
	}
	coord, err := AcceptWorkers(ln, shards, []byte("relay-scenario"), timeout)
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	defer coord.Close()
	outcomes[0] = runRelayShard(seed, n, 2, 0, shards, coord)
	if outcomes[0].err != nil {
		t.Fatalf("coordinator run: %v", outcomes[0].err)
	}
	reports, err := coord.Gather()
	if err != nil {
		t.Fatalf("gather: %v", err)
	}
	wg.Wait()
	for s := 1; s < shards; s++ {
		if outcomes[s].err != nil {
			t.Fatalf("worker %d: %v", s, outcomes[s].err)
		}
	}
	// The digests each worker reported over the wire must match what it
	// measured locally.
	for _, r := range reports {
		local := outcomes[r.Shard].digests
		if len(r.Digests) != len(local) {
			t.Fatalf("shard %d reported %d digests, want %d", r.Shard, len(r.Digests), len(local))
		}
		for i := range local {
			if r.Digests[i] != local[i] {
				t.Fatalf("shard %d digest[%d] wire mismatch", r.Shard, i)
			}
		}
	}

	merged := mergeDigests(outcomes, shards)
	want := FoldDigests(base.digests)
	if merged != want {
		t.Fatalf("merged sharded digest %016x != in-process %016x", merged, want)
	}
	// Owned digests must agree with the in-process run domain by domain.
	for dom := range base.digests {
		owner := OwnerShard(int32(dom), shards)
		if got := outcomes[owner].digests[dom]; got != base.digests[dom] {
			t.Fatalf("domain %d (owner shard %d): digest %016x != %016x",
				dom, owner, got, base.digests[dom])
		}
	}
	// Lockstep: every shard took the identical branch sequence. (Epoch
	// counts legitimately differ from the 1-process run — pinned remote
	// promises shorten each granted window — but the shards themselves
	// must agree step for step.)
	for s := 1; s < shards; s++ {
		if outcomes[s].rounds != outcomes[0].rounds || outcomes[s].fallbacks != outcomes[0].fallbacks {
			t.Fatalf("shard %d rounds/fallbacks %d/%d != shard 0 %d/%d",
				s, outcomes[s].rounds, outcomes[s].fallbacks, outcomes[0].rounds, outcomes[0].fallbacks)
		}
	}
}

// dyingTransport simulates a worker process crash: after a fixed number
// of supersteps it slams the connection shut.
type dyingTransport struct {
	*SockWorker
	after int
	calls int
}

func (d *dyingTransport) Exchange(x *Executor) error {
	d.calls++
	if d.calls > d.after {
		d.SockWorker.Close()
		return errors.New("simulated worker death")
	}
	return d.SockWorker.Exchange(x)
}

// TestWorkerDeathSurfacesTypedError kills a worker mid-run and requires
// the coordinator's Executor.Run to return a *TransportError promptly
// (no hang) with the sticky error retrievable from Err().
func TestWorkerDeathSurfacesTypedError(t *testing.T) {
	const (
		seed    = 77
		n       = 6
		shards  = 2
		timeout = 5 * time.Second
	)
	cc, wc := net.Pipe()
	done := make(chan shardOutcome, 1)
	go func() {
		w, _, err := attachWorker(wc, 1, timeout)
		if err != nil {
			done <- shardOutcome{err: err}
			return
		}
		dt := &dyingTransport{SockWorker: w, after: 4}
		done <- runRelayShard(seed, n, 1, 1, shards, dt)
	}()
	coord, err := attachCoordinator([]net.Conn{cc}, nil, timeout)
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	defer coord.Close()

	start := time.Now()
	out := runRelayShard(seed, n, 1, 0, shards, coord)
	if out.err == nil {
		t.Fatal("coordinator Run succeeded despite worker death")
	}
	var te *TransportError
	if !errors.As(out.err, &te) {
		t.Fatalf("coordinator error %T (%v) is not *TransportError", out.err, out.err)
	}
	if te.Shard != 1 {
		t.Fatalf("TransportError.Shard = %d, want 1", te.Shard)
	}
	if elapsed := time.Since(start); elapsed > timeout+2*time.Second {
		t.Fatalf("coordinator took %v to surface the death (deadline %v)", elapsed, timeout)
	}
	wout := <-done
	if wout.err == nil {
		t.Fatal("dying worker reported success")
	}
}

// TestSilentPeerTimesOut covers the hang bound: a worker that
// handshakes and then goes silent must trip the coordinator's read
// deadline, not block forever.
func TestSilentPeerTimesOut(t *testing.T) {
	const timeout = 300 * time.Millisecond
	cc, wc := net.Pipe()
	defer wc.Close()
	go func() {
		// Handshake, then say nothing.
		w, _, err := attachWorker(wc, 1, 5*time.Second)
		if err == nil {
			defer w.Close()
			// Keep the connection open past the coordinator's deadline.
			time.Sleep(5 * timeout)
		}
	}()
	coord, err := attachCoordinator([]net.Conn{cc}, nil, timeout)
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	defer coord.Close()
	start := time.Now()
	out := runRelayShard(99, 4, 1, 0, 2, coord)
	if out.err == nil {
		t.Fatal("coordinator Run succeeded with a silent peer")
	}
	var te *TransportError
	if !errors.As(out.err, &te) {
		t.Fatalf("error %T is not *TransportError", out.err)
	}
	if elapsed := time.Since(start); elapsed > 10*timeout {
		t.Fatalf("timeout took %v, deadline %v", elapsed, timeout)
	}
}

// TestHandshakeDeadline bounds AcceptWorkers when no worker ever
// connects.
func TestHandshakeDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	start := time.Now()
	if _, err := AcceptWorkers(ln, 2, nil, 200*time.Millisecond); err == nil {
		t.Fatal("AcceptWorkers succeeded with no workers")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("handshake deadline took %v", elapsed)
	}
}

// TestNonWireHandlerAcrossShardsIsTypedError pins the contract that
// only wire-capable handlers cross shards: an event-context Send of a
// plain Handler into a remote domain surfaces a typed transport error
// at the next exchange barrier instead of silently losing the message.
func TestNonWireHandlerAcrossShardsIsTypedError(t *testing.T) {
	const timeout = 5 * time.Second
	cc, wc := net.Pipe()
	workerErr := make(chan error, 1)
	go func() {
		w, _, err := attachWorker(wc, 1, timeout)
		if err != nil {
			workerErr <- err
			return
		}
		defer w.Close()
		x := NewExecutor(1, 1)
		a := x.NewDomain("a") // owned by shard 0
		b := x.NewDomain("b") // owned by shard 1
		a.ObserveInboundLink(b, time.Millisecond)
		b.ObserveInboundLink(a, time.Millisecond)
		x.Distribute(w, 1, 2)
		b.Schedule(time.Millisecond, func() {
			b.Send(a, time.Millisecond, handlerFunc(func(any) {}), nil)
		})
		workerErr <- x.Run(100 * time.Millisecond)
	}()
	coord, err := attachCoordinator([]net.Conn{cc}, nil, timeout)
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	defer coord.Close()
	x := NewExecutor(1, 1)
	a := x.NewDomain("a")
	b := x.NewDomain("b")
	a.ObserveInboundLink(b, time.Millisecond)
	b.ObserveInboundLink(a, time.Millisecond)
	x.Distribute(coord, 0, 2)
	b.Schedule(time.Millisecond, func() {
		b.Send(a, time.Millisecond, handlerFunc(func(any) {}), nil)
	})
	cerr := x.Run(100 * time.Millisecond)
	werr := <-workerErr
	if werr == nil {
		t.Fatal("worker Run succeeded despite a cross-shard non-wire handler")
	}
	var te *TransportError
	if !errors.As(werr, &te) {
		t.Fatalf("worker error %T is not *TransportError", werr)
	}
	if !strings.Contains(werr.Error(), "not wire-capable") {
		t.Fatalf("worker error %q does not name the wire-handler contract", werr)
	}
	// The coordinator must fail too (FAIL broadcast or read error), not
	// hang; its exact error depends on timing.
	if cerr == nil {
		t.Fatal("coordinator Run succeeded despite worker abort")
	}
	if x.terr == nil {
		t.Fatal("Executor.terr not sticky after transport failure")
	}
}

// pooledSink is a same-domain typed handler carrying pooled packets —
// the shape of netem's socket and link-arrival handlers: it never
// crosses shards (no codec), but it knows how to give a payload back.
type pooledSink struct{ invoked int }

func (h *pooledSink) Invoke(arg any)  { h.invoked++; arg.(*packet.Packet).Release() }
func (h *pooledSink) DropArg(arg any) { arg.(*packet.Packet).Release() }

// TestReplicaSendReleasesPooledPayload pins the replica drop path for
// handlers that are not WireHandlers: a replicated driver-time Send on a
// domain another shard owns must neither strand an event on the replica's
// never-drained heap nor strand the pooled packet it carries.
func TestReplicaSendReleasesPooledPayload(t *testing.T) {
	x := NewExecutor(1, 1)
	a := x.NewDomain("a") // owned by shard 0
	b := x.NewDomain("b") // owned by shard 1
	a.ObserveInboundLink(b, time.Millisecond)
	b.ObserveInboundLink(a, time.Millisecond)
	x.Distribute(nil, 1, 2)
	base := packet.Stats()
	sink := &pooledSink{}
	a.Send(a, time.Millisecond, sink, packet.Get()) // replica, same-domain
	a.Send(b, time.Millisecond, sink, packet.Get()) // replica, cross-domain
	if d := packet.Stats().Sub(base); d.Gets != 2 || d.InFlight() != 0 {
		t.Fatalf("replica sends stranded their payloads: %+v", d)
	}
	if x.pending() != 0 {
		t.Fatalf("replica sends left %d events pending", x.pending())
	}
	// The owner's copy of the same code is the authentic one.
	b.Send(b, time.Millisecond, sink, packet.Get())
	if err := x.Run(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if sink.invoked != 1 || packet.Stats().Sub(base).InFlight() != 0 {
		t.Fatalf("owner send: invoked=%d ledger=%+v", sink.invoked, packet.Stats().Sub(base))
	}
}

// peerOwnsAll stands in for the peer shard that owns every node domain:
// it agrees on node work due within the window for busy supersteps,
// then on none.
type peerOwnsAll struct{ busy int }

func (p *peerOwnsAll) Exchange(*Executor) error { return nil }

func (p *peerOwnsAll) Agree(*Executor, Vote) (Decision, error) {
	if p.busy == 0 {
		return Decision{NodeNext: maxTime}, nil
	}
	p.busy--
	return Decision{NodeNext: time.Millisecond}, nil
}

// TestShardOwningNoDomainFinishesEpochs: a shard whose node domains are
// all replicas, with workers to spare, still takes part in every epoch
// its peers agree on — with nothing to run — and returns at the end of
// the window.
func TestShardOwningNoDomainFinishesEpochs(t *testing.T) {
	x := NewExecutor(1, 4)
	x.NewDomain("a") // owned by shard 0
	x.Distribute(&peerOwnsAll{busy: 3}, 1, 2)
	if err := x.Run(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if x.Rounds() != 3 {
		t.Fatalf("%d epochs, want the 3 the peer agreed on", x.Rounds())
	}
}

// TestOwnerShard pins the domain->shard dealing.
func TestOwnerShard(t *testing.T) {
	if OwnerShard(0, 4) != 0 {
		t.Fatal("control domain must be owned everywhere (shard 0 semantics)")
	}
	if OwnerShard(5, 1) != 0 {
		t.Fatal("single shard owns everything")
	}
	counts := make(map[int]int)
	for dom := int32(1); dom <= 12; dom++ {
		counts[OwnerShard(dom, 3)]++
	}
	if counts[0] != 4 || counts[1] != 4 || counts[2] != 4 {
		t.Fatalf("round-robin dealing unbalanced: %v", counts)
	}
}

// attachCoordinator builds a coordinator transport over pre-established
// connections (in-process pipes here): conns[i] must be the connection to
// shard i+1.
func attachCoordinator(conns []net.Conn, payload []byte, timeout time.Duration) (*SockCoordinator, error) {
	shards := len(conns) + 1
	t := &SockCoordinator{shards: shards, timeout: timeout,
		peers:  make([]*shardConn, shards),
		outbox: make([][]wireMsg, shards)}
	for _, c := range conns {
		if err := t.admit(newShardConn(c), payload); err != nil {
			t.Close()
			return nil, err
		}
	}
	return t, nil
}
