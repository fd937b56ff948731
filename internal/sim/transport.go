package sim

import (
	"fmt"
	"time"
)

// EventKey is the deterministic merge key of one event: timestamp,
// origin domain id, origin sequence number. Keys are globally unique
// and totally ordered; they are what crosses process boundaries in
// votes and shipped messages, so a sharded run merges every event into
// exactly the slot a single shared heap would have used.
type EventKey struct {
	At  time.Duration
	Dom int32
	Seq uint64
}

// keyLess orders EventKeys by the merge order (at, dom, seq) — the same
// order less() applies to in-heap events.
func keyLess(a, b EventKey) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Dom != b.Dom {
		return a.Dom < b.Dom
	}
	return a.Seq < b.Seq
}

// Vote is one shard's contribution to an agreement point: the merge key
// of its earliest pending owned node event (At == maxTime when it has
// none), plus how much progress the previous epoch made locally. The
// coordinator needs the deltas from every shard to decide whether the
// whole system is stuck on a zero-lookahead cycle (fallback) or merely
// this shard's share of it went idle.
type Vote struct {
	Key      EventKey
	Delta    uint64 // events consumed by the last epoch on this shard
	EpochRan bool   // whether the previous loop iteration ran an epoch
}

// Decision is the agreed outcome every shard derives its next step
// from. All shards receive the identical Decision, and every branch the
// coordinator loop takes afterwards is a pure function of the Decision
// plus replicated control-domain state — which is what keeps the
// processes in lockstep without any further coordination.
type Decision struct {
	// NodeNext is the globally earliest pending node-event time across
	// all shards (maxTime when no node work remains).
	NodeNext time.Duration
	// Fallback is set when the previous epoch ran everywhere and made no
	// progress anywhere: the shard owning FallbackKey must run exactly
	// that one event sequentially.
	Fallback    bool
	FallbackKey EventKey
}

// DomainTransport is the seam between the executor's superstep loop and
// the mechanism that moves cross-domain traffic and agreement between
// shards. The in-process implementation is a no-op pass-through; the
// socket implementation ships typed message trains, votes, and
// decisions over length-prefixed frames.
//
// The executor calls Exchange then Agree exactly once per loop
// iteration, in that order, always from the coordinator goroutine (no
// workers are active at either call).
type DomainTransport interface {
	// Exchange moves cross-shard messages: it drains every replica
	// domain's inbox (messages this shard generated for domains owned
	// elsewhere), ships them to their owners, and injects the messages
	// other shards generated for domains owned here.
	Exchange(x *Executor) error
	// Agree combines this shard's vote with every other shard's and
	// returns the common Decision.
	Agree(x *Executor, v Vote) (Decision, error)
}

// TransportError is the typed failure surfaced by Executor.Run when a
// shard peer dies, times out, or desynchronizes mid-run. Op names the
// protocol step that failed; Shard is the peer (or the local shard for
// encode/collect failures).
type TransportError struct {
	Shard int
	Op    string
	Err   error
}

func (e *TransportError) Error() string {
	return fmt.Sprintf("sim: transport failure (shard %d, %s): %v", e.Shard, e.Op, e.Err)
}

func (e *TransportError) Unwrap() error { return e.Err }

// WireHandler is a Handler whose payloads can cross process boundaries.
// Cross-shard typed messages are encoded by the sending shard and
// decoded by the owner; handlers must be registered (Executor.BindWire)
// in identical order on every shard so handler ids agree.
type WireHandler interface {
	Handler
	// EncodeArg appends the wire form of arg to dst and returns the
	// extended slice.
	EncodeArg(dst []byte, arg any) []byte
	// DecodeArg reconstructs an argument from its wire form. It must
	// never panic on malformed input.
	DecodeArg(b []byte) (any, error)
	// DropArg releases any pooled resources held by arg. Called for the
	// local copy of every shipped message and for replicated messages
	// that are dropped rather than shipped, so resource ledgers stay
	// balanced.
	DropArg(arg any)
}

// wireMsg is one typed cross-shard message in transit: the destination
// domain, the full merge key assigned by the sender, the bound handler
// id, and the encoded argument.
type wireMsg struct {
	DstDom int32
	At     time.Duration
	Dom    int32
	Seq    uint64
	HID    uint32
	Arg    []byte
}

// inprocTransport is the single-process fast path: no replica domains
// exist, so Exchange has nothing to move, and Agree's decision is a
// pure function of the local vote. Both are allocation-free.
type inprocTransport struct{}

func (inprocTransport) Exchange(x *Executor) error { return nil }

func (inprocTransport) Agree(x *Executor, v Vote) (Decision, error) {
	return Decision{
		NodeNext:    v.Key.At,
		Fallback:    v.EpochRan && v.Delta == 0,
		FallbackKey: v.Key,
	}, nil
}

// OwnerShard maps a domain id onto the shard that executes it. The
// control domain (id 0) is replicated: every shard executes it
// identically, so it is "owned" everywhere and never crosses the wire.
// Node domains are dealt round-robin by creation order.
func OwnerShard(dom int32, shards int) int {
	if dom <= 0 || shards <= 1 {
		return 0
	}
	return int((dom - 1) % int32(shards))
}

// Distribute marks this executor as shard `shard` of `shards`: node
// domains owned by other shards become inert replicas (their events are
// executed by their owner; the local copies exist only so replicated
// construction and control code can hold identical references), and
// cross-shard traffic flows through t at every superstep. Must be
// called before the first Run. Domains created afterwards inherit the
// sharding.
func (x *Executor) Distribute(t DomainTransport, shard, shards int) {
	if x.started {
		panic("sim: Distribute after Run")
	}
	if shards < 1 || shard < 0 || shard >= shards {
		panic("sim: Distribute with invalid shard/shards")
	}
	if t == nil {
		t = inprocTransport{}
	}
	x.transport = t
	x.shard, x.shards = shard, shards
	for _, d := range x.domains[1:] {
		d.remote = OwnerShard(d.id, shards) != shard
	}
}

// BindWire registers h for cross-shard transit and returns its handler
// id. Ids are assigned sequentially in registration order; replicated
// world construction guarantees every shard assigns the same id to the
// same logical handler. Idempotent per handler.
func (x *Executor) BindWire(h WireHandler) uint32 {
	if x.wireIDs == nil {
		x.wireIDs = make(map[WireHandler]uint32)
	}
	if id, ok := x.wireIDs[h]; ok {
		return id
	}
	id := uint32(len(x.wireHandlers))
	x.wireHandlers = append(x.wireHandlers, h)
	x.wireIDs[h] = id
	return id
}

// collectRemote drains every replica domain's pending input into
// encoded wire messages appended to out. Two cases:
//
//   - messages originated by an owned node domain: the authentic copy —
//     encode and ship to the destination's owner (the local pooled
//     argument is released).
//   - messages originated by the control domain: control is replicated,
//     so the destination's owner generated its own identical copy
//     locally; drop ours (releasing the argument).
//
// Barrier context only (called from the transport's Exchange).
func (x *Executor) collectRemote(out []wireMsg) ([]wireMsg, error) {
	for _, d := range x.domains {
		if !d.remote {
			continue
		}
		d.inMu.Lock()
		if len(d.tin) == 0 {
			d.inMu.Unlock()
			continue
		}
		tmsgs := d.tin
		d.tin = d.tspare[:0]
		d.inboxMin.Store(int64(maxTime))
		d.inMu.Unlock()
		for i := range tmsgs {
			m := &tmsgs[i]
			wh, ok := m.h.(WireHandler)
			if !ok {
				return out, fmt.Errorf("sim: handler %T into remote domain %d (%s) is not wire-capable", m.h, d.id, d.label)
			}
			if m.dom != 0 {
				id, bound := x.wireIDs[wh]
				if !bound {
					return out, fmt.Errorf("sim: handler %T into remote domain %d (%s) not registered with BindWire", m.h, d.id, d.label)
				}
				out = append(out, wireMsg{
					DstDom: d.id, At: m.at, Dom: m.dom, Seq: m.seq,
					HID: id, Arg: wh.EncodeArg(nil, m.arg),
				})
			}
			wh.DropArg(m.arg)
			m.h, m.arg = nil, nil
		}
		d.tspare = tmsgs[:0]
	}
	return out, nil
}

// injectWire materializes a message received from another shard into
// its owned destination domain's typed inbox. Barrier context only.
func (x *Executor) injectWire(m wireMsg) error {
	if int(m.HID) >= len(x.wireHandlers) {
		return fmt.Errorf("sim: wire message with unknown handler id %d", m.HID)
	}
	if m.DstDom <= 0 || int(m.DstDom) >= len(x.domains) {
		return fmt.Errorf("sim: wire message for unknown domain %d", m.DstDom)
	}
	d := x.domains[m.DstDom]
	if d.remote {
		return fmt.Errorf("sim: wire message misrouted to replica domain %d (%s)", d.id, d.label)
	}
	h := x.wireHandlers[m.HID]
	arg, err := h.DecodeArg(m.Arg)
	if err != nil {
		return fmt.Errorf("sim: wire decode for domain %d handler %d: %w", m.DstDom, m.HID, err)
	}
	d.inMu.Lock()
	d.tin = append(d.tin, tmsg{at: m.At, dom: m.Dom, seq: m.Seq, h: h, arg: arg})
	if int64(m.At) < d.inboxMin.Load() {
		d.inboxMin.Store(int64(m.At))
	}
	d.inMu.Unlock()
	return nil
}

// localMinKey returns the merge key of the earliest pending event over
// owned node domains (At == maxTime when none). Inboxes must already be
// drained: after deliverAll every pending event sits in a heap.
func (x *Executor) localMinKey() EventKey {
	k := EventKey{At: maxTime}
	for _, d := range x.domains[1:] {
		if d.remote || len(d.heap) == 0 {
			continue
		}
		ev := d.heap[0]
		ek := EventKey{At: ev.at, Dom: ev.dom, Seq: ev.seq}
		if keyLess(ek, k) {
			k = ek
		}
	}
	return k
}

// stepLocalKey runs the event with merge key k if an owned domain holds
// it at its heap head. On shards that do not own k's event it is a
// no-op — exactly one shard steps per fallback round.
func (x *Executor) stepLocalKey(k EventKey) bool {
	for _, d := range x.domains[1:] {
		if d.remote || len(d.heap) == 0 {
			continue
		}
		ev := d.heap[0]
		if ev.at == k.At && ev.dom == k.Dom && ev.seq == k.Seq {
			d.step()
			return true
		}
	}
	return false
}

// fail records a sticky transport error and stops the run.
func (x *Executor) fail(err error) error {
	x.terr = err
	x.stopped.Store(true)
	return err
}

// DomainDigests snapshots every domain's fired-event digest in domain-id
// order (control first). In a sharded run only owned entries are
// authoritative; FoldDigests over the owner-selected vector equals the
// single-process ScheduleDigest.
func (x *Executor) DomainDigests() []uint64 {
	out := make([]uint64, len(x.domains))
	for i, d := range x.domains {
		out[i] = d.digest
	}
	return out
}

// FoldDigests folds per-domain digests in id order exactly as
// Executor.ScheduleDigest does, so a coordinator can merge shard
// reports into the whole-world digest.
func FoldDigests(digests []uint64) uint64 {
	h := fnvOffset
	for _, d := range digests {
		h = (h ^ d) * fnvPrime
	}
	return h
}
