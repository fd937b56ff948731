package telemetry

import (
	"time"

	"vini/internal/sim"
)

// EventKind classifies flight-recorder events.
type EventKind uint8

// Flight-recorder event kinds.
const (
	EvPacket   EventKind = 1 + iota // a traced packet visited an element/hop
	EvNeighbor                      // OSPF neighbor FSM transition
	EvRoute                         // protocol route install into the RIB
	EvLink                          // physical or virtual link state change
	EvSession                       // BGP session event / RIP advertisement
	evMark                          // free-form experiment marker
	EvRate                          // adaptive-workload rate/detector update
)

func (k EventKind) String() string {
	switch k {
	case EvPacket:
		return "packet"
	case EvNeighbor:
		return "neighbor"
	case EvRoute:
		return "route"
	case EvLink:
		return "link"
	case EvSession:
		return "session"
	case evMark:
		return "mark"
	case EvRate:
		return "rate"
	default:
		return "unknown"
	}
}

// Event is one flight-recorder entry. (At, Dom, Seq) is the same merge
// key the parallel executor orders events by: At is the recording
// domain's sim-time, Dom its id, Seq the ring's monotonic sequence.
// Merging every ring by this key yields one total order that is
// byte-identical for any worker count.
type Event struct {
	At     time.Duration `json:"at"`
	Dom    int32         `json:"dom"`
	Seq    uint64        `json:"seq"`
	Kind   EventKind     `json:"kind"`
	Slice  string        `json:"slice,omitempty"`
	Node   string        `json:"node,omitempty"`
	Elem   string        `json:"elem,omitempty"`
	Detail string        `json:"detail,omitempty"`
	Value  int64         `json:"value,omitempty"`
}

// ring is one domain's bounded event buffer. It is written only by the
// code running inside that domain (single-threaded by the executor)
// and read only at barriers, so it needs no locking.
type ring struct {
	buf  []Event
	next uint64 // total events ever recorded; seq source
}

// defaultFlightCap is the per-domain ring capacity.
const defaultFlightCap = 4096

// Recorder is the deterministic flight recorder: one bounded ring per
// time domain. Callers pass the domain they are executing in; the
// entry is stamped with that domain's current sim-time and a
// per-domain sequence number. When a ring overflows, the oldest
// entries are overwritten (deterministically — overflow depends only
// on the event sequence).
type Recorder struct {
	cap   int
	rings []*ring
}

// newRecorder returns a recorder whose rings hold capPerDomain events
// each (defaultFlightCap if <= 0). Rings are added via EnsureDomain.
func newRecorder(capPerDomain int) *Recorder {
	if capPerDomain <= 0 {
		capPerDomain = defaultFlightCap
	}
	return &Recorder{cap: capPerDomain}
}

// EnsureDomain sizes the ring table to cover domain id. Must be called
// from the driver (domain creation time), never concurrently with
// recording workers.
func (r *Recorder) EnsureDomain(id int32) {
	if r == nil {
		return
	}
	for int(id) >= len(r.rings) {
		r.rings = append(r.rings, &ring{buf: make([]Event, r.cap)})
	}
}

// Record appends an event to the ring of the domain d is executing in,
// stamping At/Dom/Seq. Zero allocations: the ring slot is reused and
// string fields must be static or pre-built at wiring time.
func (r *Recorder) Record(d *sim.Domain, ev Event) {
	if r == nil || d == nil {
		return
	}
	id := int(d.ID())
	if id >= len(r.rings) {
		return
	}
	rg := r.rings[id]
	ev.At = d.Now()
	ev.Dom = d.ID()
	ev.Seq = rg.next
	rg.buf[rg.next%uint64(len(rg.buf))] = ev
	rg.next++
}

// dropped reports how many events were overwritten across all rings.
func (r *Recorder) dropped() uint64 {
	if r == nil {
		return 0
	}
	var n uint64
	for _, rg := range r.rings {
		if rg.next > uint64(len(rg.buf)) {
			n += rg.next - uint64(len(rg.buf))
		}
	}
	return n
}

// Events merges every ring, oldest first, into one slice ordered by
// the merge key (At, Dom, Seq). Call only at a barrier (no domain
// executing).
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	var out []Event
	for _, rg := range r.rings {
		n := rg.next
		cap64 := uint64(len(rg.buf))
		start := uint64(0)
		count := n
		if n > cap64 {
			start = n % cap64
			count = cap64
		}
		for i := uint64(0); i < count; i++ {
			out = append(out, rg.buf[(start+i)%cap64])
		}
	}
	sortEvents(out)
	return out
}

// Digest folds the merged event stream — stamps, kinds, labels and
// values — into one FNV-1a word. The worker-parity property asserts
// this digest is identical for 1 and N workers.
func (r *Recorder) Digest() uint64 {
	h := uint64(fnvOffset)
	for _, ev := range r.Events() {
		h = fnvFold(h, uint64(ev.At))
		h = fnvFold(h, uint64(uint32(ev.Dom)))
		h = fnvFold(h, ev.Seq)
		h = fnvFold(h, uint64(ev.Kind))
		h = fnvString(h, ev.Slice)
		h = fnvString(h, ev.Node)
		h = fnvString(h, ev.Elem)
		h = fnvString(h, ev.Detail)
		h = fnvFold(h, uint64(ev.Value))
	}
	return h
}
