package telemetry

import (
	"encoding/json"
	"time"

	"vini/internal/sim"
)

// TracePaint is the packet.Anno.Paint sentinel that marks a packet for
// hop-by-hop path tracing. Instrumented forwarding paths compare Paint
// against this value and record an EvPacket hop on match; unmarked
// packets cost one integer comparison.
const TracePaint = 0x7e1e

// PacketPath extracts the traced-packet hops from a merged event
// stream, in travel order (the merge key is the travel order: each hop
// happens at a later sim-time, or in a later domain at the same time).
func PacketPath(events []Event) []Event {
	var out []Event
	for _, ev := range events {
		if ev.Kind == EvPacket {
			out = append(out, ev)
		}
	}
	return out
}

// Convergence describes routing convergence after one link event: the
// failure (or restore) instant, the last route install attributable to
// it, and the derived convergence time. Installs counts route installs
// inside the window.
type Convergence struct {
	Link     string        `json:"link"`
	Down     bool          `json:"down"`
	At       time.Duration `json:"at"`
	LastTime time.Duration `json:"last_install"`
	Duration time.Duration `json:"duration"`
	Installs int           `json:"installs"`
}

// Convergences derives convergence-after-link-event windows from a
// merged event stream: each EvLink event opens a window that closes at
// the next EvLink event (or end of trace); the last EvRoute install in
// the window marks convergence. Windows with no installs report zero
// duration (the event did not perturb routing, or telemetry started
// after convergence).
func Convergences(events []Event) []Convergence {
	var out []Convergence
	for i, ev := range events {
		if ev.Kind != EvLink {
			continue
		}
		c := Convergence{Link: ev.Elem, Down: ev.Detail == "down", At: ev.At, LastTime: ev.At}
		for _, e2 := range events[i+1:] {
			if e2.Kind == EvLink {
				break
			}
			if e2.Kind == EvRoute {
				c.Installs++
				c.LastTime = e2.At
			}
		}
		c.Duration = c.LastTime - c.At
		out = append(out, c)
	}
	return out
}

// DomainProfile is one time domain's executor-level profile: where its
// clock stopped, its conservative lookahead, and its scheduling
// counters (stalls are rounds where work was pending but beyond the
// safe horizon).
type DomainProfile struct {
	ID        int32         `json:"id"`
	Label     string        `json:"label"`
	Now       time.Duration `json:"now"`
	Lookahead time.Duration `json:"lookahead"`
	Fired     uint64        `json:"fired"`
	Scheduled uint64        `json:"scheduled"`
	Sent      uint64        `json:"sent"`
	Delivered uint64        `json:"delivered"`
	Stalls    uint64        `json:"stalls"`
	Trains    uint64        `json:"trains,omitempty"`
	TrainMsgs uint64        `json:"train_msgs,omitempty"`
}

// ExecutorProfile aggregates the per-domain profiles with the round
// structure of the conservative-lookahead executor.
type ExecutorProfile struct {
	Workers   int    `json:"workers"`
	Rounds    uint64 `json:"rounds"`
	Fallbacks uint64 `json:"fallbacks"`
	// Windows counts domain execution windows (a domain picked up by a
	// worker and run to its horizon); Trains/TrainMsgs the flushed
	// cross-domain message batches; Deliveries the typed messages
	// delivered. Parks and ParkTime describe how often and how long
	// workers waited on an empty run queue and are wall-clock/interleaving
	// dependent — diagnostic only, never part of any parity digest.
	Windows    uint64          `json:"windows"`
	Trains     uint64          `json:"trains"`
	TrainMsgs  uint64          `json:"train_msgs"`
	Deliveries uint64          `json:"deliveries"`
	Parks      uint64          `json:"parks"`
	ParkTime   time.Duration   `json:"park_time"`
	Domains    []DomainProfile `json:"domains"`
}

// ProfileExecutor builds the per-domain stall/horizon profile from the
// coordinating executor. Driver-time only (reads domain clocks). Unlike
// the registry snapshot and flight digest, the profile is diagnostic:
// stall counts describe the executor's rounds, not the simulation, and
// are not part of the worker-parity contract.
func ProfileExecutor(x *sim.Executor) ExecutorProfile {
	p := ExecutorProfile{
		Workers:    x.Workers(),
		Rounds:     x.Rounds(),
		Fallbacks:  x.Fallbacks(),
		Windows:    x.Windows(),
		Deliveries: x.Deliveries(),
		Parks:      x.Parks(),
		ParkTime:   x.ParkTime(),
	}
	p.Trains, p.TrainMsgs = x.TrainStats()
	for _, d := range x.Domains() {
		s := d.Stats()
		p.Domains = append(p.Domains, DomainProfile{
			ID:        s.ID,
			Label:     s.Label,
			Now:       d.Now(),
			Lookahead: d.Lookahead(),
			Fired:     s.Fired,
			Scheduled: s.Scheduled,
			Sent:      s.Sent,
			Delivered: s.Delivered,
			Stalls:    s.Stalls,
			Trains:    s.Trains,
			TrainMsgs: s.TrainMsgs,
		})
	}
	return p
}

// Snapshot is the full telemetry export: metrics, flight-recorder
// events, their digests, and derived views. Marshalled by vinibench
// -exp and compared byte-for-byte by the worker-parity property.
type Snapshot struct {
	Metrics       []MetricValue `json:"metrics"`
	Events        []Event       `json:"events"`
	Dropped       uint64        `json:"dropped_events,omitempty"`
	MetricsDigest uint64        `json:"metrics_digest"`
	FlightDigest  uint64        `json:"flight_digest"`
	Convergences  []Convergence `json:"convergences,omitempty"`
}

// Telemetry bundles the registry and flight recorder one VINI instance
// publishes into.
type Telemetry struct {
	Reg *Registry
	Rec *Recorder
}

// New returns a telemetry bundle with an empty registry and a flight
// recorder of the given per-domain capacity (<= 0 for the default).
func New(flightCap int) *Telemetry {
	return &Telemetry{Reg: NewRegistry(), Rec: newRecorder(flightCap)}
}

// Snapshot captures the deterministic telemetry state. Call at a
// barrier (driver context).
func (t *Telemetry) Snapshot() Snapshot {
	if t == nil {
		return Snapshot{}
	}
	evs := t.Rec.Events()
	return Snapshot{
		Metrics:       t.Reg.snapshot(),
		Events:        evs,
		Dropped:       t.Rec.dropped(),
		MetricsDigest: t.Reg.Digest(),
		FlightDigest:  t.Rec.Digest(),
		Convergences:  Convergences(evs),
	}
}

// SnapshotJSON marshals the snapshot with stable field order.
func (t *Telemetry) SnapshotJSON() ([]byte, error) {
	return json.MarshalIndent(t.Snapshot(), "", "  ")
}
