package core

// Telemetry wiring: EnableTelemetry activates the deterministic
// metrics registry and flight recorder for one infrastructure. All
// registration happens at driver time (node/link/slice construction),
// so the registry's snapshot order is fixed by the build sequence and
// identical for any worker count; runtime publication is sharded — a
// counter or ring is written only from the domain that owns it.

import (
	"vini/internal/netem"
	"vini/internal/packet"
	"vini/internal/telemetry"
)

// EnableTelemetry activates telemetry for this infrastructure and
// returns the bundle. Call right after New/NewParallel, before the
// first Run; nodes, links, and slices added later are instrumented as
// they are created. Idempotent.
func (v *VINI) EnableTelemetry() *telemetry.Telemetry {
	if v.tel != nil {
		return v.tel
	}
	v.tel = telemetry.New(0)
	for _, d := range v.loop.Executor().Domains() {
		v.tel.Rec.EnsureDomain(d.ID())
	}
	for _, name := range v.Net.Nodes() {
		v.instrumentNode(v.Net.MustNode(name))
	}
	for _, l := range v.Net.Links() {
		v.instrumentLink(l)
	}
	// Physical link transitions. FailLink/RestoreLink run on the
	// control timeline (driver calls or loop-scheduled actions), so the
	// control ring is the single writer.
	v.Net.OnLinkEvent(func(ev netem.LinkEvent) {
		detail := "up"
		if ev.Down {
			detail = "down"
		}
		v.tel.Rec.Record(v.loop.Domain, telemetry.Event{
			Kind:   telemetry.EvLink,
			Slice:  "phys",
			Elem:   ev.A + "-" + ev.B,
			Detail: detail,
		})
	})
	// Substrate packet hops: trace painted packets only — unmarked
	// traffic costs one integer comparison, and the hook runs in the
	// domain the hop happens in, so the ring write is single-writer.
	v.Net.OnPacket(func(n *netem.Node, event string, p *packet.Packet) {
		if p.Anno.Paint != telemetry.TracePaint {
			return
		}
		v.tel.Rec.Record(n.Domain(), telemetry.Event{
			Kind:  telemetry.EvPacket,
			Slice: "phys",
			Node:  n.Name(),
			Elem:  event,
			Value: int64(p.Len()),
		})
	})
	return v.tel
}

// Telemetry returns the active bundle (nil until EnableTelemetry).
func (v *VINI) Telemetry() *telemetry.Telemetry { return v.tel }

// ExecutorProfile reports the per-domain stall/horizon profile of the
// coordinating executor. Driver-time only.
func (v *VINI) ExecutorProfile() telemetry.ExecutorProfile {
	return telemetry.ProfileExecutor(v.loop.Executor())
}

// instrumentNode attaches substrate-level counters for one physical
// node under the reserved "phys" slice label.
func (v *VINI) instrumentNode(n *netem.Node) {
	v.tel.Rec.EnsureDomain(n.Domain().ID())
	sc := v.tel.Reg.Scope("phys", n.Name())
	n.Instrument(sc.Counter("kernel/cpu_ns"), sc.Counter("kernel/drops"))
	n.CPU.Instrument(sc.Counter("cpu/busy_ns"))
}

// instrumentLink attaches per-direction counters for one physical
// link, each owned by the transmitting node's domain.
func (v *VINI) instrumentLink(l *netem.Link) {
	cfg := l.Config()
	ab := v.tel.Reg.Scope("phys", cfg.A).With("link/" + cfg.B + "/")
	ba := v.tel.Reg.Scope("phys", cfg.B).With("link/" + cfg.A + "/")
	l.Instrument(0, ab.Counter("packets"), ab.Counter("bytes"), ab.Counter("drops"))
	l.Instrument(1, ba.Counter("packets"), ba.Counter("bytes"), ba.Counter("drops"))
}
