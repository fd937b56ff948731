// Package vini is the public API of this VINI implementation — a virtual
// network infrastructure in the design of "In VINI Veritas: Realistic and
// Controlled Network Experimentation" (Bavier, Feamster, Huang, Peterson,
// Rexford; SIGCOMM 2006).
//
// VINI embeds experiment "slices" onto a shared physical substrate. Each
// slice gets its own virtual topology of UDP-tunnel links, a Click-style
// user-space forwarding plane per virtual node, XORP-role routing
// processes (OSPF, RIP, BGP) configuring the forwarding tables through a
// forwarding-engine abstraction, controlled failure injection inside the
// data plane, and resource guarantees (CPU reservations and real-time
// priority) on the hosting nodes. Real traffic enters via tap devices,
// an OpenVPN-style opt-in ingress, and leaves through NAT egress.
//
// Quick start:
//
//	nodes := []string{"a", "b"}
//	links := []topology.Link{{A: "a", B: "b", CostAB: 10, Bandwidth: 1e9, Delay: 5 * time.Millisecond}}
//	v := vini.New(1)
//	v.AddTopology(nodes, links, vini.PlanetLabProfile(), func(i int, _ string) netip.Addr {
//		return netip.AddrFrom4([4]byte{198, 51, 100, byte(i + 1)})
//	})
//	s, _ := v.CreateSlice(vini.SliceConfig{Name: "demo", CPUShare: 0.25, RT: true})
//	s.Mirror(nodes, links, nil)
//	s.StartOSPF(5*time.Second, 10*time.Second)
//	v.Run(60 * time.Second)
//
// The deeper subsystems are importable directly for advanced use:
// vini/internal is visible to programs inside this module (examples/ and
// cmd/ demonstrate both levels).
package vini

import (
	"net/netip"
	"time"

	"vini/internal/core"
	"vini/internal/experiment"
	"vini/internal/netem"
	"vini/internal/sched"
	"vini/internal/topology"
)

// Re-exported construction types.
type (
	// VINI is one infrastructure deployment (see internal/core).
	VINI = core.VINI
	// Slice is one embedded experiment.
	Slice = core.Slice
	// VirtualNode is a slice's IIAS router on one physical node.
	VirtualNode = core.VirtualNode
	// VirtualLink is one UDP-tunnel virtual link.
	VirtualLink = core.VirtualLink
	// SliceConfig carries the PL-VINI resource knobs.
	SliceConfig = core.SliceConfig
	// LinkAlarm is the upcall for underlying topology changes.
	LinkAlarm = core.LinkAlarm
	// VPNClient is an opted-in end host.
	VPNClient = core.VPNClient
	// LinkConfig describes a physical link.
	LinkConfig = netem.LinkConfig
	// Profile is the host CPU/cost model.
	Profile = netem.Profile
	// SchedOptions configures a node's CPU scheduler.
	SchedOptions = sched.Options
	// Spec is a parsed ns-like experiment specification.
	Spec = experiment.Spec
)

// New creates an infrastructure whose event schedule is a function of
// seed alone (core.New: one worker of the time-domain executor).
func New(seed int64) *VINI { return core.New(seed) }

// DETERProfile is the dedicated-testbed host model (2.8 GHz Xeon).
func DETERProfile() Profile { return netem.DETERProfile() }

// PlanetLabProfile is the shared-testbed host model (1.2-1.4 GHz P-III).
func PlanetLabProfile() Profile { return netem.PlanetLabProfile() }

// NewVPNClient attaches an OpenVPN-style client process to an end host.
func NewVPNClient(v *VINI, node string, overlayAddr netip.Addr, key []byte,
	server netip.AddrPort, capture []netip.Prefix) (*VPNClient, error) {
	return core.NewVPNClient(v, node, overlayAddr, key, server, capture)
}

// Abilene returns the 11-PoP Abilene backbone with its published OSPF
// weights and calibrated delays — the topology the paper mirrors.
func Abilene() *topology.Graph { return topology.Abilene() }

// AbilenePublicAddr returns the tunnel-endpoint address of the node
// co-located at an Abilene PoP.
func AbilenePublicAddr(pop string) (string, bool) {
	return topology.AbilenePublicAddr(pop)
}

// ParseSpec reads an ns-like experiment specification (Section 6.2 of
// the paper); run it with Spec.Run.
func ParseSpec(text string) (*Spec, error) { return experiment.ParseSpec(text) }

// BuildAbilene constructs a VINI whose physical substrate is the Abilene
// backbone, each PoP hosting one node with the given profile.
func BuildAbilene(seed int64, prof Profile) (*VINI, error) {
	v := New(seed)
	g := topology.Abilene()
	err := v.AddTopology(g.Nodes(), g.Links(), prof, func(_ int, pop string) netip.Addr {
		addr, _ := topology.AbilenePublicAddr(pop)
		return netip.MustParseAddr(addr)
	})
	return v, err
}

// MirrorAbilene embeds a slice that mirrors the Abilene topology
// one-to-one with the real OSPF costs, as the paper's Section 5.2
// experiment does, and starts OSPF with the given timers.
func MirrorAbilene(v *VINI, cfg SliceConfig, hello, dead time.Duration) (*Slice, error) {
	s, err := v.CreateSlice(cfg)
	if err != nil {
		return nil, err
	}
	g := topology.Abilene()
	if err := s.Mirror(g.Nodes(), g.Links(), nil); err != nil {
		return nil, err
	}
	s.StartOSPF(hello, dead)
	return s, nil
}
