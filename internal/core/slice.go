package core

import (
	"fmt"
	"net/netip"
	"time"

	"vini/internal/netem"
	"vini/internal/ospf"
	"vini/internal/sim"
	"vini/internal/telemetry"
	"vini/internal/topology"
)

// Slice is one experiment: a set of virtual nodes joined by virtual
// links (UDP tunnels), with its own addresses, ports, forwarding tables,
// and routing processes.
type Slice struct {
	vini *VINI
	cfg  SliceConfig
	id   int
	// prefix is the slice's allocated address block; addrBase is its
	// network address as a uint32 and half its midpoint: taps live in
	// [base+1, base+half), /30 link subnets in [base+half, base+2*half).
	prefix   netip.Prefix
	addrBase uint32
	half     uint32
	// ports is the allocated tunnel port span; basePort (== ports.Lo)
	// stays a field because the encap hot path reads it per packet.
	ports    PortRange
	basePort uint16
	// natPorts is the NAT egress span, allocated lazily by the first
	// EnableEgress on the slice.
	natPorts PortRange
	vnodes   map[string]*VirtualNode
	vorder   []string
	vlinks   []*VirtualLink
	nextHost int // tap address allocator
	nextNet  int // /30 subnet allocator
	// state is the lifecycle position; prevState remembers what Pause
	// interrupted so Resume can restore it.
	state     SliceState
	prevState SliceState
	// res is the resource ledger teardown drains in reverse order.
	res ledger
	// ctl tracks control-domain timers the slice owns (staggered
	// StartOSPF closures, migration cutover/retire); Destroy cancels
	// them as a group.
	ctl *sim.TimerGroup
	// mig is the in-flight make-before-break migration, nil otherwise
	// (one at a time per slice). Written only at control-domain
	// barriers; the per-packet double-delivery branch reads it.
	mig *Migration
	// SPFDelay overrides the OSPF SPF batching delay (default 100ms;
	// production routers use ~1s, which widens the transient-forwarding
	// windows Figure 8's 110ms/87ms samples fall into). Set before
	// StartOSPF.
	SPFDelay time.Duration
	// onAlarm receives physical-failure upcalls.
	onAlarm func(LinkAlarm)
}

// VirtualLink is one virtual point-to-point link (a UDP tunnel pair).
type VirtualLink struct {
	A, B     *VirtualNode
	AIf, BIf int
	Cost     uint32
	// name labels the link in telemetry events ("a-b", endpoint
	// physical names), prebuilt so SetFailed does not allocate.
	name string
	// path pins the physical shortest path the tunnel was embedded
	// onto (the substrate masks failures along it until ReEmbed moves
	// the link to a live path).
	path []string
	// injected is the experiment-requested failure (SetFailed).
	injected bool
	// physFailed mirrors substrate failures along the pinned path for
	// ExposePhysicalFailures slices.
	physFailed bool
	// applied is the effective fail state last pushed into Click.
	applied bool
	// bw is the configured shaper rate in bits/s (0 = uncapped),
	// remembered so a migration shadow replicates the cap.
	bw float64
}

// Name returns the slice name.
func (s *Slice) Name() string { return s.cfg.Name }

// Prefix returns the slice's private address block.
func (s *Slice) Prefix() netip.Prefix { return s.prefix }

// addrAt returns the address at the given offset into the slice block.
func (s *Slice) addrAt(off uint32) netip.Addr { return u32Addr(s.addrBase + off) }

// hostCap bounds tap addresses: the lower half of the block, minus the
// network address, capped at the legacy 250 for /16 blocks.
func (s *Slice) hostCap() int {
	if s.half >= 256 {
		return 250
	}
	return int(s.half) - 2
}

// subnetCap bounds /30 link subnets: the upper half of the block in
// 4-address words (numbering starts at 1), capped at the legacy 8000.
func (s *Slice) subnetCap() int {
	if n := int(s.half/4) - 1; n < 8000 {
		return n
	}
	return 8000
}

// OnAlarm registers the upcall handler for substrate topology changes.
func (s *Slice) OnAlarm(fn func(LinkAlarm)) { s.onAlarm = fn }

// VirtualNodes returns the slice's virtual node names in creation order.
func (s *Slice) VirtualNodes() []string { return append([]string(nil), s.vorder...) }

// VirtualNode returns a virtual node by (physical) name.
func (s *Slice) VirtualNode(name string) (*VirtualNode, bool) {
	vn, ok := s.vnodes[name]
	return vn, ok
}

// AddVirtualNode instantiates the slice on the named physical node: a
// Click forwarder process with the IIAS element graph, a tap0 address
// out of the slice's block, and (lazily) routing processes.
func (s *Slice) AddVirtualNode(physName string) (*VirtualNode, error) {
	if s.state >= stateDraining {
		return nil, fmt.Errorf("core: cannot embed slice %s in state %s", s.cfg.Name, s.state)
	}
	if s.mig != nil {
		return nil, fmt.Errorf("core: cannot embed slice %s while a migration is in flight", s.cfg.Name)
	}
	if _, dup := s.vnodes[physName]; dup {
		return nil, fmt.Errorf("core: slice %s already on node %s", s.cfg.Name, physName)
	}
	phys, ok := s.vini.Net.Node(physName)
	if !ok {
		return nil, fmt.Errorf("core: unknown physical node %q", physName)
	}
	// Admission control: the node must have room for this slice's CPU
	// reservation before anything is instantiated on it.
	if err := s.vini.reserveCPU(physName, s.cfg.CPUShare); err != nil {
		return nil, err
	}
	cpu := s.res.acquire("cpu", physName, func() { s.vini.releaseCPU(physName, s.cfg.CPUShare) })
	s.nextHost++
	if s.nextHost > s.hostCap() {
		cpu.release()
		return nil, fmt.Errorf("core: slice %s out of tap addresses (block %s holds %d): %w",
			s.cfg.Name, s.prefix, s.hostCap(), errExhausted)
	}
	tap := s.addrAt(uint32(s.nextHost))
	vn, err := newVirtualNode(s, phys, tap)
	if err != nil {
		cpu.release()
		return nil, err
	}
	// The CPU reservation heads the incarnation's handle list: a
	// migration retire drops newest-first, releasing addresses, then the
	// process, then the reservation.
	vn.handles = append([]*handle{cpu}, vn.handles...)
	s.vnodes[physName] = vn
	s.vorder = append(s.vorder, physName)
	if s.state == stateAdmitted {
		s.state = stateEmbedded
	}
	return vn, nil
}

// allocSubnet returns a fresh /30 from the slice block and its two host
// addresses.
func (s *Slice) allocSubnet() (netip.Prefix, netip.Addr, netip.Addr, error) {
	s.nextNet++
	if s.nextNet > s.subnetCap() {
		return netip.Prefix{}, netip.Addr{}, netip.Addr{},
			fmt.Errorf("core: slice %s out of /30 subnets (block %s holds %d): %w",
				s.cfg.Name, s.prefix, s.subnetCap(), errExhausted)
	}
	// Subnets live in the upper half of the block (10.<x>.128.0/17 for
	// the legacy /16 shape).
	off := s.half + uint32(s.nextNet)*4
	base := s.addrAt(off)
	a := s.addrAt(off + 1)
	b := s.addrAt(off + 2)
	return netip.PrefixFrom(base, 30), a, b, nil
}

// ConnectVirtual creates a virtual link between two of the slice's
// virtual nodes: a /30 subnet, one UDP-tunnel interface on each side
// (with the Click LinkFail → ToTunnel chain), and encapsulation-table
// entries pointing at the peer's physical node.
func (s *Slice) ConnectVirtual(a, b string, cost uint32) (*VirtualLink, error) {
	if s.state >= stateDraining {
		return nil, fmt.Errorf("core: cannot embed slice %s in state %s", s.cfg.Name, s.state)
	}
	if s.mig != nil {
		return nil, fmt.Errorf("core: cannot embed slice %s while a migration is in flight", s.cfg.Name)
	}
	va, ok := s.vnodes[a]
	if !ok {
		return nil, fmt.Errorf("core: no virtual node on %q", a)
	}
	vb, ok := s.vnodes[b]
	if !ok {
		return nil, fmt.Errorf("core: no virtual node on %q", b)
	}
	if cost == 0 {
		cost = 1
	}
	prefix, addrA, addrB, err := s.allocSubnet()
	if err != nil {
		return nil, err
	}
	ifA, err := va.addInterface(prefix, addrA, addrB, vb, cost)
	if err != nil {
		return nil, err
	}
	ifB, err := vb.addInterface(prefix, addrB, addrA, va, cost)
	if err != nil {
		return nil, err
	}
	vl := &VirtualLink{A: va, B: vb, AIf: ifA, BIf: ifB, Cost: cost, name: a + "-" + b,
		// Pin the embedding to the current shortest physical path —
		// upcall matching and ReEmbed work against this pin.
		path: s.vini.Net.Path(a, b)}
	s.vlinks = append(s.vlinks, vl)
	return vl, nil
}

// Mirror embeds the slice one-to-one on a topology: a virtual node on
// each of nodes and a virtual link at CostAB along each of links, both
// in the order given, leaving out the nodes in skip and the links that
// touch them (a spec's spares; nil skips nothing). It starts no routing
// protocol: the caller does, once, after whatever it configures on the
// virtual nodes first (EnableEgress, SPFDelay).
func (s *Slice) Mirror(nodes []string, links []topology.Link, skip map[string]bool) error {
	for _, n := range nodes {
		if skip[n] {
			continue
		}
		if _, err := s.AddVirtualNode(n); err != nil {
			return err
		}
	}
	for _, l := range links {
		if skip[l.A] || skip[l.B] {
			continue
		}
		if _, err := s.ConnectVirtual(l.A, l.B, l.CostAB); err != nil {
			return err
		}
	}
	return nil
}

// FindVirtualLink locates the virtual link between two virtual nodes.
func (s *Slice) FindVirtualLink(a, b string) (*VirtualLink, bool) {
	for _, vl := range s.vlinks {
		if (vl.A.phys.Name() == a && vl.B.phys.Name() == b) ||
			(vl.A.phys.Name() == b && vl.B.phys.Name() == a) {
			return vl, true
		}
	}
	return nil, false
}

// SetFailed injects (or clears) a failure on the virtual link by
// flipping the LinkFail elements inside Click on both endpoints — the
// paper's §5.2 mechanism ("we fail the link by dropping packets within
// Click on the virtual link connecting two Abilene nodes").
func (vl *VirtualLink) SetFailed(v bool) {
	vl.injected = v
	vl.applyFailState()
}

// applyFailState pushes the effective failure state (injected OR
// mirrored-physical) into the Click LinkFail elements, recording the
// transition; repeated application of an unchanged state is free.
func (vl *VirtualLink) applyFailState() {
	eff := vl.injected || vl.physFailed
	if eff == vl.applied {
		return
	}
	vl.applied = eff
	vl.A.SetTunnelFailed(vl.AIf, eff)
	vl.B.SetTunnelFailed(vl.BIf, eff)
	s := vl.A.slice
	if tel := s.vini.tel; tel != nil {
		detail := "up"
		if eff {
			detail = "down"
		}
		// Fail-state flips run on the control timeline (driver calls,
		// scheduled failures, physical upcalls), so the control ring is
		// the writer.
		tel.Rec.Record(s.vini.loop.Domain, telemetry.Event{
			Kind:   telemetry.EvLink,
			Slice:  s.cfg.Name,
			Elem:   vl.name,
			Detail: detail,
		})
	}
}

// Failed reports the effective failure state (injected or exposed
// physical).
func (vl *VirtualLink) Failed() bool { return vl.injected || vl.physFailed }

// Path returns the pinned physical path (embedding-time shortest path,
// or the latest ReEmbed result).
func (vl *VirtualLink) Path() []string { return append([]string(nil), vl.path...) }

// SetBandwidth caps the virtual link at bps in both directions using
// the Click traffic shapers on its per-tunnel chains (Section 6.2's
// "support for setting link bandwidths"). bps <= 0 removes the cap.
func (vl *VirtualLink) SetBandwidth(bps float64) {
	if bps < 0 {
		bps = 0
	}
	vl.bw = bps
	vl.A.SetTunnelRate(vl.AIf, bps)
	vl.B.SetTunnelRate(vl.BIf, bps)
}

// StartOSPF launches an OSPF process on every virtual node with the
// given timers, advertising each node's tap0 /32 (plus any extra stubs
// registered on the node, e.g. an egress default route). Router starts
// are staggered across one hello interval, as real deployments are, so
// dead timers do not fire in lockstep.
func (s *Slice) StartOSPF(hello, dead time.Duration) {
	rng := s.vini.loop.RNG().Fork()
	for _, name := range s.vorder {
		vn := s.vnodes[name]
		offset := time.Duration(rng.Float64() * float64(hello))
		// Staggered starts are slice-owned control timers: Destroy
		// cancels the ones that have not fired yet through the group.
		s.ctl.Schedule(offset, func() { vn.startOSPF(hello, dead) })
	}
	if s.state == stateEmbedded {
		s.state = stateRunning
	}
}

// StartRIP launches RIP instead (a slice runs one IGP at a time unless
// an experiment deliberately runs both for the switchover demo).
func (s *Slice) StartRIP(update time.Duration) {
	for _, name := range s.vorder {
		s.vnodes[name].startRIP(update)
	}
	if s.state == stateEmbedded {
		s.state = stateRunning
	}
}

// SwitchProtocol atomically prefers the named protocol ("ospf" or
// "rip") in every virtual node's RIB — the conclusion's "atomic
// switchover between virtual networks". Both protocols keep running;
// only the forwarding tables flip.
func (s *Slice) SwitchProtocol(proto string) error {
	switch proto {
	case "ospf", "rip":
	default:
		return fmt.Errorf("core: unknown protocol %q", proto)
	}
	for _, name := range s.vorder {
		s.vnodes[name].RIB().Prefer(proto)
	}
	return nil
}

// physicalEvent delivers upcalls for a substrate link event and, when
// the slice opted in, exposes the failure to the virtual topology.
// Virtual links are matched against their pinned embedding path — the
// substrate IGP re-routes around the failure and would mask it, which
// is exactly what Section 3.1's upcalls exist to counteract.
func (s *Slice) physicalEvent(ev netem.LinkEvent) {
	if s.state == stateDraining || s.state == StateDestroyed {
		return
	}
	for _, vl := range s.vlinks {
		if !usesPhysLink(vl.path, ev.A, ev.B) {
			continue
		}
		if s.onAlarm != nil {
			s.onAlarm(LinkAlarm{Event: ev, A: vl.A.phys.Name(), B: vl.B.phys.Name()})
		}
		if s.cfg.ExposePhysicalFailures {
			// The virtual link is down while any link of its pinned
			// path is down (a restore elsewhere does not heal it).
			vl.physFailed = s.anyPathDown(vl.path)
			vl.applyFailState()
		}
	}
}

// buildOSPF builds the node's OSPF process (not started: a migration
// shadow imports state first) and remembers its timers.
func (vn *VirtualNode) buildOSPF(hello, dead time.Duration) *ospf.Router {
	vn.ospfHello, vn.ospfDead = hello, dead
	r := vn.BuildOSPF(hello, dead, vn.slice.SPFDelay)
	if tel := vn.slice.vini.tel; tel != nil {
		r.OnNeighborEvent(func(iface int, id uint32, state string) {
			tel.Rec.Record(vn.phys.Domain(), telemetry.Event{
				Kind:   telemetry.EvNeighbor,
				Slice:  vn.slice.cfg.Name,
				Node:   vn.phys.Name(),
				Elem:   "ospf",
				Detail: state,
				Value:  int64(id),
			})
		})
	}
	return r
}

// startOSPF and startRIP replace the protocol's router: one left
// running would go on speaking under the same identity with no
// neighbours behind it.
func (vn *VirtualNode) startOSPF(hello, dead time.Duration) {
	if vn.OSPF != nil {
		vn.OSPF.Stop()
	}
	vn.buildOSPF(hello, dead).Start()
}

func (vn *VirtualNode) startRIP(update time.Duration) {
	if vn.RIP != nil {
		vn.RIP.Stop()
	}
	vn.ripUpdate = update
	r := vn.BuildRIP(update)
	if tel := vn.slice.vini.tel; tel != nil {
		r.OnEvent(func(event string, n int) {
			tel.Rec.Record(vn.phys.Domain(), telemetry.Event{
				Kind:   telemetry.EvSession,
				Slice:  vn.slice.cfg.Name,
				Node:   vn.phys.Name(),
				Elem:   "rip",
				Detail: event,
				Value:  int64(n),
			})
		})
	}
	r.Start()
}
