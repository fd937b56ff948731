package core

import (
	"fmt"
	"net/netip"
	"strings"
	"time"

	"vini/internal/click"
	"vini/internal/fib"
	"vini/internal/iias"
	"vini/internal/netem"
	"vini/internal/packet"
	"vini/internal/sim"
	"vini/internal/telemetry"
)

// VirtualNode is the slice's presence on one physical node: the IIAS
// router of the paper's Figure 1 (the embedded Forwarder, the same one
// iiasd runs live) plus what hosting it on the simulated substrate takes
// — the forwarder process and its sockets, timer groups, ledger handles.
type VirtualNode struct {
	*iias.Forwarder
	slice *Slice
	phys  *netem.Node
	// group is the hosting node's domain-scoped clock wrapped in the
	// slice's per-node timer group, and the router's clock: everything
	// the virtual node schedules at runtime (Click timers, OSPF/RIP
	// periodics, control timestamps) runs in that domain, and teardown
	// cancels whatever is still pending through the group.
	group *sim.TimerGroup
	// ticks is a second group over the node's coarse tick clock (a
	// per-node wheel): periodic protocol timers (hellos, RIP updates)
	// schedule here so they coalesce into shared slot events, and
	// teardown cancels them the same way as the main group's.
	ticks *sim.TimerGroup
	proc  *netem.Process
	// peers[i] is the virtual node at the far end of interface i, so
	// len(peers) == len(Interfaces()) always: interfaces are added
	// through addInterface only, never through the embedded Forwarder's
	// promoted AddInterface, which would leave peers one short
	// (buildShadow checks).
	peers []*VirtualNode
	// bgpRaw holds unresolved BGP routes (next hop = egress overlay
	// address), re-resolved against the IGP on every route change;
	// bgpAttached distinguishes "no routes" from "no BGP".
	bgpRaw      []fib.Route
	bgpAttached bool
	// vpn holds per-client ingress sessions on designated nodes.
	vpn *vpnServer
	// egress marks a node that NATs traffic out of the overlay; its
	// per-flow NAT table is node-local, so such nodes cannot migrate.
	egress bool
	// handles are this incarnation's ledger acquisitions (CPU, process,
	// kernel address aliases) in acquisition order, so migration can
	// retire one vnode incarnation — dropping its handles newest-first —
	// while the slice's ledger stays live.
	handles []*handle
	// ospfHello/ospfDead/ripUpdate remember the routing timer
	// configuration so a migration shadow can rebuild the processes.
	ospfHello, ospfDead, ripUpdate time.Duration
}

func newVirtualNode(s *Slice, phys *netem.Node, tap netip.Addr) (*VirtualNode, error) {
	vn := &VirtualNode{
		slice: s,
		phys:  phys,
		group: sim.NewTimerGroup(phys.Clock()),
		ticks: sim.NewTimerGroup(phys.Ticks()),
	}
	vn.proc = phys.NewProcess(netem.ProcessConfig{
		Name:   s.cfg.Name + "-click",
		RT:     s.cfg.RT,
		Share:  s.cfg.CPUShare,
		Strict: s.cfg.Strict,
	})
	tel := s.vini.tel
	var metrics *telemetry.Scope
	var trace func(el, ev string, p *packet.Packet)
	if tel != nil {
		metrics = tel.Reg.Scope(s.cfg.Name, phys.Name())
		vn.proc.Task().Instrument(metrics.Counter("proc/cpu_ns"),
			metrics.Histogram("proc/wake_latency"))
		// Painted packets leave a hop per element in the flight
		// recorder; without telemetry the elements make no call.
		trace = func(el, ev string, p *packet.Packet) {
			if p.Anno.Paint == telemetry.TracePaint {
				tel.Rec.Record(phys.Domain(), telemetry.Event{
					Kind:   telemetry.EvPacket,
					Slice:  s.cfg.Name,
					Node:   phys.Name(),
					Elem:   el,
					Detail: ev,
					Value:  int64(p.Len()),
				})
			}
		}
	}
	// Construction order from here to Initialize is pinned by every
	// digest: the RNG fork, element creation, the ledger acquisitions,
	// the first connected install, element Instrument.
	fw, err := iias.New(&click.Context{
		Clock:     vn.group,
		RNG:       phys.Domain().RNG().Fork(),
		Tunnels:   (*tunnelTransport)(vn),
		Tap:       (*tapSink)(vn),
		External:  (*externalSink)(vn),
		VPN:       (*vpnSink)(vn),
		LocalAddr: packet.Flow{Src: tap},
		Metrics:   metrics,
		Trace:     trace,
	}, vn.ticks)
	if err != nil {
		return nil, fmt.Errorf("core: IIAS config: %w", err)
	}
	vn.Forwarder = fw
	// IGP changes move BGP next hops: re-resolve (recursive resolution).
	fw.OnIGPChange = vn.resolveBGP
	if tel != nil {
		// Route installs land in the flight recorder from the domain
		// the triggering protocol runs in (this node's).
		fw.RIB().OnInstall(func(proto string, n int) {
			tel.Rec.Record(phys.Domain(), telemetry.Event{
				Kind:  telemetry.EvRoute,
				Slice: s.cfg.Name,
				Node:  phys.Name(),
				Elem:  proto,
				Value: int64(n),
			})
		})
	}
	// tap0: the kernel routes the slice's block into its Click. (The
	// paper routes all of 10/8 to tap0 with per-slice demux in the
	// modified TUN/TAP driver; scoping each slice's tap to its own /16
	// achieves the same isolation here.)
	vn.proc.OpenTap(s.Prefix(), vn.FromTap)
	// One tunnel socket per virtual node; peers are distinguished by
	// source address (the encapsulation table in reverse).
	if _, err := vn.proc.OpenUDP(s.basePort, vn.tunnelReceive); err != nil {
		return nil, err
	}
	// The process handle closes sockets, port ranges, tap captures, and
	// the scheduler task at teardown.
	vn.handles = append(vn.handles, s.res.acquire("proc", vn.proc.Name, func() { vn.proc.Close() }))
	// The node answers for its tap address.
	phys.AddAddr(tap)
	vn.handles = append(vn.handles, s.res.acquire("addr", tap.String(), func() { phys.RemoveAddr(tap) }))
	if err := fw.Initialize(); err != nil {
		return nil, err
	}
	return vn, nil
}

// Phys returns the hosting physical node.
func (vn *VirtualNode) Phys() *netem.Node { return vn.phys }

// DivertPrefix adds a tap route so locally originated traffic to an
// external prefix enters this slice's overlay instead of the substrate —
// how applications on a PL-VINI node send Internet-bound traffic through
// IIAS to the egress NAT (Section 4.2.3's "tap0 provides another
// ingress/egress mechanism for applications running in the same slice").
func (vn *VirtualNode) DivertPrefix(p netip.Prefix) {
	vn.proc.OpenTap(p, vn.FromTap)
}

// Proc returns the Click forwarder process (for scheduler statistics).
func (vn *VirtualNode) Proc() *netem.Process { return vn.proc }

// addInterface wires one end of a virtual link to peer: the router's
// interface, and the kernel alias for its address.
func (vn *VirtualNode) addInterface(prefix netip.Prefix, local, peerAddr netip.Addr, peer *VirtualNode, cost uint32) (int, error) {
	idx, err := vn.AddInterface(iias.Iface{Addr: local, Prefix: prefix, PeerAddr: peerAddr, Cost: cost},
		netip.AddrPortFrom(peer.phys.Addr(), peer.slice.basePort))
	if err != nil {
		return 0, err
	}
	vn.peers = append(vn.peers, peer)
	// The node answers for its interface address.
	vn.phys.AddAddr(local)
	vn.handles = append(vn.handles, vn.slice.res.acquire("addr", local.String(), func() { vn.phys.RemoveAddr(local) }))
	return idx, nil
}

// tunnelReceive is the slice's UDP socket handler: identify the tunnel
// by outer source, decapsulate, and hand the inner datagram to the
// router's demultiplexer (control to the routing processes, data into
// the Click graph).
func (vn *VirtualNode) tunnelReceive(p *packet.Packet) {
	var outer packet.IPv4
	seg, err := outer.Parse(p.Data)
	if err != nil {
		p.Release()
		return
	}
	var u packet.UDP
	inner, err := u.Parse(seg)
	if err != nil {
		p.Release()
		return
	}
	ent, ok := vn.Encap.ByRemote(outer.Src)
	if !ok {
		p.Release()
		return // not from a known neighbor; VNET isolation drops it
	}
	// Zero-copy decapsulation: strip the outer IP+UDP headers in place.
	// The freed 28 bytes become headroom for the re-encapsulation at the
	// next hop, so steady-state forwarding never copies the payload.
	p.Pull(outer.HeaderLen + packet.UDPHeaderLen)
	p.Trim(len(inner))
	p.Anno.SliceID = vn.slice.id
	vn.Receive(ent.Tunnel, p)
}

// tunnelTransport implements click.TunnelTransport: wrap the overlay
// packet in UDP and send it from the slice's socket via the substrate.
type tunnelTransport VirtualNode

func (t *tunnelTransport) SendTunnel(e fib.EncapEntry, p *packet.Packet) {
	vn := (*VirtualNode)(t)
	if m := vn.slice.mig; m != nil && m.dup && e.Remote == m.fromAddr {
		// Make-before-break window: packets bound for the migrating
		// instance double-deliver — the original to the old address, a
		// stamped clone to the shadow. Receivers suppress the stamp
		// (DupSuppress), so delivery stays exactly-once whichever
		// instance wins the cutover race. Off the window this is a
		// single nil check, keeping the forwarding path allocation-free.
		q := p.Clone()
		q.Anno.MigClone = true
		m.clones.Add(1)
		vn.proc.SendUDPPacket(vn.slice.basePort, netip.AddrPortFrom(m.toAddr, e.Port), q, 64)
	}
	vn.proc.SendUDPPacket(vn.slice.basePort, netip.AddrPortFrom(e.Remote, e.Port), p, 64)
}

// tapSink implements click.TapSink: deliver overlay packets addressed to
// this virtual node to local applications through the kernel.
type tapSink VirtualNode

func (t *tapSink) DeliverTap(p *packet.Packet) {
	(*VirtualNode)(t).phys.InjectLocalPacket(p)
}

// DumpFIB renders the virtual node's forwarding table.
func (vn *VirtualNode) DumpFIB() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s) FIB:\n", vn.slice.cfg.Name, vn.phys.Name())
	b.WriteString(vn.FIB.String())
	return b.String()
}
