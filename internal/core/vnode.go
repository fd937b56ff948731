package core

import (
	"fmt"
	"net/netip"
	"strings"
	"time"

	"vini/internal/click"
	"vini/internal/fea"
	"vini/internal/fib"
	"vini/internal/netem"
	"vini/internal/ospf"
	"vini/internal/packet"
	"vini/internal/rip"
	"vini/internal/sim"
	"vini/internal/telemetry"
)

// LookupIPRoute output-port convention in the generated IIAS config.
const (
	portEncap   = 0 // forward via the encapsulation table
	portTap     = 1 // deliver to the local tap0
	portUnreach = 2 // no route: ICMP unreachable
	portNAPT    = 3 // leave the overlay via NAT (egress nodes)
	portVPN     = 4 // return to an opted-in VPN client (ingress nodes)
)

// VIface is one virtual interface (a UML-style device backed by a UDP
// tunnel).
type VIface struct {
	Index    int
	Addr     netip.Addr
	Prefix   netip.Prefix
	Peer     *VirtualNode
	PeerAddr netip.Addr
	Cost     uint32
	// fail is the head of this tunnel's Click chain (fail<Index>), where
	// routing messages enter.
	fail click.Element
}

// VirtualNode is the slice's presence on one physical node: the IIAS
// router of the paper's Figure 1 — a Click process forwarding between
// UDP tunnels and the local tap0, with XORP-role routing processes
// configuring its FIB through the FEA.
type VirtualNode struct {
	slice *Slice
	phys  *netem.Node
	// clock is the hosting node's domain-scoped clock wrapped in the
	// slice's per-node timer group; everything the virtual node
	// schedules at runtime (Click timers, OSPF/RIP periodics, control
	// timestamps) runs in that domain, and teardown cancels whatever is
	// still pending through the group.
	clock sim.Clock
	group *sim.TimerGroup
	// ticks is a second group over the node's coarse tick clock (a
	// per-node wheel): periodic protocol timers (hellos, RIP updates)
	// schedule here so they coalesce into shared slot events, and
	// teardown cancels them the same way as the main group's.
	ticks *sim.TimerGroup
	// suspended silences control-plane output while the slice is
	// paused (data-plane output stops with the parked process; control
	// packets bypass the scheduler, so they need their own gate).
	suspended bool
	proc      *netem.Process
	// Router is the Click graph, built by parsing a generated
	// configuration in the Click language. fromTun is its tunnel entry,
	// resolved once (the per-packet path does no lookup by name).
	Router  *click.Router
	fromTun click.Element
	FIB     *fib.Table
	Encap   *fib.EncapTable
	rib     *fea.RIB
	// TapAddr is this virtual node's address (tap0).
	TapAddr netip.Addr
	ifaces  []*VIface
	// Routing processes (nil until started).
	OSPF *ospf.Router
	RIP  *rip.Router
	// extraStubs are additional prefixes this node advertises (an
	// egress node announces 0.0.0.0/0).
	extraStubs []netip.Prefix
	// bgpRaw holds unresolved BGP routes (next hop = egress overlay
	// address), re-resolved against the IGP on every route change;
	// bgpAttached distinguishes "no routes" from "no BGP".
	bgpRaw      []fib.Route
	bgpAttached bool
	// adapted is installProtocolRoutes' working storage.
	adapted []fib.Route
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
	// Trace taps life-of-a-packet events when set.
	Trace func(element, event string, p *packet.Packet)
}

// iiasConfig is the Click-language configuration IIAS generates for each
// virtual node; tunnels add per-link chains on top of it. This mirrors
// the paper's Figure 1 data plane.
const iiasConfig = `
// IIAS data plane (Figure 1): tunnels and tap in, FIB lookup, tunnels
// and tap out. Failure injection sits on the per-tunnel chains.
fromtap :: FromTap;
fromtun :: FromTunnel;
dup :: DupSuppress;
chk :: CheckIPHeader;
dec :: DecIPTTL;
rt :: LookupIPRoute(NOROUTE 2);
encap :: EncapTunnel;
ttlerr :: ICMPError(11, 0);
unreach :: ICMPError(3, 0);
totap :: ToTap;
bad :: Discard;
fromtap -> rt;
fromtun -> dup;
dup -> chk;
chk[0] -> dec;
chk[1] -> bad;
dec[0] -> rt;
dec[1] -> ttlerr;
ttlerr -> rt;
rt[0] -> encap;
rt[1] -> totap;
rt[2] -> unreach;
unreach -> rt;
`

func newVirtualNode(s *Slice, phys *netem.Node, tap netip.Addr) (*VirtualNode, error) {
	vn := &VirtualNode{
		slice:   s,
		phys:    phys,
		group:   sim.NewTimerGroup(phys.Clock()),
		ticks:   sim.NewTimerGroup(phys.Ticks()),
		FIB:     fib.New(),
		Encap:   fib.NewEncapTable(),
		TapAddr: tap,
	}
	vn.clock = vn.group
	vn.rib = fea.NewRIB(vn.FIB)
	vn.proc = phys.NewProcess(netem.ProcessConfig{
		Name:   s.cfg.Name + "-click",
		RT:     s.cfg.RT,
		Share:  s.cfg.CPUShare,
		Strict: s.cfg.Strict,
	})
	tel := s.vini.tel
	var metrics *telemetry.Scope
	if tel != nil {
		metrics = tel.Reg.Scope(s.cfg.Name, phys.Name())
		vn.proc.Task().Instrument(metrics.Counter("proc/cpu_ns"),
			metrics.Histogram("proc/wake_latency"))
		// Route installs land in the flight recorder from the domain
		// the triggering protocol runs in (this node's).
		vn.rib.OnInstall(func(proto string, n int) {
			tel.Rec.Record(phys.Domain(), telemetry.Event{
				Kind:  telemetry.EvRoute,
				Slice: s.cfg.Name,
				Node:  phys.Name(),
				Elem:  proto,
				Value: int64(n),
			})
		})
	}
	ctx := &click.Context{
		Clock:     vn.clock,
		RNG:       phys.Domain().RNG().Fork(),
		FIB:       vn.FIB,
		Encap:     vn.Encap,
		Tunnels:   (*tunnelTransport)(vn),
		Tap:       (*tapSink)(vn),
		External:  (*externalSink)(vn),
		VPN:       (*vpnSink)(vn),
		LocalAddr: packet.Flow{Src: tap},
		Metrics:   metrics,
		Trace: func(el, ev string, p *packet.Packet) {
			if vn.Trace != nil {
				vn.Trace(el, ev, p)
			}
			if tel != nil && p != nil && p.Anno.Paint == telemetry.TracePaint {
				tel.Rec.Record(phys.Domain(), telemetry.Event{
					Kind:   telemetry.EvPacket,
					Slice:  s.cfg.Name,
					Node:   phys.Name(),
					Elem:   el,
					Detail: ev,
					Value:  int64(p.Len()),
				})
			}
		},
	}
	r, err := click.ParseConfig(ctx, iiasConfig)
	if err != nil {
		return nil, fmt.Errorf("core: IIAS config: %w", err)
	}
	vn.Router = r
	vn.fromTun, _ = r.Element("fromtun")
	// tap0: the kernel routes the slice's block into its Click. (The
	// paper routes all of 10/8 to tap0 with per-slice demux in the
	// modified TUN/TAP driver; scoping each slice's tap to its own /16
	// achieves the same isolation here.)
	vn.proc.OpenTap(s.Prefix(), func(p *packet.Packet) {
		vn.Router.Push("fromtap", 0, p)
	})
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
	// Connected host route for the tap address itself.
	vn.rib.SetRoutes("connected", fea.DistConnected, []fib.Route{
		{Prefix: netip.PrefixFrom(tap, 32), OutPort: portTap},
	})
	if err := r.Initialize(); err != nil {
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
	vn.proc.OpenTap(p, func(pkt *packet.Packet) {
		vn.Router.Push("fromtap", 0, pkt)
	})
}

// Proc returns the Click forwarder process (for scheduler statistics).
func (vn *VirtualNode) Proc() *netem.Process { return vn.proc }

// RIB returns the node's FEA RIB (the XORP-role merge layer), so
// consistency checkers can compare protocol, RIB, and FIB views.
func (vn *VirtualNode) RIB() *fea.RIB { return vn.rib }

// Interfaces returns the virtual interfaces.
func (vn *VirtualNode) Interfaces() []VIface {
	out := make([]VIface, len(vn.ifaces))
	for i, ifc := range vn.ifaces {
		out[i] = *ifc
	}
	return out
}

// addInterface wires one end of a virtual link: interface bookkeeping,
// encap entry, the per-tunnel Click chain, and connected routes.
func (vn *VirtualNode) addInterface(prefix netip.Prefix, local, peerAddr netip.Addr, peer *VirtualNode, cost uint32) (int, error) {
	idx := len(vn.ifaces)
	ifc := &VIface{Index: idx, Addr: local, Prefix: prefix, Peer: peer, PeerAddr: peerAddr, Cost: cost}
	vn.ifaces = append(vn.ifaces, ifc)
	vn.Encap.Set(fib.EncapEntry{
		NextHop: peerAddr,
		Remote:  peer.phys.Addr(),
		Port:    peer.slice.basePort,
		Tunnel:  idx,
	})
	// Per-tunnel chain: encap[idx] -> fail<idx> -> shape<idx> -> tun<idx>.
	// The shaper starts unlimited; VirtualLink.SetBandwidth turns it on
	// (the §6.2 "setting link bandwidths via traffic shapers in Click").
	failName := fmt.Sprintf("fail%d", idx)
	shapeName := fmt.Sprintf("shape%d", idx)
	tunName := fmt.Sprintf("tun%d", idx)
	cfg := fmt.Sprintf("%s :: LinkFail;\n%s :: BandwidthShaper(0, 512);\n%s :: ToTunnel(%d);\n"+
		"encap[%d] -> %s;\n%s -> %s;\n%s -> %s;",
		failName, shapeName, tunName, idx,
		idx, failName, failName, shapeName, shapeName, tunName)
	if err := click.ParseInto(vn.Router, cfg); err != nil {
		return 0, err
	}
	if err := vn.Router.Initialize(); err != nil {
		return 0, err
	}
	ifc.fail, _ = vn.Router.Element(failName)
	// The node answers for its interface address; connected routes send
	// /30 traffic to the peer via the tunnel and our own address to tap.
	vn.phys.AddAddr(local)
	vn.handles = append(vn.handles, vn.slice.res.acquire("addr", local.String(), func() { vn.phys.RemoveAddr(local) }))
	vn.addConnected(fib.Route{Prefix: netip.PrefixFrom(local, 32), OutPort: portTap})
	vn.addConnected(fib.Route{Prefix: prefix.Masked(), NextHop: peerAddr, OutPort: portEncap, Metric: 1})
	return idx, nil
}

// connected accumulates the connected-route set (the RIB replaces whole
// protocol sets, so we re-issue all of them).
func (vn *VirtualNode) addConnected(r fib.Route) {
	var all []fib.Route
	all = append(all, fib.Route{Prefix: netip.PrefixFrom(vn.TapAddr, 32), OutPort: portTap})
	for _, ifc := range vn.ifaces {
		all = append(all, fib.Route{Prefix: netip.PrefixFrom(ifc.Addr, 32), OutPort: portTap})
		all = append(all, fib.Route{Prefix: ifc.Prefix.Masked(), NextHop: ifc.PeerAddr, OutPort: portEncap, Metric: 1})
	}
	vn.rib.SetRoutes("connected", fea.DistConnected, all)
}

// setTunnelFailed flips the Click LinkFail element for one tunnel.
func (vn *VirtualNode) setTunnelFailed(idx int, v bool) {
	name := fmt.Sprintf("fail%d.active", idx)
	val := "false"
	if v {
		val = "true"
	}
	vn.Router.Handler(name, val)
}

// installProtocolRoutes adapts protocol routes (OutPort = interface
// index) to the IIAS Click port convention before the RIB merge: any
// route with a next hop forwards via the encapsulation table. routes is
// lent by the protocol for the call, as adapted is to the RIB.
func (vn *VirtualNode) installProtocolRoutes(proto string, routes []fib.Route) {
	dist := fea.DistOSPF
	if proto == "rip" {
		dist = fea.DistRIP
	}
	adapted := vn.adapted[:0]
	for _, r := range routes {
		if r.NextHop.IsValid() {
			r.OutPort = portEncap
		} else {
			r.OutPort = portTap
		}
		adapted = append(adapted, r)
	}
	vn.adapted = adapted
	vn.rib.SetRoutes(proto, dist, adapted)
	// IGP changes move BGP next hops: re-resolve (recursive resolution).
	vn.resolveBGP()
}

// tunnelReceive is the slice's UDP socket handler: decapsulate, identify
// the tunnel by outer source, and demultiplex control traffic to the
// routing processes (the uml_switch path of Figure 1) or data into the
// Click graph.
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
	idx := ent.Tunnel
	var iip packet.IPv4
	ipayload, err := iip.Parse(inner)
	if err != nil {
		p.Release()
		return
	}
	// Migration clones never reach a routing process: the original
	// (unstamped) copy already did, so a stamped duplicate must fall
	// through to the data path, where DupSuppress retires it.
	switch {
	case iip.Proto == packet.ProtoOSPF && vn.OSPF != nil && !p.Anno.MigClone:
		// Control traffic: the protocol borrows the inner slice for the
		// call and copies what it keeps.
		vn.OSPF.Receive(idx, iip.Src, ipayload)
		p.Release()
		return
	case iip.Proto == packet.ProtoUDP && !p.Anno.MigClone:
		var iu packet.UDP
		if body, err := iu.Parse(ipayload); err == nil && iu.DstPort == 520 && vn.RIP != nil {
			vn.RIP.Receive(idx, iip.Src, body)
			p.Release()
			return
		}
	}
	// Zero-copy decapsulation: strip the outer IP+UDP headers in place.
	// The freed 28 bytes become headroom for the re-encapsulation at the
	// next hop, so steady-state forwarding never copies the payload.
	p.Pull(outer.HeaderLen + packet.UDPHeaderLen)
	p.Trim(len(inner))
	p.Anno.InPort = idx
	p.Anno.SliceID = vn.slice.id
	vn.fromTun.Push(0, p)
}

// sendControl pushes a routing-protocol message into the per-tunnel Click
// chain so failure injection cuts routing adjacencies exactly as it cuts
// data traffic. payload is lent by the protocol for the call: it is
// copied once into a packet of its own whose buffer has DefaultHeadroom
// in front, so the inner headers here (IPv4, under it UDP 520 when proto
// is UDP: RIP) and the tunnel's later are written in place. The packet
// is not pooled; see DESIGN.md "Routing-message lifetime".
func (vn *VirtualNode) sendControl(ifIndex int, proto uint8, payload []byte) {
	if vn.suspended {
		// Paused slice: control output bypasses the (parked) CPU
		// scheduler, so it is gated here; the peer's dead timer expires
		// exactly as it would for a crashed sliver.
		return
	}
	if ifIndex < 0 || ifIndex >= len(vn.ifaces) {
		return
	}
	ifc := vn.ifaces[ifIndex]
	p := packet.New(nil)
	copy(p.Extend(len(payload)), payload)
	if proto == packet.ProtoUDP {
		packet.EncapUDP(p, ifc.Addr, ifc.PeerAddr, 520, 520)
	}
	packet.EncapIPv4(p, &packet.IPv4{TTL: 1, Proto: proto, Src: ifc.Addr, Dst: ifc.PeerAddr})
	p.Anno.Timestamp = vn.clock.Now()
	p.Anno.NextHop = ifc.PeerAddr
	ifc.fail.Push(0, p)
}

// ospfTransport adapts the OSPF Transport interface onto the vnode.
type ospfTransport struct{ vn *VirtualNode }

func (t ospfTransport) SendRouting(ifIndex int, payload []byte) {
	t.vn.sendControl(ifIndex, packet.ProtoOSPF, payload)
}

// ripTransport wraps RIP messages in inner UDP port 520.
type ripTransport struct{ vn *VirtualNode }

func (t ripTransport) SendRouting(ifIndex int, payload []byte) {
	t.vn.sendControl(ifIndex, packet.ProtoUDP, payload)
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
