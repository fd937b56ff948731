// Package iias is the IIAS router of the paper's Figure 1: a Click
// forwarder between UDP tunnels and the local tap0, whose FIB XORP-role
// routing processes configure through the FEA. There is one of it. The
// simulator (internal/core) and the live daemon (internal/overlay) both
// build a Forwarder and differ only in what they hand it: a clock, an
// RNG and the sinks of click.Context. See DESIGN.md "One IIAS router".
package iias

import (
	"errors"
	"fmt"
	"net/netip"
	"strconv"
	"time"

	"vini/internal/click"
	"vini/internal/fea"
	"vini/internal/fib"
	"vini/internal/ospf"
	"vini/internal/packet"
	"vini/internal/rip"
	"vini/internal/sim"
)

// Output ports of rt, the LookupIPRoute element: what a route's OutPort
// means to the IIAS graph.
const (
	portEncap = 0 // forward via the encapsulation table
	portTap   = 1 // deliver to the local tap0
	// 2 is rt's NOROUTE port: no route, ICMP unreachable
	PortNAPT = 3 // leave the overlay via NAT (egress nodes)
	PortVPN  = 4 // return to an opted-in VPN client (ingress nodes)
)

// config is the Click-language configuration of every IIAS router, the
// paper's Figure 1 data plane: tunnels and tap in, FIB lookup, tunnels
// and tap out. AddInterface appends one chain per tunnel; failure
// injection and shaping sit on those chains.
const config = `
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

// program is config compiled, once per process; New instantiates it.
var program, programErr = click.Compile(config)

// Iface is one virtual interface (a UML-style device backed by a UDP
// tunnel). The caller of AddInterface fills the exported fields but
// Index.
type Iface struct {
	Index    int
	Addr     netip.Addr
	Prefix   netip.Prefix
	PeerAddr netip.Addr
	Cost     uint32
	// name is "tun<Index>", the tunnel's Click element and the interface
	// the routing processes know. fail heads the tunnel's Click chain,
	// where routing messages enter; shape is its shaper.
	name        string
	fail, shape click.Element
}

// Forwarder is one IIAS router.
type Forwarder struct {
	// Router is the Click graph, instantiated from config plus one chain
	// per interface.
	Router *click.Router
	FIB    *fib.Table
	Encap  *fib.EncapTable
	// TapAddr is the router's own overlay address (tap0).
	TapAddr netip.Addr
	// Routing processes (nil until built).
	OSPF *ospf.Router
	RIP  *rip.Router
	// Stubs are prefixes advertised besides the tap /32 (an egress node
	// announces 0.0.0.0/0). Set before BuildOSPF/BuildRIP.
	Stubs []netip.Prefix
	// OnIGPChange, when set, runs after a routing process's routes are
	// installed (core re-resolves BGP next hops there).
	OnIGPChange func()

	rib          *fea.RIB
	clock, ticks sim.Clock
	// fromTun and fromTap are the graph's entries, resolved once: the
	// per-packet path does no lookup by name.
	fromTun, fromTap click.Element
	ifaces           []Iface
	// suspended silences control-plane output (see SetSuspended).
	suspended bool
	// adapted is installProtocolRoutes' working storage.
	adapted []fib.Route
}

// New builds the router's tables and instantiates its graph. ctx
// supplies what differs between hosts — Clock, RNG, LocalAddr (the tap
// address), the sinks, and optionally Metrics and Trace; New adds the
// FIB and the encapsulation table. ticks, when not nil, is a coarser
// clock the routing processes put their periodic timers on. The owner
// attaches whatever must see the first route install (RIB().OnInstall),
// opens the sockets that feed the graph, and then calls Initialize.
func New(ctx *click.Context, ticks sim.Clock) (*Forwarder, error) {
	f := &Forwarder{
		FIB:     fib.New(),
		Encap:   fib.NewEncapTable(),
		TapAddr: ctx.LocalAddr.Src,
		clock:   ctx.Clock,
		ticks:   ticks,
	}
	f.rib = fea.NewRIB(f.FIB)
	ctx.FIB, ctx.Encap = f.FIB, f.Encap
	if programErr != nil {
		return nil, programErr
	}
	r, err := program.Instantiate(ctx)
	if err != nil {
		return nil, err
	}
	f.Router = r
	f.fromTun, _ = r.Element("fromtun")
	f.fromTap, _ = r.Element("fromtap")
	return f, nil
}

// Initialize installs the connected host route for the tap address and
// initializes the graph's elements.
func (f *Forwarder) Initialize() error {
	f.rib.SetRoutes("connected", fea.DistConnected, f.connected())
	return f.Router.Initialize()
}

// RIB returns the FEA RIB (the XORP-role merge layer), so consistency
// checkers can compare protocol, RIB, and FIB views.
func (f *Forwarder) RIB() *fea.RIB { return f.rib }

// Interfaces returns the virtual interfaces in index order.
func (f *Forwarder) Interfaces() []Iface { return append([]Iface(nil), f.ifaces...) }

// AddInterface wires one end of a virtual link whose far end listens at
// remote: the encap entry, the per-tunnel Click chain
// encap[i] -> fail<i> -> shape<i> -> tun<i>, and the connected routes.
// The shaper starts unlimited; SetTunnelRate turns it on (the §6.2
// "setting link bandwidths via traffic shapers in Click"). Interfaces
// are numbered in call order, so replaying a router's interface plan on
// another Forwarder reproduces its indices.
func (f *Forwarder) AddInterface(ifc Iface, remote netip.AddrPort) (int, error) {
	idx := len(f.ifaces)
	ifc.Index = idx
	f.Encap.Set(fib.EncapEntry{NextHop: ifc.PeerAddr, Remote: remote.Addr(), Port: remote.Port(), Tunnel: idx})
	fail, shape := fmt.Sprintf("fail%d", idx), fmt.Sprintf("shape%d", idx)
	ifc.name = fmt.Sprintf("tun%d", idx)
	r := f.Router
	if err := errors.Join(
		r.Declare(fail, "LinkFail"),
		r.Declare(shape, "BandwidthShaper", "0", "512"),
		r.Declare(ifc.name, "ToTunnel", strconv.Itoa(idx)),
		r.Connect("encap", idx, fail, 0),
		r.Connect(fail, 0, shape, 0),
		r.Connect(shape, 0, ifc.name, 0),
	); err != nil {
		return 0, err
	}
	if err := r.Initialize(); err != nil {
		return 0, err
	}
	ifc.fail, _ = r.Element(fail)
	ifc.shape, _ = r.Element(shape)
	f.ifaces = append(f.ifaces, ifc)
	// Twice: each install is an EvRoute event in the flight recorder, and
	// the pinned telemetry digests count two per interface. The second
	// finds the set unchanged and leaves the FIB alone. ROADMAP item 1's
	// re-pin drops it.
	all := f.connected()
	f.rib.SetRoutes("connected", fea.DistConnected, all)
	f.rib.SetRoutes("connected", fea.DistConnected, all)
	return idx, nil
}

// connected is the connected-route set: our own addresses to the tap,
// each link's /30 to its peer through the tunnel. The RIB replaces a
// protocol's set whole, so every change re-issues all of it.
func (f *Forwarder) connected() []fib.Route {
	all := make([]fib.Route, 0, 1+2*len(f.ifaces))
	all = append(all, fib.Route{Prefix: netip.PrefixFrom(f.TapAddr, 32), OutPort: portTap})
	for i := range f.ifaces {
		ifc := &f.ifaces[i]
		all = append(all,
			fib.Route{Prefix: netip.PrefixFrom(ifc.Addr, 32), OutPort: portTap},
			fib.Route{Prefix: ifc.Prefix.Masked(), NextHop: ifc.PeerAddr, OutPort: portEncap, Metric: 1})
	}
	return all
}

// SetTunnelFailed flips interface idx's LinkFail element, which cuts
// routing messages exactly as it cuts data: the paper's §5.2 mechanism.
func (f *Forwarder) SetTunnelFailed(idx int, failed bool) {
	if idx >= 0 && idx < len(f.ifaces) {
		f.ifaces[idx].fail.(click.HandlerElement).Handler("active", strconv.FormatBool(failed))
	}
}

// SetTunnelRate caps interface idx's shaper at bps bits/s; bps <= 0
// removes the cap.
func (f *Forwarder) SetTunnelRate(idx int, bps float64) {
	v := "0"
	if bps > 0 {
		v = strconv.FormatFloat(bps, 'f', 6, 64)
	}
	if idx >= 0 && idx < len(f.ifaces) {
		f.ifaces[idx].shape.(click.HandlerElement).Handler("rate", v)
	}
}

// SetSuspended gates control-plane output. A paused slice's data plane
// stops with its parked process; routing messages bypass the scheduler,
// so they stop here, and the peer's dead timer expires exactly as it
// would for a crashed sliver.
func (f *Forwarder) SetSuspended(v bool) { f.suspended = v }

// BuildOSPF constructs and wires the OSPF process without starting it,
// so a migration shadow can import the old instance's exported state
// between construction and Start.
func (f *Forwarder) BuildOSPF(hello, dead, spfDelay time.Duration) *ospf.Router {
	stubs := []ospf.StubDesc{{Prefix: netip.PrefixFrom(f.TapAddr, 32)}}
	for _, p := range f.Stubs {
		stubs = append(stubs, ospf.StubDesc{Prefix: p})
	}
	r := ospf.New(f.clock, ospf.Config{
		RouterID: ospf.RouterIDFromAddr(f.TapAddr),
		Hello:    hello,
		Dead:     dead,
		SPFDelay: spfDelay,
		Stubs:    stubs,
		Ticks:    f.ticks,
	}, (*ospfTransport)(f))
	for i := range f.ifaces {
		ifc := &f.ifaces[i]
		r.AddInterface(ospf.Interface{Name: ifc.name, Index: i, Addr: ifc.Addr, Prefix: ifc.Prefix, Cost: ifc.Cost})
	}
	f.OSPF = r
	r.OnRoutes(func(routes []fib.Route) { f.installProtocolRoutes("ospf", fea.DistOSPF, routes) })
	return r
}

// BuildRIP is BuildOSPF for RIP.
func (f *Forwarder) BuildRIP(update time.Duration) *rip.Router {
	stubs := append([]netip.Prefix{netip.PrefixFrom(f.TapAddr, 32)}, f.Stubs...)
	r := rip.New(f.clock, rip.Config{Update: update, Stubs: stubs, Ticks: f.ticks}, (*ripTransport)(f))
	for i := range f.ifaces {
		ifc := &f.ifaces[i]
		r.AddInterface(rip.Interface{Name: ifc.name, Index: i, Addr: ifc.Addr, Prefix: ifc.Prefix})
	}
	f.RIP = r
	r.OnRoutes(func(routes []fib.Route) { f.installProtocolRoutes("rip", fea.DistRIP, routes) })
	return r
}

// installProtocolRoutes adapts protocol routes (OutPort = interface
// index) to the rt port convention before the RIB merge: any route with
// a next hop forwards via the encapsulation table. routes is lent by the
// protocol for the call, as adapted is to the RIB.
func (f *Forwarder) installProtocolRoutes(proto string, dist int, routes []fib.Route) {
	adapted := f.adapted[:0]
	for _, r := range routes {
		r.OutPort = portTap
		if r.NextHop.IsValid() {
			r.OutPort = portEncap
		}
		adapted = append(adapted, r)
	}
	f.adapted = adapted
	f.rib.SetRoutes(proto, dist, adapted)
	if f.OnIGPChange != nil {
		f.OnIGPChange()
	}
}

// Receive takes the inner datagram p that arrived on tunnel idx and
// demultiplexes it: routing messages to the routing processes (the
// uml_switch path of Figure 1), everything else into the Click graph,
// which owns p from then on. A routing process borrows the payload for
// the call and copies what it keeps. Migration clones never reach a
// routing process — the original (unstamped) copy already did — so a
// stamped duplicate falls through to the graph, where DupSuppress
// retires it.
func (f *Forwarder) Receive(idx int, p *packet.Packet) {
	var ip packet.IPv4
	payload, err := ip.Parse(p.Data)
	if err != nil {
		p.Release()
		return
	}
	switch {
	case ip.Proto == packet.ProtoOSPF && f.OSPF != nil && !p.Anno.MigClone:
		f.OSPF.Receive(idx, ip.Src, payload)
		p.Release()
		return
	case ip.Proto == packet.ProtoUDP && !p.Anno.MigClone:
		var u packet.UDP
		if body, err := u.Parse(payload); err == nil && u.DstPort == 520 && f.RIP != nil {
			f.RIP.Receive(idx, ip.Src, body)
			p.Release()
			return
		}
	}
	p.Anno.InPort = idx
	f.fromTun.Push(0, p)
}

// FromTap takes a datagram the local host wrote to tap0 into the Click
// graph, which owns p from then on.
func (f *Forwarder) FromTap(p *packet.Packet) { f.fromTap.Push(0, p) }

// sendControl pushes a routing-protocol message into the per-tunnel Click
// chain so failure injection cuts routing adjacencies exactly as it cuts
// data traffic. payload is lent by the protocol for the call: it is
// copied once into a pooled packet behind 64 bytes of headroom, so the
// inner headers here (IPv4, under it UDP 520 when proto is UDP: RIP) and
// the tunnel's later are written in place. The packet is counted on the
// pool's control ledger, and whoever ends it (a drop, the far end's
// Receive, a socket send) releases it as it would a data packet; see
// DESIGN.md "Routing-message lifetime".
func (f *Forwarder) sendControl(ifIndex int, proto uint8, payload []byte) {
	if f.suspended || ifIndex < 0 || ifIndex >= len(f.ifaces) {
		return
	}
	ifc := &f.ifaces[ifIndex]
	p := packet.GetControl(payload)
	if proto == packet.ProtoUDP {
		packet.EncapUDP(p, ifc.Addr, ifc.PeerAddr, 520, 520)
	}
	packet.EncapIPv4(p, &packet.IPv4{TTL: 1, Proto: proto, Src: ifc.Addr, Dst: ifc.PeerAddr})
	p.Anno.Timestamp = f.clock.Now()
	p.Anno.NextHop = ifc.PeerAddr
	ifc.fail.Push(0, p)
}

// ospfTransport and ripTransport are the routing processes' way out:
// OSPF rides directly on IP, RIP in UDP port 520.
type (
	ospfTransport Forwarder
	ripTransport  Forwarder
)

func (t *ospfTransport) SendRouting(ifIndex int, payload []byte) {
	(*Forwarder)(t).sendControl(ifIndex, packet.ProtoOSPF, payload)
}

func (t *ripTransport) SendRouting(ifIndex int, payload []byte) {
	(*Forwarder)(t).sendControl(ifIndex, packet.ProtoUDP, payload)
}
