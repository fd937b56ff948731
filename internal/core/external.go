package core

import (
	"errors"
	"fmt"
	"net/netip"

	"vini/internal/click"
	"vini/internal/fea"
	"vini/internal/fib"
	"vini/internal/iias"
	"vini/internal/netem"
	"vini/internal/packet"
	"vini/internal/vpn"
)

// EnableEgress makes this virtual node an overlay egress (Section
// 4.2.3): packets with no overlay destination leave through a Click
// NAPT element using the physical node's public address, and return
// traffic from external hosts is captured on the NAT port range and
// re-enters the overlay. The node also advertises a default route into
// the slice's IGP, so every other virtual node forwards external
// destinations here. Call before StartOSPF/StartRIP.
func (vn *VirtualNode) EnableEgress() error {
	s := vn.slice
	// The NAT range is a slice-wide allocation from the address plan
	// (the old arithmetic 40000+512*id windows overlapped the tunnel
	// blocks of ids >= 28); the first egress node acquires it into the
	// ledger, later egress nodes on the same slice share it.
	if !s.natPorts.valid() {
		r, err := s.vini.plan.acquirePorts(natPortSpan)
		if err != nil {
			return fmt.Errorf("core: slice %s egress: %w", s.cfg.Name, err)
		}
		s.natPorts = r
		s.res.acquire("nat-ports", r.String(), func() {
			s.vini.plan.releasePorts(r)
			s.natPorts = PortRange{}
		})
	}
	lo, hi := s.natPorts.Lo, s.natPorts.Hi
	r := vn.Router
	if err := errors.Join(
		r.Declare("napt", "IPNAPT", vn.phys.Addr().String(), fmt.Sprintf("PORTS %d %d", lo, hi)),
		r.Declare("ext", "ToExternal"),
		r.Connect("rt", iias.PortNAPT, "napt", 0),
		r.Connect("napt", 0, "ext", 0),
		r.Connect("napt", 1, "rt", 0),
	); err != nil {
		return err
	}
	if err := r.Initialize(); err != nil {
		return err
	}
	// Return traffic from the Internet re-enters Click's NAT input.
	napt, _ := vn.Router.Element("napt")
	if _, err := vn.proc.OpenPortRange(lo, hi, func(p *packet.Packet) {
		napt.Push(1, p)
	}); err != nil {
		return err
	}
	// Local default: out through NAT. Advertised default: via the IGP.
	vn.RIB().SetRoutes("static", fea.DistStatic, []fib.Route{
		{Prefix: netip.MustParsePrefix("0.0.0.0/0"), OutPort: iias.PortNAPT},
	})
	vn.Stubs = append(vn.Stubs, netip.MustParsePrefix("0.0.0.0/0"))
	vn.egress = true
	return nil
}

// externalSink sends post-NAT packets onto the real Internet (the
// substrate network) from the egress node.
type externalSink VirtualNode

func (t *externalSink) SendExternal(p *packet.Packet) {
	(*VirtualNode)(t).proc.SendIPPacket(p)
}

// vpnSession is one opted-in client on an ingress node.
type vpnSession struct {
	clientAddr netip.Addr // the client's address inside the overlay
	codec      *vpn.Codec
	outer      netip.AddrPort // learned from the client's first packet
	seen       bool
}

type vpnServer struct {
	port     uint16
	sessions map[netip.Addr]*vpnSession
	fromVPN  click.Element // where decrypted client packets enter the graph
}

// EnableVPNServer makes this virtual node an OpenVPN-style ingress on
// the given UDP port. Register clients (pre-shared keys) before starting
// routing so their addresses are advertised. Call before StartOSPF.
func (vn *VirtualNode) EnableVPNServer(port uint16) error {
	if vn.vpn != nil {
		return fmt.Errorf("core: VPN server already enabled")
	}
	r := vn.Router
	if err := errors.Join(
		r.Declare("fromvpn", "FromVPN"),
		r.Declare("tovpn", "ToVPN"),
		r.Connect("fromvpn", 0, "rt", 0),
		r.Connect("rt", iias.PortVPN, "tovpn", 0),
	); err != nil {
		return err
	}
	if err := r.Initialize(); err != nil {
		return err
	}
	vn.vpn = &vpnServer{port: port, sessions: make(map[netip.Addr]*vpnSession)}
	vn.vpn.fromVPN, _ = vn.Router.Element("fromvpn")
	if _, err := vn.proc.OpenUDP(port, vn.vpnReceive); err != nil {
		return err
	}
	return nil
}

// RegisterVPNClient provisions an opt-in client: its overlay address,
// its pre-shared key, a static route through the VPN port, and a stub
// advertisement so the whole overlay can reach it.
func (vn *VirtualNode) RegisterVPNClient(clientAddr netip.Addr, key []byte) error {
	if vn.vpn == nil {
		return fmt.Errorf("core: EnableVPNServer first")
	}
	codec, err := vpn.NewCodec(key)
	if err != nil {
		return err
	}
	vn.vpn.sessions[clientAddr] = &vpnSession{clientAddr: clientAddr, codec: codec}
	var routes []fib.Route
	for a := range vn.vpn.sessions {
		routes = append(routes, fib.Route{Prefix: netip.PrefixFrom(a, 32), OutPort: iias.PortVPN})
	}
	routes = append(routes, fib.Route{Prefix: netip.MustParsePrefix("0.0.0.0/0"), OutPort: iias.PortNAPT, Metric: 1})
	// Keep any egress default this node already has.
	if len(vn.Stubs) == 0 || vn.Stubs[0] != netip.MustParsePrefix("0.0.0.0/0") {
		routes = routes[:len(routes)-1]
	}
	vn.RIB().SetRoutes("static", fea.DistStatic, routes)
	vn.Stubs = append(vn.Stubs, netip.PrefixFrom(clientAddr, 32))
	return nil
}

// vpnReceive ingests an encrypted client frame: authenticate, decrypt,
// learn the client's outer address, and push the inner packet into the
// overlay data plane.
func (vn *VirtualNode) vpnReceive(p *packet.Packet) {
	defer p.Release() // Open copies out of the frame; p is never retained
	var outer packet.IPv4
	seg, err := outer.Parse(p.Data)
	if err != nil {
		return
	}
	var u packet.UDP
	frame, err := u.Parse(seg)
	if err != nil {
		return
	}
	// Trial-decrypt against each provisioned client (sessions are few; a
	// production server would key on the outer address after handshake).
	for _, sess := range vn.vpn.sessions {
		inner, err := sess.codec.Open(frame)
		if err != nil {
			continue
		}
		var iip packet.IPv4
		if _, err := iip.Parse(inner); err != nil || iip.Src != sess.clientAddr {
			return // authenticated but spoofed inner source: drop
		}
		sess.outer = netip.AddrPortFrom(outer.Src, u.SrcPort)
		sess.seen = true
		q := packet.Get()
		q.SetData(inner) // Open returned a fresh buffer; adopt it
		q.Anno.Timestamp = p.Anno.Timestamp
		vn.vpn.fromVPN.Push(0, q)
		return
	}
}

// vpnSink returns overlay packets to their opted-in client.
type vpnSink VirtualNode

func (t *vpnSink) SendVPN(p *packet.Packet) {
	vn := (*VirtualNode)(t)
	defer p.Release() // Seal copies out of p.Data; p is never retained
	var ip packet.IPv4
	if _, err := ip.Parse(p.Data); err != nil {
		return
	}
	sess, ok := vn.vpn.sessions[ip.Dst]
	if !ok || !sess.seen {
		return
	}
	frame := sess.codec.Seal(p.Data)
	vn.proc.SendUDP(vn.vpn.port, sess.outer, frame, 64)
}

// VPNClient is the end-host side: an OpenVPN-style process that captures
// configured prefixes on a tun device, encrypts, and tunnels them to an
// ingress node; return frames are decrypted and injected locally.
type VPNClient struct {
	node   *netem.Node
	proc   *netem.Process
	codec  *vpn.Codec
	server netip.AddrPort
	// Addr is the client's address inside the overlay.
	Addr netip.Addr
	port uint16
	// Received counts decrypted return packets.
	Received uint64
}

// NewVPNClient attaches a client process to an end-host node. capture
// lists the destination prefixes diverted into the overlay (must not
// cover the server's own address).
func NewVPNClient(v *VINI, nodeName string, overlayAddr netip.Addr, key []byte,
	server netip.AddrPort, capture []netip.Prefix) (*VPNClient, error) {
	node, ok := v.Net.Node(nodeName)
	if !ok {
		return nil, fmt.Errorf("core: unknown node %q", nodeName)
	}
	codec, err := vpn.NewCodec(key)
	if err != nil {
		return nil, err
	}
	c := &VPNClient{node: node, codec: codec, server: server,
		Addr: overlayAddr, port: 21194}
	c.proc = node.NewProcess(netem.ProcessConfig{Name: "openvpn-client", Share: 0.5})
	for _, p := range capture {
		if p.Contains(server.Addr()) {
			return nil, fmt.Errorf("core: capture prefix %v covers the VPN server (routing loop)", p)
		}
		c.proc.OpenTap(p, c.capture)
	}
	node.AddAddr(overlayAddr)
	if _, err := c.proc.OpenUDP(c.port, c.ret); err != nil {
		return nil, err
	}
	return c, nil
}

// capture seals an outgoing packet and tunnels it to the server.
func (c *VPNClient) capture(p *packet.Packet) {
	frame := c.codec.Seal(p.Data)
	p.Release()
	c.proc.SendUDP(c.port, c.server, frame, 64)
}

// ret handles a frame returning from the server.
func (c *VPNClient) ret(p *packet.Packet) {
	defer p.Release()
	var outer packet.IPv4
	seg, err := outer.Parse(p.Data)
	if err != nil {
		return
	}
	var u packet.UDP
	frame, err := u.Parse(seg)
	if err != nil {
		return
	}
	inner, err := c.codec.Open(frame)
	if err != nil {
		return
	}
	c.Received++
	c.node.InjectLocalPacket(packet.New(inner))
}
