// Package overlay runs the IIAS router live: the same Click element
// graph, forwarding tables, and OSPF implementation as the simulated
// virtual nodes, but over real UDP sockets on a real network. A Node is
// a single-goroutine actor: socket readers and timers post events to its
// loop, so the protocol code runs single-threaded exactly as it does on
// the simulator's event loop. cmd/iiasd wraps a Node as a daemon;
// examples/realoverlay runs three of them over loopback and fails a
// tunnel live.
package overlay

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"sync"
	"time"

	"vini/internal/click"
	"vini/internal/fea"
	"vini/internal/fib"
	"vini/internal/ospf"
	"vini/internal/packet"
	"vini/internal/sim"
	"vini/internal/telemetry"
)

// PeerConfig describes one virtual link to a remote overlay node.
type PeerConfig struct {
	// Remote is the peer's UDP tunnel address ("host:port").
	Remote string
	// LocalIf and PeerIf are this link's /30 interface addresses.
	LocalIf, PeerIf netip.Addr
	// Prefix is the link subnet.
	Prefix netip.Prefix
	// Cost is the OSPF metric.
	Cost uint32
}

// Config describes a live IIAS node.
type Config struct {
	Name string
	// Listen is the local UDP tunnel bind address ("127.0.0.1:0" for an
	// ephemeral port).
	Listen string
	// TapAddr is this node's overlay address, advertised as a /32 stub.
	TapAddr netip.Addr
	// Hello and Dead are the OSPF timers.
	Hello, Dead time.Duration
	// Peers are the virtual links (may also be added before Start).
	Peers []PeerConfig
}

// Node is a running live IIAS router.
type Node struct {
	cfg    Config
	conn   *net.UDPConn
	clock  *sim.RealClock
	events chan func()
	done   chan struct{}
	closed sync.Once

	router  *click.Router
	table   *fib.Table
	encap   *fib.EncapTable
	rib     *fea.RIB
	ospf    *ospf.Router
	peers   []PeerConfig
	remotes map[string]int // remote addr string -> tunnel index

	// Live telemetry: the same registry the simulator uses, under the
	// "live" slice label. Click element counters publish into it; the
	// adjacency/route gauges are refreshed on scrape (actor-safe).
	reg        *telemetry.Registry
	mRoutes    *telemetry.Gauge
	mNeighbors *telemetry.Gauge
	mFull      *telemetry.Gauge
	mDelivered *telemetry.Counter

	onDeliver func(dgram []byte)
	started   bool
}

// NewNode builds (but does not start) a node.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Hello <= 0 {
		cfg.Hello = 5 * time.Second
	}
	if cfg.Dead <= 0 {
		cfg.Dead = 2 * cfg.Hello
	}
	if !cfg.TapAddr.IsValid() || !cfg.TapAddr.Is4() {
		return nil, fmt.Errorf("overlay: invalid tap address")
	}
	addr, err := net.ResolveUDPAddr("udp4", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("overlay: listen address: %w", err)
	}
	conn, err := net.ListenUDP("udp4", addr)
	if err != nil {
		return nil, fmt.Errorf("overlay: bind: %w", err)
	}
	n := &Node{
		cfg:     cfg,
		conn:    conn,
		clock:   sim.NewRealClock(),
		events:  make(chan func(), 1024),
		done:    make(chan struct{}),
		table:   fib.New(),
		encap:   fib.NewEncapTable(),
		remotes: make(map[string]int),
	}
	n.rib = fea.NewRIB(n.table)
	n.reg = telemetry.NewRegistry()
	scope := n.reg.Scope("live", cfg.Name)
	n.mRoutes = scope.Gauge("fib/routes")
	n.mNeighbors = scope.Gauge("ospf/neighbors")
	n.mFull = scope.Gauge("ospf/neighbors_full")
	n.mDelivered = scope.Counter("tap/delivered")
	ctx := &click.Context{
		Clock:     n.actorClock(),
		RNG:       sim.NewRNG(time.Now().UnixNano()),
		FIB:       n.table,
		Encap:     n.encap,
		Tunnels:   (*liveTunnels)(n),
		Tap:       (*liveTap)(n),
		LocalAddr: packet.Flow{Src: cfg.TapAddr},
		Metrics:   scope,
	}
	r, err := click.ParseConfig(ctx, liveConfig)
	if err != nil {
		conn.Close()
		return nil, err
	}
	n.router = r
	for _, p := range cfg.Peers {
		if err := n.AddPeer(p); err != nil {
			conn.Close()
			return nil, err
		}
	}
	return n, nil
}

// liveConfig is the IIAS data plane, identical in shape to the simulated
// one (per-tunnel chains appended by AddPeer).
const liveConfig = `
fromtap :: FromTap;
fromtun :: FromTunnel;
chk :: CheckIPHeader;
dec :: DecIPTTL;
rt :: LookupIPRoute(NOROUTE 2);
encap :: EncapTunnel;
ttlerr :: ICMPError(11, 0);
unreach :: ICMPError(3, 0);
totap :: ToTap;
bad :: Discard;
fromtap -> rt;
fromtun -> chk;
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

// LocalAddr returns the bound UDP tunnel address.
func (n *Node) LocalAddr() string { return n.conn.LocalAddr().String() }

// TapAddr returns the node's overlay address.
func (n *Node) TapAddr() netip.Addr { return n.cfg.TapAddr }

// Router returns the node's Click graph for inspection. Only the actor
// drives it: do not push packets or write handlers through this.
func (n *Node) Router() *click.Router { return n.router }

// OnDeliver registers the tap read callback (packets addressed to this
// node). Call before Start.
func (n *Node) OnDeliver(fn func(dgram []byte)) { n.onDeliver = fn }

// AddPeer wires one virtual link. Call before Start.
func (n *Node) AddPeer(p PeerConfig) error {
	if n.started {
		return fmt.Errorf("overlay: AddPeer after Start")
	}
	raddr, err := net.ResolveUDPAddr("udp4", p.Remote)
	if err != nil {
		return fmt.Errorf("overlay: peer address %q: %w", p.Remote, err)
	}
	idx := len(n.peers)
	n.peers = append(n.peers, p)
	n.remotes[raddr.String()] = idx
	rip, _ := netip.AddrFromSlice(raddr.IP.To4())
	n.encap.Set(fib.EncapEntry{
		NextHop: p.PeerIf, Remote: rip, Port: uint16(raddr.Port), Tunnel: idx,
	})
	cfgText := fmt.Sprintf("fail%d :: LinkFail;\ntun%d :: ToTunnel(%d);\nencap[%d] -> fail%d;\nfail%d -> tun%d;",
		idx, idx, idx, idx, idx, idx, idx)
	if err := click.ParseInto(n.router, cfgText); err != nil {
		return err
	}
	return nil
}

// Start launches the actor loop, socket reader, and OSPF.
func (n *Node) Start() error {
	if n.started {
		return fmt.Errorf("overlay: already started")
	}
	n.started = true
	// Connected routes.
	var connected []fib.Route
	connected = append(connected, fib.Route{Prefix: netip.PrefixFrom(n.cfg.TapAddr, 32), OutPort: 1})
	for i, p := range n.peers {
		connected = append(connected,
			fib.Route{Prefix: netip.PrefixFrom(p.LocalIf, 32), OutPort: 1},
			fib.Route{Prefix: p.Prefix.Masked(), NextHop: p.PeerIf, OutPort: 0, Metric: 1})
		_ = i
	}
	n.rib.SetRoutes("connected", fea.DistConnected, connected)
	// OSPF over the tunnels.
	r := ospf.New(n.actorClock(), ospf.Config{
		RouterID: ospf.RouterIDFromAddr(n.cfg.TapAddr),
		Hello:    n.cfg.Hello,
		Dead:     n.cfg.Dead,
		Stubs:    []ospf.StubDesc{{Prefix: netip.PrefixFrom(n.cfg.TapAddr, 32)}},
	}, (*liveOSPFTransport)(n))
	for i, p := range n.peers {
		r.AddInterface(ospf.Interface{
			Name: fmt.Sprintf("tun%d", i), Index: i,
			Addr: p.LocalIf, Prefix: p.Prefix, Cost: p.Cost,
		})
	}
	n.ospf = r
	r.OnRoutes(func(routes []fib.Route) {
		adapted := make([]fib.Route, 0, len(routes))
		for _, rt := range routes {
			if rt.NextHop.IsValid() {
				rt.OutPort = 0
			} else {
				rt.OutPort = 1
			}
			adapted = append(adapted, rt)
		}
		n.rib.SetRoutes("ospf", fea.DistOSPF, adapted)
	})
	if err := n.router.Initialize(); err != nil {
		return err
	}
	go n.actorLoop()
	go n.readLoop()
	n.post(func() { r.Start() })
	return nil
}

// Close stops the node.
func (n *Node) Close() {
	n.closed.Do(func() {
		n.post(func() {
			if n.ospf != nil {
				n.ospf.Stop()
			}
		})
		close(n.done)
		n.conn.Close()
	})
}

// post enqueues an event for the actor loop (drops after shutdown).
func (n *Node) post(fn func()) {
	select {
	case n.events <- fn:
	case <-n.done:
	}
}

func (n *Node) actorLoop() {
	for {
		select {
		case fn := <-n.events:
			fn()
		case <-n.done:
			return
		}
	}
}

func (n *Node) readLoop() {
	buf := make([]byte, 65536)
	for {
		sz, from, err := n.conn.ReadFromUDP(buf)
		if err != nil {
			return // socket closed
		}
		data := append([]byte(nil), buf[:sz]...)
		src := from.String()
		n.post(func() { n.receive(src, data) })
	}
}

// receive demultiplexes an incoming tunnel packet (actor context).
func (n *Node) receive(from string, inner []byte) {
	idx, ok := n.remotes[from]
	if !ok {
		return // not a configured neighbor
	}
	var iip packet.IPv4
	payload, err := iip.Parse(inner)
	if err != nil {
		return
	}
	if iip.Proto == packet.ProtoOSPF && n.ospf != nil {
		n.ospf.Receive(idx, iip.Src, payload)
		return
	}
	p := packet.New(inner)
	p.Anno.InPort = idx
	n.router.Push("fromtun", 0, p)
}

// Send injects a locally originated IP datagram into the overlay (a tap
// write). Safe to call from any goroutine.
func (n *Node) Send(dgram []byte) {
	buf := append([]byte(nil), dgram...)
	n.post(func() { n.router.Push("fromtap", 0, packet.New(buf)) })
}

// Routes returns a snapshot of the node's FIB.
func (n *Node) Routes() []fib.Route { return n.table.Routes() }

// Neighbors returns OSPF adjacency state (actor-safe snapshot).
func (n *Node) Neighbors() []ospf.NeighborInfo {
	ch := make(chan []ospf.NeighborInfo, 1)
	n.post(func() {
		if n.ospf == nil {
			ch <- nil
			return
		}
		ch <- n.ospf.Neighbors()
	})
	select {
	case nb := <-ch:
		return nb
	case <-time.After(2 * time.Second):
		return nil
	}
}

// Metrics returns the node's telemetry registry (Click element counters
// under the "live" slice, plus the scrape-time gauges).
func (n *Node) Metrics() *telemetry.Registry { return n.reg }

// refreshGauges recomputes the adjacency and route gauges on the actor
// loop, so a scrape never races protocol state.
func (n *Node) refreshGauges() {
	done := make(chan struct{})
	n.post(func() {
		defer close(done)
		n.mRoutes.Set(int64(len(n.table.Routes())))
		var full, total int
		if n.ospf != nil {
			for _, nb := range n.ospf.Neighbors() {
				total++
				if nb.State == "Full" {
					full++
				}
			}
		}
		n.mNeighbors.Set(int64(total))
		n.mFull.Set(int64(full))
	})
	select {
	case <-done:
	case <-time.After(2 * time.Second):
	}
}

// MetricsHandler serves the node's telemetry over HTTP: Prometheus text
// exposition at /metrics, the JSON snapshot at /metrics.json, and a
// liveness probe at /healthz. cmd/iiasd mounts it behind -metrics.
func (n *Node) MetricsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		n.refreshGauges()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		n.reg.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		n.refreshGauges()
		w.Header().Set("Content-Type", "application/json")
		n.reg.WriteJSON(w)
	})
	return mux
}

// FailTunnel injects or clears a failure on tunnel idx (the Click
// LinkFail element, as in the simulated §5.2 experiment).
func (n *Node) FailTunnel(idx int, failed bool) {
	v := "false"
	if failed {
		v = "true"
	}
	n.post(func() { n.router.Handler(fmt.Sprintf("fail%d.active", idx), v) })
}

// actorClock adapts the real clock so timer callbacks run on the actor.
func (n *Node) actorClock() sim.Clock {
	return &actorClock{n: n}
}

type actorClock struct{ n *Node }

func (c *actorClock) Now() time.Duration { return c.n.clock.Now() }
func (c *actorClock) Schedule(d time.Duration, fn func()) sim.Timer {
	return c.n.clock.Schedule(d, func() { c.n.post(fn) })
}

// liveOSPFTransport pushes OSPF packets into the per-tunnel Click chain
// so live failure injection cuts adjacencies too.
type liveOSPFTransport Node

func (t *liveOSPFTransport) SendRouting(ifIndex int, payload []byte) {
	n := (*Node)(t)
	if ifIndex < 0 || ifIndex >= len(n.peers) {
		return
	}
	p := n.peers[ifIndex]
	hdr := packet.IPv4{TTL: 1, Proto: packet.ProtoOSPF, Src: p.LocalIf, Dst: p.PeerIf}
	pkt := packet.New(hdr.Marshal(payload))
	pkt.Anno.NextHop = p.PeerIf
	n.router.Push(fmt.Sprintf("fail%d", ifIndex), 0, pkt)
}

// liveTunnels sends overlay packets over the real socket.
type liveTunnels Node

func (t *liveTunnels) SendTunnel(e fib.EncapEntry, p *packet.Packet) {
	n := (*Node)(t)
	dst := &net.UDPAddr{IP: e.Remote.AsSlice(), Port: int(e.Port)}
	n.conn.WriteToUDP(p.Data, dst)
}

// liveTap delivers local packets to the registered callback.
type liveTap Node

func (t *liveTap) DeliverTap(p *packet.Packet) {
	n := (*Node)(t)
	n.mDelivered.Inc()
	if n.onDeliver != nil {
		n.onDeliver(p.Data)
	}
}
