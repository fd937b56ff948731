// Package overlay runs the IIAS router live: the iias.Forwarder the
// simulated virtual nodes run, but over real UDP sockets on a real
// network. A Node is a single-goroutine actor: socket readers and timers
// post events to its loop, so the router runs single-threaded exactly as
// it does on the simulator's event loop. cmd/iiasd wraps a Node as a daemon;
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
	"sync/atomic"
	"time"

	"vini/internal/click"
	"vini/internal/fib"
	"vini/internal/iias"
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

	// fw is the IIAS router; only the actor touches it once started.
	fw      *iias.Forwarder
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
	started   atomic.Bool
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
		remotes: make(map[string]int),
	}
	n.reg = telemetry.NewRegistry()
	scope := n.reg.Scope("live", cfg.Name)
	n.mRoutes = scope.Gauge("fib/routes")
	n.mNeighbors = scope.Gauge("ospf/neighbors")
	n.mFull = scope.Gauge("ospf/neighbors_full")
	n.mDelivered = scope.Counter("tap/delivered")
	n.fw, err = iias.New(&click.Context{
		Clock:     (*actorClock)(n),
		RNG:       sim.NewRNG(time.Now().UnixNano()),
		Tunnels:   (*liveTunnels)(n),
		Tap:       (*liveTap)(n),
		LocalAddr: packet.Flow{Src: cfg.TapAddr},
		Metrics:   scope,
	}, nil)
	if err == nil {
		err = n.fw.Initialize()
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	for _, p := range cfg.Peers {
		if err := n.AddPeer(p); err != nil {
			conn.Close()
			return nil, err
		}
	}
	return n, nil
}

// LocalAddr returns the bound UDP tunnel address.
func (n *Node) LocalAddr() string { return n.conn.LocalAddr().String() }

// TapAddr returns the node's overlay address.
func (n *Node) TapAddr() netip.Addr { return n.cfg.TapAddr }

// Router returns the node's Click graph for inspection. Only the actor
// drives it: do not push packets or write handlers through this.
func (n *Node) Router() *click.Router { return n.fw.Router }

// OnDeliver registers the tap read callback (packets addressed to this
// node); dgram is lent for the call. Call before Start.
func (n *Node) OnDeliver(fn func(dgram []byte)) { n.onDeliver = fn }

// AddPeer wires one virtual link. Call before Start.
func (n *Node) AddPeer(p PeerConfig) error {
	if n.started.Load() {
		return fmt.Errorf("overlay: AddPeer after Start")
	}
	raddr, err := net.ResolveUDPAddr("udp4", p.Remote)
	if err != nil {
		return fmt.Errorf("overlay: peer address %q: %w", p.Remote, err)
	}
	ap := raddr.AddrPort()
	idx, err := n.fw.AddInterface(iias.Iface{Addr: p.LocalIf, Prefix: p.Prefix, PeerAddr: p.PeerIf, Cost: p.Cost},
		netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port()))
	if err != nil {
		return err
	}
	n.remotes[raddr.String()] = idx
	return nil
}

// Start launches the actor loop, socket reader, and OSPF.
func (n *Node) Start() error {
	if !n.started.CompareAndSwap(false, true) {
		return fmt.Errorf("overlay: already started")
	}
	r := n.fw.BuildOSPF(n.cfg.Hello, n.cfg.Dead, 0)
	go n.actorLoop()
	go n.readLoop()
	n.post(r.Start)
	return nil
}

// Close stops the node: OSPF first, on the actor, then the actor and
// the socket. The wait for the actor is bounded like every other round
// trip to it, so a Close from an OnDeliver callback, or while one
// blocks, returns after the timeout instead of deadlocking.
func (n *Node) Close() {
	n.closed.Do(func() {
		if n.started.Load() {
			stopped := make(chan struct{})
			n.post(func() {
				n.fw.OSPF.Stop()
				close(stopped)
			})
			select {
			case <-stopped:
			case <-time.After(2 * time.Second):
			}
		}
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
		// A packet of its own with 64 bytes of headroom in front, as a
		// simulated tunnel delivers: the graph writes headers in place.
		p := packet.Get()
		p.Append(buf[:sz])
		src := from.String()
		n.post(func() {
			if idx, ok := n.remotes[src]; ok {
				n.fw.Receive(idx, p)
			} else { // not a configured neighbor
				p.Release()
			}
		})
	}
}

// Send injects a locally originated IP datagram into the overlay (a tap
// write). Safe to call from any goroutine.
func (n *Node) Send(dgram []byte) {
	p := packet.Get()
	p.Append(dgram)
	n.post(func() { n.fw.FromTap(p) })
}

// Routes returns a snapshot of the node's FIB.
func (n *Node) Routes() []fib.Route { return n.fw.FIB.Routes() }

// Neighbors returns OSPF adjacency state (actor-safe snapshot).
func (n *Node) Neighbors() []ospf.NeighborInfo {
	ch := make(chan []ospf.NeighborInfo, 1)
	n.post(func() { ch <- n.fw.OSPF.Neighbors() })
	select {
	case nb := <-ch:
		return nb
	case <-time.After(2 * time.Second):
		return nil
	}
}

// refreshGauges recomputes the adjacency and route gauges on the actor
// loop, so a scrape never races protocol state.
func (n *Node) refreshGauges() {
	done := make(chan struct{})
	n.post(func() {
		defer close(done)
		n.mRoutes.Set(int64(n.fw.FIB.Len()))
		nbs := n.fw.OSPF.Neighbors()
		full := 0
		for _, nb := range nbs {
			if nb.State == "Full" {
				full++
			}
		}
		n.mNeighbors.Set(int64(len(nbs)))
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
	n.post(func() { n.fw.SetTunnelFailed(idx, failed) })
}

// actorClock adapts the real clock so timer callbacks run on the actor.
type actorClock Node

func (c *actorClock) Now() time.Duration { return c.clock.Now() }
func (c *actorClock) Schedule(d time.Duration, fn func()) sim.Timer {
	return c.clock.Schedule(d, func() { (*Node)(c).post(fn) })
}

// liveTunnels sends overlay packets over the real socket.
type liveTunnels Node

func (t *liveTunnels) SendTunnel(e fib.EncapEntry, p *packet.Packet) {
	n := (*Node)(t)
	n.conn.WriteToUDPAddrPort(p.Data, netip.AddrPortFrom(e.Remote, e.Port))
	p.Release()
}

// liveTap delivers local packets to the registered callback.
type liveTap Node

func (t *liveTap) DeliverTap(p *packet.Packet) {
	n := (*Node)(t)
	n.mDelivered.Inc()
	if n.onDeliver != nil {
		n.onDeliver(p.Data)
	}
	p.Release()
}
