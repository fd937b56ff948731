// Package netem is the physical substrate simulator: hosts with
// calibrated CPU cost models (profile.go), links with bandwidth,
// propagation delay, and drop-tail queues, kernel IP forwarding, and
// user-space processes scheduled by internal/sched. It stands in for the
// paper's DETER testbed and PlanetLab deployment (see DESIGN.md,
// substitution 1 and 2).
package netem

import (
	"fmt"
	"net/netip"
	"time"

	"vini/internal/fib"
	"vini/internal/packet"
	"vini/internal/sched"
	"vini/internal/sim"
	"vini/internal/topology"
)

// Network is a set of nodes and links on a shared executor. Each node
// gets its own sim.Domain and cross-node packet hand-offs travel through
// domain mailboxes, letting the executor run nodes in parallel.
type Network struct {
	loop  *sim.Loop
	rng   *sim.RNG
	nodes map[string]*Node
	order []string
	links []*Link
	// graph is the physical topology, the only copy: AddNode and AddLink
	// append to it, and link i of the graph is links[i].
	graph *topology.Graph
	// down is the set of failed link indices, kept by Link.SetDown.
	down map[int]bool
	// trees caches one shortest-path tree per source over graph minus
	// down. AddNode, AddLink and Link.SetDown drop it.
	trees map[string]map[string]topology.Path
	// alarms receive physical-topology-change upcalls (Section 3.1's
	// "exposure of underlying topology changes").
	alarms []func(ev LinkEvent)
	// onPacket, when set, observes substrate-level packet hops (node
	// receive, link transmit). It runs in the domain the hop happens in
	// and must not allocate or touch cross-domain state; telemetry uses
	// it to trace painted packets across the physical network.
	onPacket func(n *Node, event string, p *packet.Packet)
}

// OnPacket installs the substrate packet-hop observer. Driver-time only.
func (w *Network) OnPacket(fn func(n *Node, event string, p *packet.Packet)) {
	w.onPacket = fn
}

// Links returns the instantiated links in creation order. Callers must
// not mutate the slice.
func (w *Network) Links() []*Link { return w.links }

// LinkEvent reports a physical link transition for upcalls to slices.
type LinkEvent struct {
	A, B string
	Down bool
	At   time.Duration
}

// New creates an empty network in which every node added gets its own
// time domain on loop's executor, so the simulation can run nodes on
// parallel workers. Topology must be complete before the first Run.
// Control actions (FailLink, ComputeRoutes, driver Schedule calls on
// the loop) run on the control domain at global barriers, exactly
// ordered against node events by the merge key.
func New(loop *sim.Loop) *Network {
	return &Network{
		loop:  loop,
		rng:   loop.RNG().Fork(),
		nodes: make(map[string]*Node),
		graph: topology.New(),
		down:  make(map[int]bool),
	}
}

// Loop returns the event loop.
func (w *Network) Loop() *sim.Loop { return w.loop }

// AddNode creates a node with the given primary address and host profile.
func (w *Network) AddNode(name string, addr netip.Addr, prof Profile, schedOpt sched.Options) (*Node, error) {
	if _, dup := w.nodes[name]; dup {
		return nil, fmt.Errorf("netem: duplicate node %q", name)
	}
	dom := w.loop.Executor().NewDomain(name)
	n := &Node{
		name:     name,
		net:      w,
		dom:      dom,
		prof:     prof,
		addr:     addr,
		addrs:    map[netip.Addr]bool{addr: true},
		routes:   fib.New(),
		CPU:      sched.New(dom, schedOpt),
		wheel:    sim.NewTickWheel(dom, 100*time.Millisecond),
		udpPorts: make(map[uint16]*Socket),
		stackUDP: make(map[uint16]StackHandler),
		stackTCP: make(map[uint16]StackHandler),
	}
	w.nodes[name] = n
	w.order = append(w.order, name)
	w.graph.AddNode(name)
	w.trees = nil
	return n, nil
}

// Node returns a node by name.
func (w *Network) Node(name string) (*Node, bool) {
	n, ok := w.nodes[name]
	return n, ok
}

// MustNode returns a node or panics; for experiment setup code.
func (w *Network) MustNode(name string) *Node {
	n, ok := w.nodes[name]
	if !ok {
		panic("netem: unknown node " + name)
	}
	return n
}

// Nodes returns node names in creation order.
func (w *Network) Nodes() []string { return append([]string(nil), w.order...) }

// AddLink connects two nodes.
func (w *Network) AddLink(cfg LinkConfig) (*Link, error) {
	a, ok := w.nodes[cfg.A]
	if !ok {
		return nil, fmt.Errorf("netem: unknown node %q", cfg.A)
	}
	b, ok := w.nodes[cfg.B]
	if !ok {
		return nil, fmt.Errorf("netem: unknown node %q", cfg.B)
	}
	if a == b {
		return nil, fmt.Errorf("netem: link %s-%s joins a node to itself", cfg.A, cfg.B)
	}
	if cfg.Bandwidth <= 0 {
		return nil, fmt.Errorf("netem: link %s-%s needs positive bandwidth", cfg.A, cfg.B)
	}
	if cfg.QueueBytes <= 0 {
		cfg.QueueBytes = 256 << 10
	}
	// The IGP metric: propagation delay in microseconds, plus one so that
	// hop count breaks ties and a zero-delay link still costs something.
	if err := w.graph.AddLink(topology.Link{A: cfg.A, B: cfg.B,
		CostAB: uint32(cfg.Delay/time.Microsecond) + 1,
		Delay:  cfg.Delay, Bandwidth: cfg.Bandwidth}); err != nil {
		return nil, err
	}
	w.trees = nil
	l := &Link{cfg: cfg, net: w, index: len(w.links), a: a, b: b}
	// Each direction draws jitter from its own stream (forked at
	// construction, so deterministic) — transmit runs inside the source
	// node's domain and must not touch a shared RNG.
	l.dir[0] = &linkDir{link: l, rng: w.rng.Fork(), src: a, dst: b}
	l.dir[1] = &linkDir{link: l, rng: w.rng.Fork(), src: b, dst: a}
	// Register the per-pair edge: the link's propagation delay bounds
	// how far each endpoint's published promise reaches into the other's
	// horizon.
	a.dom.ObserveInboundLink(b.dom, cfg.Delay)
	b.dom.ObserveInboundLink(a.dom, cfg.Delay)
	// Register both directions as wire handlers so deliveries can cross
	// process shards. Every process replays AddLink in the same order,
	// so the handler ids agree everywhere.
	w.loop.Executor().BindWire(l.dir[0])
	w.loop.Executor().BindWire(l.dir[1])
	a.links = append(a.links, l)
	b.links = append(b.links, l)
	w.links = append(w.links, l)
	return l, nil
}

// FindLink locates the link between two nodes.
func (w *Network) findLink(a, b string) (*Link, bool) {
	for _, l := range w.links {
		if (l.a.name == a && l.b.name == b) || (l.a.name == b && l.b.name == a) {
			return l, true
		}
	}
	return nil, false
}

// OnLinkEvent registers an upcall for physical topology changes and
// returns a subscription id for Unsubscribe (slice teardown must detach
// its upcall so a destroyed slice can never be called back).
func (w *Network) OnLinkEvent(fn func(ev LinkEvent)) int {
	w.alarms = append(w.alarms, fn)
	return len(w.alarms) - 1
}

// Unsubscribe detaches a link-event upcall by the id OnLinkEvent
// returned. The slot is nilled (not compacted) so other ids stay valid.
func (w *Network) Unsubscribe(id int) {
	if id >= 0 && id < len(w.alarms) {
		w.alarms[id] = nil
	}
}

// FailLink takes the physical link down, notifies upcall subscribers,
// and (after igpDelay, modelling the substrate IGP) reroutes the
// underlying network around it — the automatic masking that Section 6.1
// notes VINI experiments must be able to see through.
func (w *Network) FailLink(a, b string, igpDelay time.Duration) error {
	return w.setLink(a, b, true, igpDelay)
}

// RestoreLink brings the link back and reconverges the substrate.
func (w *Network) RestoreLink(a, b string, igpDelay time.Duration) error {
	return w.setLink(a, b, false, igpDelay)
}

func (w *Network) setLink(a, b string, down bool, igpDelay time.Duration) error {
	l, ok := w.findLink(a, b)
	if !ok {
		return fmt.Errorf("netem: no link %s-%s", a, b)
	}
	l.SetDown(down)
	ev := LinkEvent{A: a, B: b, Down: down, At: w.loop.Now()}
	for _, fn := range w.alarms {
		if fn != nil {
			fn(ev)
		}
	}
	if igpDelay >= 0 {
		w.loop.Schedule(igpDelay, func() { w.ComputeRoutes() })
	}
	return nil
}

// tree returns the shortest-path tree from src over the links that are
// up right now, computing it on first use.
func (w *Network) tree(src string) map[string]topology.Path {
	t, ok := w.trees[src]
	if !ok {
		if w.trees == nil {
			w.trees = make(map[string]map[string]topology.Path)
		}
		t = w.graph.ShortestPaths(src, w.down)
		w.trees[src] = t
	}
	return t
}

// Path returns the shortest physical path between two nodes over the
// links that are up right now: the hops ComputeRoutes makes the kernels
// forward along, and so the path a tunnel between the two rides. When
// the live topology is partitioned it falls back to the all-links-up
// path (an embedding is then pinned to a path that will work once the
// substrate heals); it returns nil only if no links join the nodes at
// all. The returned slice is shared with other callers and must not be
// modified.
func (w *Network) Path(from, to string) []string {
	if p, ok := w.tree(from)[to]; ok {
		return p.Hops
	}
	if p, ok := w.graph.ShortestPaths(from, nil)[to]; ok {
		return p.Hops
	}
	return nil
}

// Severed reports whether a and b are joined by physical links and every
// one of them is down: parallel links fail one by one, and the hop is
// lost only with the last.
func (w *Network) Severed(a, b string) bool {
	n, ok := w.nodes[a]
	if !ok {
		return false
	}
	severed := false
	for _, l := range n.links {
		if l.a.name == b || l.b.name == b {
			if !l.down {
				return false
			}
			severed = true
		}
	}
	return severed
}

// ComputeRoutes fills every node's kernel routing table with shortest
// paths over the current physical topology (AddLink sets the metric).
// Host routes are installed for every node address (/32), modelling the
// substrate's IGP.
func (w *Network) ComputeRoutes() {
	for _, name := range w.order {
		n := w.nodes[name]
		var routes []fib.Route
		for dst, p := range w.tree(name) {
			if dst == name || len(p.Hops) < 2 {
				continue
			}
			next := p.Hops[1]
			port := -1
			for i, l := range n.links {
				if l.down {
					continue
				}
				if (l.a == n && l.b.name == next) || (l.b == n && l.a.name == next) {
					port = i
					break
				}
			}
			if port < 0 {
				continue
			}
			dn := w.nodes[dst]
			for a := range dn.addrs {
				routes = append(routes, fib.Route{
					Prefix:  netip.PrefixFrom(a, 32),
					OutPort: port,
					Metric:  p.Cost,
					Owner:   "igp",
				})
			}
		}
		n.routes.Replace("igp", routes)
	}
}

// Run advances the simulation until the given virtual time.
func (w *Network) Run(until time.Duration) { w.loop.Run(until) }
