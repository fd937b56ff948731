// Package click is a Go implementation of the Click modular software
// router, which IIAS uses as its virtual data plane (Section 4.2.1 of the
// paper). A router is a graph of named elements connected port-to-port;
// packets are pushed through the graph synchronously. The package
// includes a parser for the subset of the Click configuration language
// IIAS needs (declarations, connections, chains) and the IIAS element
// library: UDP tunnels, the tap0 local interface, the forwarding and
// encapsulation table lookups, NAPT, the shaper, and the
// failure-injection element the paper's Section 5.2 uses to "fail" a
// virtual link by dropping packets inside Click.
package click

import (
	"fmt"
	"strings"
	"sync"

	"vini/internal/fib"
	"vini/internal/packet"
	"vini/internal/sim"
	"vini/internal/telemetry"
)

// Element is a Click element: it receives packets on numbered input ports
// and emits them on numbered output ports via the router.
type Element interface {
	// Class returns the element's class name (e.g. "LookupIPRoute").
	Class() string
	// Push delivers a packet on input port. Elements emit downstream by
	// calling their portSet.
	Push(port int, p *packet.Packet)
}

// initializer is implemented by elements that need resources from the
// router context after construction and wiring.
type initializer interface {
	Initialize(ctx *Context) error
}

// HandlerElement exposes Click-style read/write handlers, the mechanism
// experiments use to poke running elements (e.g. `write fail.active true`).
type HandlerElement interface {
	// Handler processes a named handler. For reads, value is empty.
	Handler(name, value string) (string, error)
}

// portSet is the owned output side of an element; the router wires it.
type portSet struct {
	name  string
	conns [][]edge // per output port: fan-out edges
}

type edge struct {
	elem Element
	port int
}

// output emits p on output port, transferring ownership. Fan-out sends
// deep clones to all edges but the last, which receives the original
// (Click's Tee discipline). Unconnected ports discard — and Release —
// the packet, as Click does for push outputs wired to Discard implicitly.
// Pushing a packet that was already released panics: it means an element
// kept emitting a packet it no longer owned.
func (ps *portSet) output(port int, p *packet.Packet) {
	if p.Released() {
		panic("click: " + ps.name + ": output of a released packet")
	}
	if port < 0 || port >= len(ps.conns) || len(ps.conns[port]) == 0 {
		p.Release()
		return
	}
	es := ps.conns[port]
	for i, e := range es {
		q := p
		if i < len(es)-1 { // fan-out duplicates like Tee
			q = p.Clone()
		}
		e.elem.Push(e.port, q)
	}
}

// connected reports whether output port has at least one edge.
func (ps *portSet) connected(port int) bool {
	return port >= 0 && port < len(ps.conns) && len(ps.conns[port]) > 0
}

func (ps *portSet) ensure(port int) {
	for len(ps.conns) <= port {
		ps.conns = append(ps.conns, nil)
	}
}

// Context supplies shared resources to elements at Initialize time.
type Context struct {
	Clock sim.Clock
	RNG   *sim.RNG
	// FIB is the forwarding table XORP populates via the FEA.
	FIB *fib.Table
	// Encap is the preconfigured encapsulation table.
	Encap *fib.EncapTable
	// Tunnels transmits UDP-tunnel packets toward a remote physical node.
	Tunnels TunnelTransport
	// Tap delivers packets up to the local host stack (tap0).
	Tap TapSink
	// External transmits packets leaving the overlay for the real
	// Internet (an egress node's post-NAT path).
	External ExternalSink
	// VPN returns packets to an opted-in VPN client.
	VPN VPNSink
	// LocalAddr is this virtual node's overlay address (tap0 address).
	LocalAddr packet.Flow // only Src used; kept as Flow for future demux
	// Trace, when set, receives life-of-a-packet events.
	Trace func(element, event string, p *packet.Packet)
	// Metrics, when set, is the telemetry scope this router's elements
	// publish counters into (each element under a "<name>/" prefix).
	Metrics *telemetry.Scope
}

// TunnelTransport sends an encapsulated overlay packet to a remote
// physical node. The simulator and the live overlay provide
// implementations.
type TunnelTransport interface {
	SendTunnel(e fib.EncapEntry, p *packet.Packet)
}

// TapSink receives packets destined to the local host stack.
type TapSink interface {
	DeliverTap(p *packet.Packet)
}

// ExternalSink receives packets leaving the overlay for the Internet.
type ExternalSink interface {
	SendExternal(p *packet.Packet)
}

// VPNSink receives packets bound for an opted-in VPN client.
type VPNSink interface {
	SendVPN(p *packet.Packet)
}

// constructor builds an element from its configuration arguments.
type constructor func(name string, args []string) (Element, error)

var (
	registryMu sync.RWMutex
	registry   = map[string]constructor{}
)

// register installs a constructor for class. It panics on duplicates,
// matching Click's element registration discipline.
func register(class string, c constructor) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[class]; dup {
		panic("click: duplicate element class " + class)
	}
	registry[class] = c
}

// Router is a wired element graph.
type Router struct {
	ctx      *Context
	elements map[string]Element
	ports    map[string]*portSet
	order    []string // declaration order, for deterministic init
	inited   int      // how many of order Initialize has initialized
}

// newRouter returns an empty router bound to ctx.
func newRouter(ctx *Context) *Router {
	if ctx == nil {
		ctx = &Context{}
	}
	return &Router{
		ctx:      ctx,
		elements: make(map[string]Element),
		ports:    make(map[string]*portSet),
	}
}

// Declare adds element name of class, built from args as the
// configuration "name :: Class(args)" would build it.
func (r *Router) Declare(name, class string, args ...string) error {
	if _, dup := r.elements[name]; dup {
		return fmt.Errorf("click: duplicate element name %q", name)
	}
	registryMu.RLock()
	c := registry[class]
	registryMu.RUnlock()
	if c == nil {
		return fmt.Errorf("click: unknown element class %q", class)
	}
	e, err := c(name, args)
	if err != nil {
		return fmt.Errorf("click: %s :: %s: %w", name, class, err)
	}
	r.elements[name] = e
	r.ports[name] = &portSet{name: name}
	r.order = append(r.order, name)
	if b, ok := e.(interface{ bind(*Router, *portSet) }); ok {
		b.bind(r, r.ports[name])
	}
	return nil
}

// Connect wires from[fromPort] -> [toPort]to.
func (r *Router) Connect(from string, fromPort int, to string, toPort int) error {
	fp, ok := r.ports[from]
	if !ok {
		return fmt.Errorf("click: connect from unknown element %q", from)
	}
	te, ok := r.elements[to]
	if !ok {
		return fmt.Errorf("click: connect to unknown element %q", to)
	}
	if fromPort < 0 || toPort < 0 {
		return fmt.Errorf("click: negative port in %s[%d]->[%d]%s", from, fromPort, toPort, to)
	}
	fp.ensure(fromPort)
	fp.conns[fromPort] = append(fp.conns[fromPort], edge{elem: te, port: toPort})
	return nil
}

// instrumentable is implemented by elements that publish counters into
// a telemetry scope. Instrument is called once, after Initialize, with
// a scope prefixed by the element's instance name; handles grabbed
// there are nil-safe, so uninstrumented routers pay one nil check per
// counter update.
type instrumentable interface {
	Instrument(sc *telemetry.Scope)
}

// Initialize runs the initializers of the elements declared since its
// last successful call in declaration order, then (when the context
// carries a telemetry scope) hands each of them that is instrumentable
// its per-element scope. Each element is initialized once, so a graph
// that grows keeps the state its running elements hold (NAT bindings).
// Declaration order makes metric registration order — and therefore
// snapshot order — deterministic.
func (r *Router) Initialize() error {
	fresh := r.order[r.inited:]
	for _, name := range fresh {
		if init, ok := r.elements[name].(initializer); ok {
			if err := init.Initialize(r.ctx); err != nil {
				return fmt.Errorf("click: initialize %s: %w", name, err)
			}
		}
	}
	if r.ctx.Metrics != nil {
		for _, name := range fresh {
			if ins, ok := r.elements[name].(instrumentable); ok {
				ins.Instrument(r.ctx.Metrics.With("click/" + name + "/"))
			}
		}
	}
	r.inited = len(r.order)
	return nil
}

// auditor is implemented by elements that keep derived per-element
// state (version-stamped route or encap caches). Audit checks that
// state against the authoritative shared tables and returns a
// description of the first inconsistency. The simulation invariant
// engine audits every element at each quiescent point.
type auditor interface {
	Audit() error
}

// Audit runs every auditor element's self-check in declaration order.
func (r *Router) Audit() error {
	for _, name := range r.order {
		if a, ok := r.elements[name].(auditor); ok {
			if err := a.Audit(); err != nil {
				return fmt.Errorf("click: element %s: %w", name, err)
			}
		}
	}
	return nil
}

// flusher is implemented by elements that buffer packets (the shaper).
// Flush releases everything buffered back to the pool and
// returns the number of packets dropped; slice teardown flushes every
// element so the pool ledger balances.
type flusher interface {
	Flush() int
}

// Flush releases all buffered packets in every flusher element, in
// declaration order, returning the total released.
func (r *Router) Flush() int {
	n := 0
	for _, name := range r.order {
		if f, ok := r.elements[name].(flusher); ok {
			n += f.Flush()
		}
	}
	return n
}

// Element returns the named element.
func (r *Router) Element(name string) (Element, bool) {
	e, ok := r.elements[name]
	return e, ok
}

// Elements returns element names in declaration order.
func (r *Router) Elements() []string { return append([]string(nil), r.order...) }

// Push injects a packet into the named element's input port, the way
// device/tunnel sources enter the graph.
func (r *Router) Push(element string, port int, p *packet.Packet) error {
	e, ok := r.elements[element]
	if !ok {
		return fmt.Errorf("click: push to unknown element %q", element)
	}
	e.Push(port, p)
	return nil
}

// Handler invokes a "element.handler" endpoint with an optional value
// (empty for reads), Click's /click filesystem equivalent.
func (r *Router) Handler(path, value string) (string, error) {
	elemName, hname, ok := cutLast(path, '.')
	if !ok {
		return "", fmt.Errorf("click: handler path %q not element.handler", path)
	}
	e, found := r.elements[elemName]
	if !found {
		return "", fmt.Errorf("click: unknown element %q", elemName)
	}
	h, ok := e.(HandlerElement)
	if !ok {
		return "", fmt.Errorf("click: element %q has no handlers", elemName)
	}
	return h.Handler(hname, value)
}

func cutLast(s string, sep byte) (before, after string, ok bool) {
	if i := strings.LastIndexByte(s, sep); i >= 0 {
		return s[:i], s[i+1:], true
	}
	return s, "", false
}

// base provides the portSet plumbing elements embed.
type base struct {
	name   string
	router *Router
	out    *portSet
}

func (b *base) bind(r *Router, ps *portSet) { b.router = r; b.out = ps }

func (b *base) trace(event string, p *packet.Packet) {
	if b.router != nil && b.router.ctx.Trace != nil {
		b.router.ctx.Trace(b.name, event, p)
	}
}
