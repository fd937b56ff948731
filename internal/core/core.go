// Package core is VINI itself: the virtual network infrastructure that
// embeds experiment slices — each with its own virtual topology, Click
// forwarding plane, routing processes, and resource guarantees — onto a
// shared physical substrate (internal/netem in simulation). It is the
// paper's primary contribution; everything else in this repository is a
// substrate it composes.
package core

import (
	"fmt"
	"net/netip"
	"time"

	"vini/internal/netem"
	"vini/internal/sched"
	"vini/internal/sim"
	"vini/internal/telemetry"
	"vini/internal/topology"
)

// VINI is one deployment of the infrastructure.
type VINI struct {
	Net    *netem.Network
	loop   *sim.Loop
	slices map[string]*Slice
	order  []string
	nextID int
	// freeIDs recycles slice ids released by Destroy, LIFO.
	freeIDs []int
	// plan allocates slice prefix blocks and port spans (addrplan.go);
	// its free lists are LIFO too, so a same-shape re-admission gets
	// back exactly the blocks the destroyed slice released.
	plan *addrPlan
	// reserved tracks admitted CPU reservations per physical node, the
	// admission-control budget.
	reserved map[string]float64
	// tel is the telemetry bundle (nil until EnableTelemetry).
	tel *telemetry.Telemetry
}

// New creates an infrastructure run by one worker: NewParallel(seed, 1).
func New(seed int64) *VINI { return NewParallel(seed, 1) }

// NewParallel creates an infrastructure whose physical nodes each get
// their own time domain, run by an executor with the given worker
// budget (workers <= 1 is one worker) under conservative
// synchronization. Results are byte-identical for any worker count.
func NewParallel(seed int64, workers int) *VINI {
	loop := sim.NewExecutor(seed, workers).Loop()
	// The network's stream is the control stream's second fork, the one
	// every pinned digest was recorded with.
	loop.RNG().Fork()
	return &VINI{
		Net:      netem.New(loop),
		loop:     loop,
		slices:   make(map[string]*Slice),
		nextID:   1,
		plan:     newAddrPlan(),
		reserved: make(map[string]float64),
	}
}

// Loop exposes the event loop for scheduling experiment actions.
func (v *VINI) Loop() *sim.Loop { return v.loop }

// Executor exposes the coordinating executor (domain statistics,
// schedule digests).
func (v *VINI) Executor() *sim.Executor { return v.loop.Executor() }

// Close does nothing: worker goroutines never outlive Run, so a dropped
// infrastructure holds nothing to release. Kept for existing callers.
func (v *VINI) Close() {}

// AddNode creates a physical node.
func (v *VINI) AddNode(name string, addr netip.Addr, prof netem.Profile, opt sched.Options) (*netem.Node, error) {
	n, err := v.Net.AddNode(name, addr, prof, opt)
	if err != nil {
		return nil, err
	}
	if v.tel != nil {
		v.instrumentNode(n)
	}
	return n, nil
}

// AddLink creates a physical link.
func (v *VINI) AddLink(cfg netem.LinkConfig) (*netem.Link, error) {
	l, err := v.Net.AddLink(cfg)
	if err != nil {
		return nil, err
	}
	if v.tel != nil {
		v.instrumentLink(l)
	}
	return l, nil
}

// ComputeRoutes converges the substrate's own IP routing.
func (v *VINI) ComputeRoutes() { v.Net.ComputeRoutes() }

// AddTopology builds a physical substrate in one call: a node per name
// at addrOf(i, name) on profile prof with the default scheduler, a link
// per entry of links (its Bandwidth and Delay; costs belong to the
// overlay), then the substrate's routes. Nodes are created in the order
// of nodes and links in slice order, because that order — and the RNG
// pair each link forks — is what every schedule digest pins: a caller
// whose order is not Graph.Nodes()'s sorted one hands over its own.
func (v *VINI) AddTopology(nodes []string, links []topology.Link, prof netem.Profile, addrOf func(i int, name string) netip.Addr) error {
	for i, name := range nodes {
		if _, err := v.AddNode(name, addrOf(i, name), prof, sched.Options{}); err != nil {
			return err
		}
	}
	for _, l := range links {
		if _, err := v.AddLink(netem.LinkConfig{A: l.A, B: l.B, Bandwidth: l.Bandwidth, Delay: l.Delay}); err != nil {
			return err
		}
	}
	v.ComputeRoutes()
	return nil
}

// Run advances virtual time.
func (v *VINI) Run(until time.Duration) { v.Net.Run(until) }

// SliceConfig sets a slice's resource guarantees, the PL-VINI knobs of
// Section 4.1.2.
type SliceConfig struct {
	Name string
	// CPUShare is the slice's token fill rate: the default fair share or
	// an explicit reservation (0.25 for the paper's PL-VINI runs).
	CPUShare float64
	// RT boosts the slice's forwarder to real-time priority.
	RT bool
	// Strict makes the CPU allocation non-work-conserving (§6.2): the
	// slice receives exactly CPUShare, never idle surplus — the
	// repeatability configuration.
	Strict bool
	// ExposePhysicalFailures wires substrate link alarms (upcalls) to
	// automatic failure of the virtual links riding them, so experiments
	// see underlying topology changes instead of having them masked
	// (Sections 3.1 and 6.1).
	ExposePhysicalFailures bool
	// MaxNodes and MaxLinks bound the slice's embedding and let the
	// address plan size its prefix block and port span to fit, instead
	// of the legacy full /16 + 256 ports. Zero means unsized: the slice
	// gets the legacy block (up to 250 virtual nodes and 8000 virtual
	// links) and counts against the 126-slice legacy budget. Scale
	// scenarios must set both.
	MaxNodes int
	MaxLinks int
}

// CreateSlice admits a new experiment. Each slice receives a private
// prefix block out of 10/8 and a dedicated UDP port span from the
// address plan (the VNET-style isolation), both sized to the embedding
// hints in SliceConfig — an unsized slice gets the legacy /16 + 256
// ports, a sized one as little as a /27 and 4 ports, which is what
// raises the concurrency bound from 126 slices to thousands. Blocks
// recycle LIFO through the resource ledger when a slice is destroyed.
// Admission validates the CPU request here; per-node oversubscription
// is rejected at embedding time, when the slice lands on concrete
// nodes.
func (v *VINI) CreateSlice(cfg SliceConfig) (*Slice, error) {
	if _, dup := v.slices[cfg.Name]; dup {
		return nil, fmt.Errorf("core: slice %q exists", cfg.Name)
	}
	if cfg.CPUShare < 0 || cfg.CPUShare > 1 {
		return nil, fmt.Errorf("core: slice %q CPUShare %.3f outside (0, 1]", cfg.Name, cfg.CPUShare)
	}
	if cfg.CPUShare == 0 {
		cfg.CPUShare = 1.0 / 40 // a PlanetLab node's default fair share
	}
	id := v.allocSliceID()
	prefix, err := v.plan.acquirePrefix(cfg.MaxNodes, cfg.MaxLinks)
	if err != nil {
		v.freeSliceID(id)
		return nil, fmt.Errorf("core: slice %q: %w", cfg.Name, err)
	}
	span := uint32(defaultPortSpan)
	if cfg.MaxNodes > 0 {
		span = sizedPortSpan
	}
	ports, err := v.plan.acquirePorts(span)
	if err != nil {
		v.plan.releasePrefix(prefix)
		v.freeSliceID(id)
		return nil, fmt.Errorf("core: slice %q: %w", cfg.Name, err)
	}
	s := &Slice{
		vini:     v,
		cfg:      cfg,
		id:       id,
		prefix:   prefix,
		addrBase: addrU32(prefix.Addr()),
		half:     (uint32(1) << (32 - prefix.Bits())) / 2,
		ports:    ports,
		basePort: ports.Lo,
		vnodes:   make(map[string]*VirtualNode),
		ctl:      sim.NewTimerGroup(v.loop),
	}
	s.res.acquire("slice-id", fmt.Sprintf("%d", id), func() { v.freeSliceID(id) })
	s.res.acquire("addr-block", prefix.String(), func() { v.plan.releasePrefix(prefix) })
	s.res.acquire("port-block", ports.String(), func() { v.plan.releasePorts(ports) })
	// Physical topology upcalls are a held resource too: teardown
	// unsubscribes, so a destroyed slice can never be called back.
	sub := v.Net.OnLinkEvent(s.physicalEvent)
	s.res.acquire("link-sub", cfg.Name, func() { v.Net.Unsubscribe(sub) })
	// Telemetry series registered under the slice label retire with it
	// (the registry is consulted at free time: telemetry may be enabled
	// after the slice is created).
	s.res.acquire("telemetry", cfg.Name, func() {
		if v.tel != nil {
			v.tel.Reg.Retire(cfg.Name)
		}
	})
	v.slices[cfg.Name] = s
	v.order = append(v.order, cfg.Name)
	return s, nil
}

// Slice returns a slice by name.
func (v *VINI) Slice(name string) (*Slice, bool) {
	s, ok := v.slices[name]
	return s, ok
}

// FailLink fails a physical substrate link (with the substrate's own
// IGP reconverging after igpDelay) and fires upcalls.
func (v *VINI) FailLink(a, b string, igpDelay time.Duration) error {
	return v.Net.FailLink(a, b, igpDelay)
}

// RestoreLink restores a physical link.
func (v *VINI) RestoreLink(a, b string, igpDelay time.Duration) error {
	return v.Net.RestoreLink(a, b, igpDelay)
}

// LinkAlarm is the upcall delivered to slices when a physical link
// transition affects one of their virtual links.
type LinkAlarm struct {
	Event netem.LinkEvent
	// A, B name the virtual nodes whose virtual link rides the failed
	// physical link.
	A, B string
}
