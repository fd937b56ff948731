package core

// Slice lifecycle: every slice moves through an explicit state machine
// (Admitted → Embedded → Running → Paused ⇄ Running → Draining →
// Destroyed, with a Running → Migrating → Running excursion while a
// make-before-break migration is in flight) and every substrate
// resource it takes — CPU reservation,
// UDP port range, address block, kernel address aliases, processes,
// link-event subscriptions, telemetry series — is acquired through a
// refcounted handle in the slice's resource ledger. Destroy releases
// the ledger in reverse acquisition order, so a torn-down slice leaves
// the substrate exactly as it found it: the port span and prefix block
// recycle to the next admission (LIFO, through the address plan), no
// timer survives in any domain heap (timer groups), and the packet-pool
// ledger balances.

import (
	"fmt"
	"slices"
)

// SliceState is the lifecycle position of a slice.
type SliceState int

const (
	// stateAdmitted: resources reserved (id, ports, address block), no
	// presence on any physical node yet.
	stateAdmitted SliceState = iota
	// stateEmbedded: virtual nodes and links instantiated on the
	// substrate, routing not started.
	stateEmbedded
	// stateRunning: routing processes live.
	stateRunning
	// statePaused: forwarders parked, inbound traffic dropped at the
	// sockets; resources stay held.
	statePaused
	// stateMigrating: a make-before-break migration is in flight — one
	// virtual node exists twice (old instance plus shadow) until the
	// cutover retires the old one. The slice keeps forwarding
	// throughout; Running resumes when the migration completes or
	// aborts.
	stateMigrating
	// stateDraining: teardown in progress (transient within Destroy).
	stateDraining
	// StateDestroyed: every resource released; the slice object remains
	// only for inspection.
	StateDestroyed
)

func (st SliceState) String() string {
	switch st {
	case stateAdmitted:
		return "Admitted"
	case stateEmbedded:
		return "Embedded"
	case stateRunning:
		return "Running"
	case statePaused:
		return "Paused"
	case stateMigrating:
		return "Migrating"
	case stateDraining:
		return "Draining"
	case StateDestroyed:
		return "Destroyed"
	default:
		return fmt.Sprintf("SliceState(%d)", int(st))
	}
}

// allocSliceID returns a free slice id, preferring recycled ids (LIFO)
// so long-running substrates with slice churn never exhaust the space.
// Ids are unbounded labels now: addresses and ports come from the
// address plan (addrplan.go), whose allocators bound concurrency — not
// from id arithmetic, which is what used to cap the substrate at 126
// slices.
func (v *VINI) allocSliceID() int {
	if n := len(v.freeIDs); n > 0 {
		id := v.freeIDs[n-1]
		v.freeIDs = v.freeIDs[:n-1]
		return id
	}
	id := v.nextID
	v.nextID++
	return id
}

// freeSliceID recycles id for the next admission.
func (v *VINI) freeSliceID(id int) {
	v.freeIDs = append(v.freeIDs, id)
}

// handle is one refcounted resource acquisition in a slice's ledger.
// The free closure runs exactly once, when the last reference drops or
// when teardown force-drains the ledger.
type handle struct {
	kind, name string
	refs       int
	free       func()
}

func (h *handle) release() {
	if h.refs <= 0 {
		return
	}
	h.refs--
	if h.refs == 0 && h.free != nil {
		h.free()
		h.free = nil
	}
}

// ledger records resource acquisitions in order, so teardown can
// release them in exact reverse order (addresses before processes
// before CPU before the id itself).
type ledger struct {
	handles []*handle
}

func (l *ledger) acquire(kind, name string, free func()) *handle {
	h := &handle{kind: kind, name: name, refs: 1, free: free}
	l.handles = append(l.handles, h)
	return h
}

// drop force-frees one handle out of order and removes it from the
// ledger. Migration retires a single vnode incarnation while the slice
// lives on, so the whole-ledger releaseAll does not apply; dropping
// (rather than release) keeps a live slice's Audit clean — no
// zero-reference handle is left behind.
func (l *ledger) drop(h *handle) {
	h.refs = 0
	if h.free != nil {
		h.free()
		h.free = nil
	}
	for i := len(l.handles) - 1; i >= 0; i-- {
		if l.handles[i] == h {
			l.handles = append(l.handles[:i], l.handles[i+1:]...)
			break
		}
	}
}

// releaseAll force-drains every handle in reverse acquisition order,
// regardless of outstanding references (teardown owns everything).
func (l *ledger) releaseAll() {
	for i := len(l.handles) - 1; i >= 0; i-- {
		h := l.handles[i]
		h.refs = 0
		if h.free != nil {
			h.free()
			h.free = nil
		}
	}
	l.handles = nil
}

// holdings renders the live acquisitions, oldest first.
func (l *ledger) holdings() []string {
	out := make([]string, 0, len(l.handles))
	for _, h := range l.handles {
		out = append(out, fmt.Sprintf("%s:%s(refs=%d)", h.kind, h.name, h.refs))
	}
	return out
}

// State returns the slice's lifecycle state.
func (s *Slice) State() SliceState { return s.state }

// ID returns the slice's substrate id (an opaque label; addresses and
// ports no longer derive from it).
func (s *Slice) ID() int { return s.id }

// BasePort returns the first port of the slice's tunnel port block.
func (s *Slice) BasePort() uint16 { return s.basePort }

// PortRange returns the slice's allocated tunnel port span.
func (s *Slice) PortRange() PortRange { return s.ports }

// Audit checks the slice's resource accounting: a destroyed slice must
// hold nothing and have no timer pending in any domain, a live one must
// hold a consistent ledger. It returns the first inconsistency.
func (s *Slice) Audit() error {
	if s.state == StateDestroyed {
		if n := len(s.res.handles); n != 0 {
			return fmt.Errorf("core: destroyed slice %s still holds %d resources: %v",
				s.cfg.Name, n, s.res.holdings())
		}
		if !s.ctl.Stopped() || s.ctl.Live() != 0 {
			return fmt.Errorf("core: destroyed slice %s has %d control timers pending", s.cfg.Name, s.ctl.Live())
		}
		for _, name := range s.vorder {
			vn := s.vnodes[name]
			if n := vn.group.Live(); n != 0 {
				return fmt.Errorf("core: destroyed slice %s has %d timers pending on %s", s.cfg.Name, n, name)
			}
			if n := vn.ticks.Live(); n != 0 {
				return fmt.Errorf("core: destroyed slice %s has %d tick timers pending on %s", s.cfg.Name, n, name)
			}
		}
		return nil
	}
	for _, h := range s.res.handles {
		if h.refs <= 0 {
			return fmt.Errorf("core: slice %s resource %s:%s has no references but was not released",
				s.cfg.Name, h.kind, h.name)
		}
	}
	return nil
}

// Pause parks the slice: every forwarder process is suspended on its
// CPU, inbound packets tail-drop at its sockets, and control-plane
// output stops, so neighbors see the slice go dark (adjacencies expire
// at the peers exactly as they would for a crashed PlanetLab sliver).
// Resources stay held. Must run at a barrier or on the control domain.
func (s *Slice) Pause() error {
	switch s.state {
	case statePaused:
		return nil
	case stateDraining, StateDestroyed:
		return fmt.Errorf("core: cannot pause slice %s in state %s", s.cfg.Name, s.state)
	}
	if s.mig != nil {
		// A pause lands on whichever side of the commit point the
		// migration is: before cutover the shadow is abandoned (its
		// handles drop from the ledger), after it the retirement
		// completes early. Either way the slice pauses with exactly one
		// incarnation per virtual node.
		s.mig.finish()
	}
	s.prevState = s.state
	for _, name := range s.vorder {
		vn := s.vnodes[name]
		vn.SetSuspended(true)
		vn.proc.SetPaused(true)
	}
	s.state = statePaused
	return nil
}

// Resume reverses Pause. Routing adjacencies re-form on the protocols'
// own timers; convergence after resume is the experiment's observable.
func (s *Slice) Resume() error {
	if s.state != statePaused {
		return fmt.Errorf("core: cannot resume slice %s in state %s", s.cfg.Name, s.state)
	}
	for _, name := range s.vorder {
		vn := s.vnodes[name]
		vn.SetSuspended(false)
		vn.proc.SetPaused(false)
	}
	s.state = s.prevState
	return nil
}

// Destroy tears the slice down completely: routing stops, every pending
// timer in every domain is cancelled through the slice's timer groups,
// buffered packets flush back to the pool, and the resource ledger
// releases in reverse acquisition order — interface aliases, tap
// addresses, processes (sockets, port ranges, scheduler tasks), CPU
// reservations, telemetry series, the link subscription, and finally
// the slice id with its port block and address prefix, which the next
// CreateSlice on this substrate reuses. Idempotent. Must run at a
// barrier or on the control domain.
func (s *Slice) Destroy() error {
	if s.state == StateDestroyed {
		return nil
	}
	if s.mig != nil {
		// Resolve the in-flight migration first so teardown sees exactly
		// one incarnation per virtual node: pre-cutover the shadow
		// aborts, post-cutover the old instance retires now.
		s.mig.finish()
	}
	s.state = stateDraining
	v := s.vini
	// 1. Stop routing processes (their saved timers stop eagerly).
	for _, name := range s.vorder {
		vn := s.vnodes[name]
		if vn.OSPF != nil {
			vn.OSPF.Stop()
		}
		if vn.RIP != nil {
			vn.RIP.Stop()
		}
	}
	// 2. Cancel the control-domain group (staggered StartOSPF closures
	// that have not fired yet) and every per-node group: the unsaved
	// periodic timers — OSPF refresh/age sweeps, SPF batching, shaper
	// release chains — leave their domain heaps here. A stopped group
	// refuses re-arms, so a periodic racing teardown cannot resurrect.
	s.ctl.StopAll()
	for _, name := range s.vorder {
		s.vnodes[name].group.StopAll()
		s.vnodes[name].ticks.StopAll()
	}
	// 3. Flush buffered packets out of every Click element so the pool
	// ledger balances.
	for _, name := range s.vorder {
		s.vnodes[name].Router.Flush()
	}
	// 4. Release every acquired resource, newest first.
	s.res.releaseAll()
	// 5. Deregister from the infrastructure.
	delete(v.slices, s.cfg.Name)
	for i, n := range v.order {
		if n == s.cfg.Name {
			v.order = append(v.order[:i], v.order[i+1:]...)
			break
		}
	}
	s.state = StateDestroyed
	return nil
}

// ReEmbed re-pins every virtual link onto the current shortest physical
// path — the embedding step run again against live topology. Virtual
// links whose old path crossed a dead physical link move onto a live
// path and (for ExposePhysicalFailures slices) come back up. It returns
// the number of virtual links whose path changed. Must run at a barrier
// or on the control domain.
func (s *Slice) ReEmbed() (int, error) {
	if s.state == stateDraining || s.state == StateDestroyed {
		return 0, fmt.Errorf("core: cannot re-embed slice %s in state %s", s.cfg.Name, s.state)
	}
	changed := 0
	for _, vl := range s.vlinks {
		from, to := vl.A.phys.Name(), vl.B.phys.Name()
		path := s.vini.Net.Path(from, to)
		if path == nil {
			continue // endpoints disconnected: keep the stale pin
		}
		if !slices.Equal(path, vl.path) {
			vl.path = path
			changed++
		}
		if s.cfg.ExposePhysicalFailures {
			vl.physFailed = s.anyPathDown(vl.path)
			vl.applyFailState()
		}
	}
	return changed, nil
}

// anyPathDown reports whether any hop of the pinned path has lost every
// physical link that carries it.
func (s *Slice) anyPathDown(path []string) bool {
	for i := 0; i+1 < len(path); i++ {
		if s.vini.Net.Severed(path[i], path[i+1]) {
			return true
		}
	}
	return false
}

// usesPhysLink reports whether the pinned path traverses the physical
// link a-b.
func usesPhysLink(path []string, a, b string) bool {
	for i := 0; i+1 < len(path); i++ {
		x, y := path[i], path[i+1]
		if (x == a && y == b) || (x == b && y == a) {
			return true
		}
	}
	return false
}

// reserveCPU admits share on the named physical node, rejecting
// oversubscription of reservations (the sum of slice shares on a node
// may not exceed the whole CPU).
func (v *VINI) reserveCPU(node string, share float64) error {
	const eps = 1e-9
	if v.reserved[node]+share > 1.0+eps {
		return fmt.Errorf("core: CPU oversubscription on %s: %.3f reserved, %.3f requested",
			node, v.reserved[node], share)
	}
	v.reserved[node] += share
	return nil
}

// releaseCPU returns share to the node's admission budget.
func (v *VINI) releaseCPU(node string, share float64) {
	v.reserved[node] -= share
	if v.reserved[node] < 0 {
		v.reserved[node] = 0
	}
}
