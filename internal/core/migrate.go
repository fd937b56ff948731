package core

// Live slice migration (make-before-break): move one virtual node to a
// different physical node while the slice keeps forwarding. The GENI
// recipe, adapted to IIAS:
//
//	Migrate()  — admit the shadow (transient double CPU reservation),
//	             clone the forwarder on the target, pre-install its
//	             FIB/encap/connected state, and start double-delivering:
//	             every neighbor sends the original packet to the old
//	             instance and a stamped clone to the shadow.
//	cutover()  — one control-domain barrier event: repoint every
//	             neighbor's encap entry at the shadow (with a drain
//	             alias for the old address), transplant the routing
//	             process state (ospf.ExportState → ImportState, so
//	             peers never see the adjacency reset), and swap the
//	             slice's identity maps to the shadow. This is the
//	             commit point.
//	retire()   — after the drain window, stop whatever the old
//	             incarnation still schedules, flush its Click buffers
//	             back to the pool, and drop its ledger handles
//	             newest-first (addresses, process, CPU reservation).
//
// Duplicate suppression is receiver-side and unconditional: clones are
// stamped (packet.Annotations.MigClone, carried by the wire codec) and
// every virtual node's DupSuppress element sits between FromTunnel and
// the checker, so delivery stays exactly-once no matter which instance
// wins a race. Suppression, not buffering, because the shadow would
// otherwise have to replay a buffer against live traffic at cutover —
// reordering — while suppression makes the window idempotent.

import (
	"fmt"
	"net/netip"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"vini/internal/fea"
	"vini/internal/fib"
	"vini/internal/netem"
	"vini/internal/telemetry"
)

// MigrateOptions tunes one migration.
type MigrateOptions struct {
	// Window is the double-delivery period before cutover; the shadow
	// warms while the old instance still forwards. Default 500ms.
	Window time.Duration
	// Drain keeps the old instance alive after cutover so packets
	// already in flight toward its address still deliver. Default 500ms.
	Drain time.Duration
	// Naive selects the break-before-make baseline: tear the old
	// instance down first, rebuild fresh on the target, and let routing
	// reconverge from scratch. In-flight packets drop and peers see the
	// adjacency reset — the blackout the default path exists to avoid.
	Naive bool
}

// MigrationPhase is the migration's position in its state machine.
type MigrationPhase int

const (
	// migWindow: shadow built and warming, double-delivery active, old
	// instance still authoritative. Abort is possible.
	migWindow MigrationPhase = iota
	// migDraining: cutover done (commit point passed), shadow
	// authoritative, old instance draining in-flight packets.
	migDraining
	// MigDone: old instance retired, every handle released.
	MigDone
	// MigAborted: shadow torn down before cutover; the old instance
	// never stopped being authoritative.
	MigAborted
)

func (p MigrationPhase) String() string {
	switch p {
	case migWindow:
		return "Window"
	case migDraining:
		return "Draining"
	case MigDone:
		return "Done"
	case MigAborted:
		return "Aborted"
	default:
		return fmt.Sprintf("MigrationPhase(%d)", int(p))
	}
}

// Migration tracks one in-flight (or completed) vnode migration.
type Migration struct {
	s      *Slice
	old    *VirtualNode
	shadow *VirtualNode
	// fromName/toName are the physical node names; the slice's vnode
	// key moves from one to the other at cutover.
	fromName, toName string
	fromAddr, toAddr netip.Addr
	drain            time.Duration
	phase            MigrationPhase
	// dup gates the double-delivery branch on every neighbor's
	// per-packet transmit path. Only control-domain barriers write it.
	dup bool
	// clones counts stamped duplicates sent to the shadow (senders run
	// in their own domains, hence atomic).
	clones atomic.Uint64
}

// Phase returns the migration's current state-machine position.
func (m *Migration) Phase() MigrationPhase { return m.phase }

// From and To return the old and new physical node names.
func (m *Migration) From() string { return m.fromName }
func (m *Migration) To() string   { return m.toName }

// ClonesSent counts the stamped duplicates sent to the shadow during
// the double-delivery window.
func (m *Migration) ClonesSent() uint64 { return m.clones.Load() }

// CloneDrops reads the shadow's DupSuppress drop counter: clones
// retired at the receiver. With suppression intact this tracks
// ClonesSent minus clones still in flight (or dropped en route).
func (m *Migration) CloneDrops() uint64 {
	if m.shadow == nil {
		return 0
	}
	v, err := m.shadow.Router.Handler("dup.drops", "")
	if err != nil {
		return 0
	}
	n, _ := strconv.ParseUint(v, 10, 64)
	return n
}

// Abort abandons a migration that has not reached its cutover: the
// shadow tears down, its ledger handles drop, and the old instance
// stays authoritative. Past the commit point the migration can only
// run forward.
func (m *Migration) Abort() error {
	if m.phase != migWindow {
		return fmt.Errorf("core: migration %s->%s is past the commit point (%s)",
			m.fromName, m.toName, m.phase)
	}
	m.abort()
	return nil
}

// Shadow returns the target-side clone. Mutation tests reach through it
// to sabotage the shadow's duplicate suppression and prove the
// exactly-once checkers fire.
func (m *Migration) Shadow() *VirtualNode { return m.shadow }

// BreakDupSuppressionForTest disables the duplicate-suppression element
// on this virtual node. Mutation tests use it to prove the migration
// invariant checkers have teeth: with suppression off, window clones
// leak to applications as duplicate deliveries.
func (vn *VirtualNode) BreakDupSuppressionForTest() {
	vn.Router.Handler("dup.active", "false")
}

// Migrate moves the virtual node currently on vnodeName to targetPhys.
// The slice must be Running; one migration runs at a time. The returned
// Migration reports progress (the work itself runs on the slice's
// control timers: cutover after opt.Window, retirement opt.Drain
// later). Must run at a barrier or on the control domain.
func (s *Slice) Migrate(vnodeName, targetPhys string, opt MigrateOptions) (*Migration, error) {
	if s.state != stateRunning {
		return nil, fmt.Errorf("core: cannot migrate slice %s in state %s", s.cfg.Name, s.state)
	}
	if s.mig != nil {
		return nil, fmt.Errorf("core: slice %s already has a migration in flight (%s->%s)",
			s.cfg.Name, s.mig.fromName, s.mig.toName)
	}
	old, ok := s.vnodes[vnodeName]
	if !ok {
		return nil, fmt.Errorf("core: no virtual node on %q", vnodeName)
	}
	if _, dup := s.vnodes[targetPhys]; dup {
		return nil, fmt.Errorf("core: slice %s already on node %s", s.cfg.Name, targetPhys)
	}
	target, ok := s.vini.Net.Node(targetPhys)
	if !ok {
		return nil, fmt.Errorf("core: unknown physical node %q", targetPhys)
	}
	if old.vpn != nil || old.egress {
		return nil, fmt.Errorf("core: cannot migrate %s: VPN/NAT flow state is node-local", vnodeName)
	}
	if opt.Window <= 0 {
		opt.Window = 500 * time.Millisecond
	}
	if opt.Drain <= 0 {
		opt.Drain = 500 * time.Millisecond
	}
	if opt.Naive {
		return s.migrateNaive(old, target, vnodeName, targetPhys)
	}
	// Admission: the shadow holds a full reservation on the target while
	// the old instance keeps its own — the transient double reservation
	// is subject to the same oversubscription check as any embedding.
	if err := s.vini.reserveCPU(targetPhys, s.cfg.CPUShare); err != nil {
		return nil, err
	}
	cpu := s.res.acquire("cpu", targetPhys, func() { s.vini.releaseCPU(targetPhys, s.cfg.CPUShare) })
	shadow, err := s.buildShadow(old, target, true)
	if err != nil {
		if shadow != nil {
			s.dropVnodeHandles(shadow)
		}
		s.res.drop(cpu)
		return nil, err
	}
	shadow.handles = append([]*handle{cpu}, shadow.handles...)
	m := &Migration{
		s: s, old: old, shadow: shadow,
		fromName: vnodeName, toName: targetPhys,
		fromAddr: old.phys.Addr(), toAddr: target.Addr(),
		drain: opt.Drain, phase: migWindow,
	}
	s.mig = m
	m.dup = true
	s.state = stateMigrating
	m.event("window", m.fromName)
	s.ctl.Schedule(opt.Window, m.cutover)
	return m, nil
}

// buildShadow clones the old incarnation's configuration onto the
// target node: process, interfaces (same tunnel indices), link fail
// bits and shaper rates, and — when preinstall is set — the old RIB's
// protocol routes, so the shadow forwards correctly from its first
// packet. A partially built shadow is returned alongside the error so
// the caller can drop its handles.
func (s *Slice) buildShadow(old *VirtualNode, target *netem.Node, preinstall bool) (*VirtualNode, error) {
	if len(old.peers) != len(old.Interfaces()) {
		return nil, fmt.Errorf("core: %s has %d interfaces but %d peers: one was added past addInterface",
			old.phys.Name(), len(old.Interfaces()), len(old.peers))
	}
	shadow, err := newVirtualNode(s, target, old.TapAddr)
	if err != nil {
		return nil, err
	}
	// Replay the interface plan in index order so tunnel indices line up
	// with the old instance's (OSPF interface indices, encap entries,
	// and per-tunnel Click chains all key on them).
	for i, ifc := range old.Interfaces() {
		if _, err := shadow.addInterface(ifc.Prefix, ifc.Addr, ifc.PeerAddr, old.peers[i], ifc.Cost); err != nil {
			return shadow, err
		}
	}
	// Replicate link configuration: effective fail bits and shaper caps.
	for _, vl := range s.vlinks {
		if vl.A == old {
			shadow.SetTunnelFailed(vl.AIf, vl.applied)
			shadow.SetTunnelRate(vl.AIf, vl.bw)
		}
		if vl.B == old {
			shadow.SetTunnelFailed(vl.BIf, vl.applied)
			shadow.SetTunnelRate(vl.BIf, vl.bw)
		}
	}
	shadow.Stubs = append([]netip.Prefix(nil), old.Stubs...)
	if preinstall {
		// Pre-install the FIB: the old RIB's protocol routes copy over
		// as data; the shadow's own routing process takes over at
		// cutover (connected routes were installed by addInterface).
		for _, pr := range []struct {
			proto string
			dist  int
		}{{"static", fea.DistStatic}, {"ospf", fea.DistOSPF}, {"rip", fea.DistRIP}} {
			if rts := old.RIB().ProtoRoutes(pr.proto); len(rts) > 0 {
				shadow.RIB().SetRoutes(pr.proto, pr.dist, rts)
			}
		}
		shadow.bgpRaw = append([]fib.Route(nil), old.bgpRaw...)
		shadow.bgpAttached = old.bgpAttached
		if shadow.bgpAttached {
			shadow.resolveBGP()
		}
	}
	return shadow, nil
}

// cutover is the commit point, one atomic control-domain event: from
// this barrier on the shadow is the slice's presence on the target.
func (m *Migration) cutover() {
	if m.phase != migWindow {
		return // aborted before the window elapsed
	}
	s, old, shadow := m.s, m.old, m.shadow
	// 1. Stop double-delivery: senders now see repointed encap entries.
	m.dup = false
	// 2. Repoint every neighbor at the shadow's physical address, with a
	// drain alias so the old instance's in-flight traffic (outer source
	// = old address) still demultiplexes to the right ingress tunnel.
	for i, ifc := range old.Interfaces() {
		peer := old.peers[i]
		if e, ok := peer.Encap.Lookup(ifc.Addr); ok {
			peer.Encap.SetRemoteAlias(m.fromAddr, m.toAddr)
			e.Remote = m.toAddr
			peer.Encap.Set(e)
		}
	}
	// 3. Transplant the routing processes. OSPF state moves wholesale —
	// sequence numbers, LSDB, Full neighbors — so peers never see a
	// hello that forgets them (which would reset the adjacency and
	// trigger the reconvergence the naive path suffers). RIP has no
	// adjacency state; a fresh instance re-announces within one update
	// period while the pre-installed routes keep forwarding.
	if old.OSPF != nil {
		st := old.OSPF.ExportState()
		old.OSPF.Stop()
		r := shadow.buildOSPF(old.ospfHello, old.ospfDead)
		if err := r.ImportState(st); err != nil {
			// Unreachable by construction (identical interface plan),
			// but never start a half-imported router silently.
			m.event("import-error: "+err.Error(), m.toName)
		}
		r.Start()
	}
	if old.RIP != nil {
		old.RIP.Stop()
		shadow.startRIP(old.ripUpdate)
	}
	// 4. Swap identity, and let the re-pinned links see the substrate's
	// failures along their new paths.
	s.swapIdentity(old, shadow, m.fromName, m.toName)
	if s.cfg.ExposePhysicalFailures {
		for _, vl := range s.vlinks {
			if vl.A == shadow || vl.B == shadow {
				vl.physFailed = s.anyPathDown(vl.path)
				vl.applyFailState()
			}
		}
	}
	m.phase = migDraining
	m.event("cutover", m.toName)
	s.ctl.Schedule(m.drain, m.retire)
}

// swapIdentity makes shadow the slice's virtual node on toName in place
// of old on fromName: the name maps, the virtual links (re-pinned to the
// physical path between their new endpoints) and every neighbor's peer
// pointer follow.
func (s *Slice) swapIdentity(old, shadow *VirtualNode, fromName, toName string) {
	delete(s.vnodes, fromName)
	s.vnodes[toName] = shadow
	s.vorder[slices.Index(s.vorder, fromName)] = toName
	for _, vl := range s.vlinks {
		if vl.A != old && vl.B != old {
			continue
		}
		if vl.A == old {
			vl.A = shadow
		}
		if vl.B == old {
			vl.B = shadow
		}
		a, b := vl.A.phys.Name(), vl.B.phys.Name()
		vl.name = a + "-" + b
		vl.path = s.vini.Net.Path(a, b)
	}
	for _, n := range s.vorder {
		for i, peer := range s.vnodes[n].peers {
			if peer == old {
				s.vnodes[n].peers[i] = shadow
			}
		}
	}
}

// retire finishes the migration: the old incarnation's timers cancel,
// its buffered packets flush back to the pool, and its ledger handles
// drop newest-first (interface addresses, tap address, process, CPU
// reservation). The drain aliases clear — the old address is dead.
func (m *Migration) retire() {
	if m.phase != migDraining {
		return
	}
	s, old := m.s, m.old
	old.group.StopAll()
	old.ticks.StopAll()
	old.Router.Flush()
	s.dropVnodeHandles(old)
	for _, peer := range m.shadow.peers {
		peer.Encap.ClearRemoteAlias(m.fromAddr)
	}
	m.phase = MigDone
	s.mig = nil
	if s.state == stateMigrating {
		s.state = stateRunning
	}
	m.event("retired", m.fromName)
}

// abort tears the shadow down before the commit point; the old
// instance was authoritative throughout, so nothing else changes.
func (m *Migration) abort() {
	s, shadow := m.s, m.shadow
	m.dup = false
	shadow.group.StopAll()
	shadow.ticks.StopAll()
	shadow.Router.Flush()
	s.dropVnodeHandles(shadow)
	m.phase = MigAborted
	s.mig = nil
	if s.state == stateMigrating {
		s.state = stateRunning
	}
	m.event("aborted", m.toName)
}

// finish resolves an in-flight migration synchronously (Pause/Destroy
// interleavings): pre-cutover it aborts — the shadow never carried
// traffic — post-cutover it completes the retirement early, because
// the cutover is the commit point.
func (m *Migration) finish() {
	switch m.phase {
	case migWindow:
		m.abort()
	case migDraining:
		m.retire()
	}
}

// dropVnodeHandles releases one incarnation's ledger handles
// newest-first, leaving the rest of the slice's ledger intact.
func (s *Slice) dropVnodeHandles(vn *VirtualNode) {
	for i := len(vn.handles) - 1; i >= 0; i-- {
		s.res.drop(vn.handles[i])
	}
	vn.handles = nil
}

// migrateNaive is the break-before-make baseline: retire first, build
// fresh, reconverge. Synchronous; the returned Migration is already
// Done. Packets in flight toward the old instance are dropped at its
// closed sockets, and peers' OSPF adjacencies reset when the fresh
// instance's first hello does not list them — the measured blackout.
func (s *Slice) migrateNaive(old *VirtualNode, target *netem.Node, fromName, toName string) (*Migration, error) {
	m := &Migration{
		s: s, old: old,
		fromName: fromName, toName: toName,
		fromAddr: old.phys.Addr(), toAddr: target.Addr(),
	}
	hadOSPF, hadRIP := old.OSPF != nil, old.RIP != nil
	hello, dead, update := old.ospfHello, old.ospfDead, old.ripUpdate
	// Admission still precedes teardown: a rejected target must not
	// cost the slice its node.
	if err := s.vini.reserveCPU(toName, s.cfg.CPUShare); err != nil {
		return nil, err
	}
	cpu := s.res.acquire("cpu", toName, func() { s.vini.releaseCPU(toName, s.cfg.CPUShare) })
	// 1. Break: stop and retire the old instance.
	if old.OSPF != nil {
		old.OSPF.Stop()
	}
	if old.RIP != nil {
		old.RIP.Stop()
	}
	old.group.StopAll()
	old.ticks.StopAll()
	old.Router.Flush()
	s.dropVnodeHandles(old)
	delete(s.vnodes, fromName)
	// 2. Make: fresh build on the target — topology replicates (it is
	// configuration), routing state does not.
	shadow, err := s.buildShadow(old, target, false)
	if err != nil {
		if shadow != nil {
			s.dropVnodeHandles(shadow)
		}
		s.res.drop(cpu)
		return nil, fmt.Errorf("core: naive migrate rebuild failed (vnode %s lost): %w", fromName, err)
	}
	shadow.handles = append([]*handle{cpu}, shadow.handles...)
	m.shadow = shadow
	// 3. Repoint neighbors (no drain alias: the old address is gone).
	for i, ifc := range shadow.Interfaces() {
		peer := shadow.peers[i]
		if e, ok := peer.Encap.Lookup(ifc.Addr); ok {
			e.Remote = m.toAddr
			peer.Encap.Set(e)
		}
	}
	// 4. Swap identity and restart routing from scratch.
	s.swapIdentity(old, shadow, fromName, toName)
	if hadOSPF {
		shadow.startOSPF(hello, dead)
	}
	if hadRIP {
		shadow.startRIP(update)
	}
	m.phase = MigDone
	m.event("naive", toName)
	return m, nil
}

// event records a migration lifecycle event on the control timeline.
func (m *Migration) event(detail, node string) {
	if tel := m.s.vini.tel; tel != nil {
		tel.Rec.Record(m.s.vini.loop.Domain, telemetry.Event{
			Kind:   telemetry.EvSession,
			Slice:  m.s.cfg.Name,
			Node:   node,
			Elem:   "migrate",
			Detail: detail,
		})
	}
}
