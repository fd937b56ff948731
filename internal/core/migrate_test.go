package core

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"slices"
	"testing"
	"time"

	"vini/internal/iias"
	"vini/internal/netem"
	"vini/internal/packet"
	"vini/internal/sched"
	"vini/internal/telemetry"
)

const migProbePort = 45000

// buildQuad stands up west -- mid -- east plus a spare node reachable
// from both ends, the migration target.
func buildQuad(t *testing.T) *VINI {
	t.Helper()
	v := New(1)
	for i, n := range []string{"west", "mid", "east", "spare"} {
		a := netip.AddrFrom4([4]byte{198, 51, 100, byte(i + 1)})
		if _, err := v.AddNode(n, a, netem.DETERProfile(), sched.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range [][2]string{{"west", "mid"}, {"mid", "east"}, {"west", "spare"}, {"spare", "east"}} {
		if _, err := v.AddLink(netem.LinkConfig{A: l[0], B: l[1],
			Bandwidth: 1e9, Delay: time.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}
	v.ComputeRoutes()
	return v
}

// quadSlice embeds a west--mid--east line slice (spare stays free).
func quadSlice(t *testing.T, v *VINI, cfg SliceConfig) *Slice {
	t.Helper()
	s, err := v.CreateSlice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"west", "mid", "east"} {
		if _, err := s.AddVirtualNode(n); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range [][2]string{{"west", "mid"}, {"mid", "east"}} {
		if _, err := s.ConnectVirtual(l[0], l[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// probeLedger counts overlay probe deliveries per (destination, seq)
// on every physical node, the receiver side of the exactly-once check.
type probeLedger struct {
	got map[string]int
}

func watchProbes(t *testing.T, v *VINI, nodes ...string) *probeLedger {
	t.Helper()
	pl := &probeLedger{got: make(map[string]int)}
	for _, n := range nodes {
		node, ok := v.Net.Node(n)
		if !ok {
			t.Fatalf("no node %s", n)
		}
		if err := node.StackListenUDP(migProbePort, func(d []byte) {
			var ip packet.IPv4
			seg, err := ip.Parse(d)
			if err != nil {
				return
			}
			var u packet.UDP
			pay, err := u.Parse(seg)
			if err != nil || len(pay) < 4 {
				return
			}
			pl.got[fmt.Sprintf("%s#%d", ip.Dst, binary.BigEndian.Uint32(pay))]++
		}); err != nil {
			t.Fatal(err)
		}
	}
	return pl
}

func sendProbe(v *VINI, fromPhys string, src, dst netip.Addr, seq uint32) {
	var pay [4]byte
	binary.BigEndian.PutUint32(pay[:], seq)
	n, _ := v.Net.Node(fromPhys)
	n.StackSend(packet.BuildUDP(src, dst, migProbePort, migProbePort, 64, pay[:]))
}

// TestMigrateMakeBeforeBreakLossless drives continuous probe traffic
// through (and to) a migrating transit node and asserts zero loss, no
// duplicate deliveries, no OSPF adjacency churn, balanced ledgers, and
// a fully retired old incarnation.
func TestMigrateMakeBeforeBreakLossless(t *testing.T) {
	v := buildQuad(t)
	tel := v.EnableTelemetry()
	base := packet.Stats()
	s := quadSlice(t, v, SliceConfig{Name: "mg", CPUShare: 0.2, RT: true})
	s.StartOSPF(time.Second, 3*time.Second)
	v.Run(20 * time.Second)
	west, _ := s.VirtualNode("west")
	mid, _ := s.VirtualNode("mid")
	east, _ := s.VirtualNode("east")
	westTap, midTap, eastTap := west.TapAddr, mid.TapAddr, east.TapAddr
	if !hasRoute(west, eastTap) {
		t.Fatal("no route before migration")
	}
	pl := watchProbes(t, v, "west", "mid", "east", "spare")
	seq := uint32(0)
	burst := func(n int) {
		for i := 0; i < n; i++ {
			seq++
			sendProbe(v, "west", westTap, eastTap, seq) // through the migrating hop
			sendProbe(v, "west", westTap, midTap, seq)  // to the migrating node
			v.Run(v.loop.Now() + 100*time.Millisecond)
		}
	}
	burst(10) // pre-migration traffic
	migStart := v.loop.Now()
	m, err := s.Migrate("mid", "spare", MigrateOptions{Window: 2 * time.Second, Drain: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if s.State() != stateMigrating || m.Phase() != migWindow {
		t.Fatalf("state %v phase %v after Migrate, want Migrating/Window", s.State(), m.Phase())
	}
	burst(40) // 4s of traffic spanning window, cutover, drain, retire
	v.Run(v.loop.Now() + 5*time.Second)
	if m.Phase() != MigDone {
		t.Fatalf("phase = %v, want Done", m.Phase())
	}
	if s.State() != stateRunning {
		t.Fatalf("state = %v, want Running", s.State())
	}
	burst(10) // post-migration traffic
	v.Run(v.loop.Now() + 3*time.Second)

	// Exactly-once: every probe sent was delivered exactly once.
	if len(pl.got) != int(seq)*2 {
		t.Fatalf("delivered %d distinct probes, sent %d (in-flight loss)", len(pl.got), seq*2)
	}
	for k, n := range pl.got {
		if n != 1 {
			t.Fatalf("probe %s delivered %d times, want exactly once", k, n)
		}
	}
	// Double-delivery really ran: window traffic toward mid was cloned
	// to the shadow and suppressed there.
	if m.ClonesSent() == 0 {
		t.Fatal("no clones sent during the double-delivery window (test is vacuous)")
	}
	if m.CloneDrops() == 0 {
		t.Fatal("shadow's DupSuppress retired no clones")
	}
	// No OSPF adjacency churn after the migration started: the state
	// transplant keeps peers Full throughout.
	for _, ev := range tel.Rec.Events() {
		if ev.Kind == telemetry.EvNeighbor && ev.At >= migStart {
			t.Fatalf("OSPF neighbor event during migration: %+v", ev)
		}
	}
	// Identity moved: the slice now runs on spare, mid is clean.
	if _, ok := s.VirtualNode("mid"); ok {
		t.Fatal("mid still hosts the slice after migration")
	}
	moved, ok := s.VirtualNode("spare")
	if !ok {
		t.Fatal("spare does not host the slice after migration")
	}
	if moved.TapAddr != midTap {
		t.Fatalf("migrated vnode tap = %v, want %v (identity preserved)", moved.TapAddr, midTap)
	}
	midPhys, _ := v.Net.Node("mid")
	sparePhys, _ := v.Net.Node("spare")
	if midPhys.HasAddr(midTap) {
		t.Fatal("old physical node still answers for the migrated tap address")
	}
	if !sparePhys.HasAddr(midTap) {
		t.Fatal("target physical node does not answer for the migrated tap address")
	}
	// The transient double reservation resolved: mid's budget freed,
	// spare carries the slice's share.
	if got := v.reserved["mid"]; got != 0 {
		t.Fatalf("ReservedCPU(mid) = %v after retire, want 0", got)
	}
	if got := v.reserved["spare"]; got != 0.2 {
		t.Fatalf("ReservedCPU(spare) = %v, want 0.2", got)
	}
	if err := s.Audit(); err != nil {
		t.Fatal(err)
	}
	if f := packet.Stats().Sub(base).InFlight(); f != 0 {
		t.Fatalf("pool ledger unbalanced after migration: %d in flight", f)
	}
	// The moved slice keeps working: repeated migration back.
	if _, err := s.Migrate("spare", "mid", MigrateOptions{Window: time.Second, Drain: time.Second}); err != nil {
		t.Fatal(err)
	}
	burst(30)
	v.Run(v.loop.Now() + 3*time.Second)
	if _, ok := s.VirtualNode("mid"); !ok {
		t.Fatal("migration back to mid failed")
	}
	for k, n := range pl.got {
		if n != 1 {
			t.Fatalf("probe %s delivered %d times after return migration", k, n)
		}
	}
	if len(pl.got) != int(seq)*2 {
		t.Fatalf("delivered %d distinct probes, sent %d after return migration", len(pl.got), seq*2)
	}
}

func TestMigrateValidation(t *testing.T) {
	v := buildQuad(t)
	s := quadSlice(t, v, SliceConfig{Name: "mv", CPUShare: 0.2})
	// Not running yet.
	if _, err := s.Migrate("mid", "spare", MigrateOptions{}); err == nil {
		t.Fatal("migrate of an embedded (not running) slice accepted")
	}
	east, _ := s.VirtualNode("east")
	if err := east.EnableEgress(); err != nil {
		t.Fatal(err)
	}
	west, _ := s.VirtualNode("west")
	if err := west.EnableVPNServer(1194); err != nil {
		t.Fatal(err)
	}
	s.StartOSPF(time.Second, 3*time.Second)
	v.Run(10 * time.Second)
	if _, err := s.Migrate("nowhere", "spare", MigrateOptions{}); err == nil {
		t.Fatal("migrate of an unknown vnode accepted")
	}
	if _, err := s.Migrate("mid", "nowhere", MigrateOptions{}); err == nil {
		t.Fatal("migrate to an unknown target accepted")
	}
	if _, err := s.Migrate("mid", "west", MigrateOptions{}); err == nil {
		t.Fatal("migrate onto a node already hosting the slice accepted")
	}
	if _, err := s.Migrate("east", "spare", MigrateOptions{}); err == nil {
		t.Fatal("migrate of an egress (NAT) node accepted")
	}
	if _, err := s.Migrate("west", "spare", MigrateOptions{}); err == nil {
		t.Fatal("migrate of a VPN ingress node accepted")
	}
	if err := s.Audit(); err != nil {
		t.Fatal(err)
	}
	m, err := s.Migrate("mid", "spare", MigrateOptions{Window: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Migrate("west", "spare", MigrateOptions{}); err == nil {
		t.Fatal("second concurrent migration accepted")
	}
	if _, err := s.AddVirtualNode("spare"); err == nil {
		t.Fatal("embed during migration accepted")
	}
	if _, err := s.ConnectVirtual("west", "east", 1); err == nil {
		t.Fatal("connect during migration accepted")
	}
	if err := m.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := s.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestMigrateRejectsInterfaceAddedPastPeers: the embedded Forwarder
// promotes AddInterface onto VirtualNode, and an interface added through
// it has no peers[i]; migration must refuse such a node up front and
// leave the ledger clean, not index past peers mid-rebuild.
func TestMigrateRejectsInterfaceAddedPastPeers(t *testing.T) {
	v := buildQuad(t)
	s := quadSlice(t, v, SliceConfig{Name: "mp", CPUShare: 0.2})
	s.StartOSPF(time.Second, 3*time.Second)
	v.Run(10 * time.Second)
	west, _ := s.VirtualNode("west")
	if _, err := west.AddInterface(iias.Iface{
		Addr: netip.MustParseAddr("10.250.0.1"), PeerAddr: netip.MustParseAddr("10.250.0.2"),
		Prefix: netip.MustParsePrefix("10.250.0.0/30"), Cost: 1,
	}, netip.MustParseAddrPort("198.51.100.3:33000")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Migrate("west", "spare", MigrateOptions{}); err == nil {
		t.Fatal("migrate of a node with an interface that has no peer accepted")
	}
	if err := s.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestMigrateAdmissionReject proves the transient double reservation is
// subject to CPU admission control, and that a rejected migration
// leaves no trace: no shadow, no reservation, a clean ledger.
func TestMigrateAdmissionReject(t *testing.T) {
	v := buildQuad(t)
	s := quadSlice(t, v, SliceConfig{Name: "ma", CPUShare: 0.2})
	s.StartOSPF(time.Second, 3*time.Second)
	v.Run(10 * time.Second)
	hog, err := v.CreateSlice(SliceConfig{Name: "hog", CPUShare: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hog.AddVirtualNode("spare"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Migrate("mid", "spare", MigrateOptions{}); err == nil {
		t.Fatal("migration onto an oversubscribed node admitted")
	}
	if s.State() != stateRunning || s.mig != nil {
		t.Fatalf("rejected migration left state %v, mig %v", s.State(), s.mig)
	}
	if got := v.reserved["spare"]; got != 0.9 {
		t.Fatalf("ReservedCPU(spare) = %v after rejection, want 0.9", got)
	}
	if err := s.Audit(); err != nil {
		t.Fatalf("ledger dirty after rejected migration: %v", err)
	}
	// Freeing the target admits the retry.
	if err := hog.Destroy(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Migrate("mid", "spare", MigrateOptions{Window: 100 * time.Millisecond, Drain: 100 * time.Millisecond}); err != nil {
		t.Fatalf("retry after freeing the target: %v", err)
	}
	v.Run(v.loop.Now() + 2*time.Second)
	if _, ok := s.VirtualNode("spare"); !ok {
		t.Fatal("retry migration did not complete")
	}
}

// TestMigratePauseAborts: a pause before the cutover abandons the
// shadow — handles drop, reservation frees, the old instance stays.
func TestMigratePauseAborts(t *testing.T) {
	v := buildQuad(t)
	s := quadSlice(t, v, SliceConfig{Name: "mp", CPUShare: 0.2})
	s.StartOSPF(time.Second, 3*time.Second)
	v.Run(10 * time.Second)
	mid, _ := s.VirtualNode("mid")
	midTap := mid.TapAddr
	m, err := s.Migrate("mid", "spare", MigrateOptions{Window: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	v.Run(v.loop.Now() + time.Second) // inside the window
	if err := s.Pause(); err != nil {
		t.Fatal(err)
	}
	if m.Phase() != MigAborted {
		t.Fatalf("phase = %v after pause, want Aborted", m.Phase())
	}
	if s.State() != statePaused {
		t.Fatalf("state = %v, want Paused", s.State())
	}
	sparePhys, _ := v.Net.Node("spare")
	if sparePhys.HasAddr(midTap) {
		t.Fatal("aborted shadow still answers for the tap address")
	}
	if got := v.reserved["spare"]; got != 0 {
		t.Fatalf("ReservedCPU(spare) = %v after abort, want 0", got)
	}
	if err := s.Audit(); err != nil {
		t.Fatal(err)
	}
	// The stale cutover timer fires into the aborted migration: no-op.
	v.Run(v.loop.Now() + 10*time.Second)
	if err := s.Resume(); err != nil {
		t.Fatal(err)
	}
	if s.State() != stateRunning {
		t.Fatalf("state = %v after resume, want Running", s.State())
	}
	v.Run(v.loop.Now() + 30*time.Second)
	west, _ := s.VirtualNode("west")
	if !hasRoute(west, midTap) {
		t.Fatal("no route after abort + resume")
	}
	if _, ok := s.VirtualNode("mid"); !ok {
		t.Fatal("old instance gone after aborted migration")
	}
}

// TestMigratePausePastCommitRetiresEarly: once the cutover has run the
// migration only moves forward — a pause completes the retirement.
func TestMigratePausePastCommitRetiresEarly(t *testing.T) {
	v := buildQuad(t)
	s := quadSlice(t, v, SliceConfig{Name: "mc", CPUShare: 0.2})
	s.StartOSPF(time.Second, 3*time.Second)
	v.Run(10 * time.Second)
	mid, _ := s.VirtualNode("mid")
	midTap := mid.TapAddr
	m, err := s.Migrate("mid", "spare", MigrateOptions{Window: time.Second, Drain: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	v.Run(v.loop.Now() + 2*time.Second) // past cutover, deep in drain
	if m.Phase() != migDraining {
		t.Fatalf("phase = %v, want Draining", m.Phase())
	}
	if err := s.Pause(); err != nil {
		t.Fatal(err)
	}
	if m.Phase() != MigDone {
		t.Fatalf("phase = %v after pause, want Done (early retire)", m.Phase())
	}
	midPhys, _ := v.Net.Node("mid")
	if midPhys.HasAddr(midTap) {
		t.Fatal("old instance still holds the tap address after early retire")
	}
	if got := v.reserved["mid"]; got != 0 {
		t.Fatalf("ReservedCPU(mid) = %v, want 0", got)
	}
	if err := s.Audit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Resume(); err != nil {
		t.Fatal(err)
	}
	v.Run(v.loop.Now() + 30*time.Second)
	west, _ := s.VirtualNode("west")
	if !hasRoute(west, midTap) {
		t.Fatal("no route to the migrated node after resume")
	}
}

// TestDestroyMidMigration drives Destroy into both migration phases and
// demands the usual teardown invariants: empty ledger, no timers, no
// leaked packets.
func TestDestroyMidMigration(t *testing.T) {
	for _, tc := range []struct {
		name   string
		window time.Duration
		drain  time.Duration
		runFor time.Duration
		want   MigrationPhase
	}{
		{"during-window", 5 * time.Second, time.Second, time.Second, MigAborted},
		{"during-drain", time.Second, 30 * time.Second, 2 * time.Second, MigDone},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := buildQuad(t)
			base := packet.Stats()
			s := quadSlice(t, v, SliceConfig{Name: "md", CPUShare: 0.2})
			s.StartOSPF(time.Second, 3*time.Second)
			v.Run(10 * time.Second)
			m, err := s.Migrate("mid", "spare", MigrateOptions{Window: tc.window, Drain: tc.drain})
			if err != nil {
				t.Fatal(err)
			}
			v.Run(v.loop.Now() + tc.runFor)
			if err := s.Destroy(); err != nil {
				t.Fatal(err)
			}
			if m.Phase() != tc.want {
				t.Fatalf("phase = %v after destroy, want %v", m.Phase(), tc.want)
			}
			if err := s.Audit(); err != nil {
				t.Fatal(err)
			}
			v.Run(v.loop.Now() + 20*time.Second)
			if f := packet.Stats().Sub(base).InFlight(); f != 0 {
				t.Fatalf("pool ledger unbalanced: %d in flight", f)
			}
			if n := v.loop.Pending(); n != 0 {
				t.Fatalf("%d events still pending after destroy", n)
			}
			for _, n := range []string{"mid", "spare"} {
				if got := v.reserved[n]; got != 0 {
					t.Fatalf("ReservedCPU(%s) = %v after destroy, want 0", n, got)
				}
			}
		})
	}
}

// TestMigrateNaiveBaseline: the break-before-make path moves the node
// but drops in-flight packets — the blackout the default path avoids.
func TestMigrateNaiveBaseline(t *testing.T) {
	v := buildQuad(t)
	base := packet.Stats()
	s := quadSlice(t, v, SliceConfig{Name: "nv", CPUShare: 0.2})
	s.StartOSPF(time.Second, 3*time.Second)
	v.Run(20 * time.Second)
	mid, _ := s.VirtualNode("mid")
	east, _ := s.VirtualNode("east")
	west, _ := s.VirtualNode("west")
	midTap, eastTap, westTap := mid.TapAddr, east.TapAddr, west.TapAddr
	pl := watchProbes(t, v, "west", "mid", "east", "spare")
	// Launch probes and immediately migrate: the in-flight packets hit
	// the old instance's closed sockets.
	for i := uint32(1); i <= 5; i++ {
		sendProbe(v, "west", westTap, eastTap, i)
	}
	m, err := s.Migrate("mid", "spare", MigrateOptions{Naive: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.Phase() != MigDone {
		t.Fatalf("naive migration phase = %v, want Done (synchronous)", m.Phase())
	}
	if _, ok := s.VirtualNode("spare"); !ok {
		t.Fatal("naive migration did not move the vnode")
	}
	v.Run(v.loop.Now() + 60*time.Second) // reconverge from scratch
	if len(pl.got) >= 5 {
		t.Fatalf("naive migration delivered %d/5 in-flight probes, expected loss", len(pl.got))
	}
	// After reconvergence the moved slice forwards again.
	for i := uint32(100); i < 105; i++ {
		sendProbe(v, "west", westTap, eastTap, i)
		sendProbe(v, "west", westTap, midTap, i)
		v.Run(v.loop.Now() + 100*time.Millisecond)
	}
	v.Run(v.loop.Now() + 2*time.Second)
	for i := uint32(100); i < 105; i++ {
		if pl.got[fmt.Sprintf("%s#%d", eastTap, i)] != 1 {
			t.Fatalf("post-reconvergence probe %d to east not delivered once", i)
		}
		if pl.got[fmt.Sprintf("%s#%d", midTap, i)] != 1 {
			t.Fatalf("post-reconvergence probe %d to migrated node not delivered once", i)
		}
	}
	if err := s.Audit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Destroy(); err != nil {
		t.Fatal(err)
	}
	v.Run(v.loop.Now() + 10*time.Second)
	if f := packet.Stats().Sub(base).InFlight(); f != 0 {
		t.Fatalf("pool ledger unbalanced after naive migration: %d in flight", f)
	}
}

// TestReEmbedNoLivePathKeepsStalePin: when the substrate partitions,
// ReEmbed must keep the stale pin (and the exposed failure) rather than
// erase the embedding; healing the partition re-embeds normally.
func TestReEmbedNoLivePathKeepsStalePin(t *testing.T) {
	v := New(1)
	for i, n := range []string{"a", "b"} {
		addr := netip.AddrFrom4([4]byte{198, 51, 100, byte(i + 1)})
		if _, err := v.AddNode(n, addr, netem.DETERProfile(), sched.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := v.AddLink(netem.LinkConfig{A: "a", B: "b", Bandwidth: 1e9, Delay: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	v.ComputeRoutes()
	s, err := v.CreateSlice(SliceConfig{Name: "part", CPUShare: 0.2, ExposePhysicalFailures: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"a", "b"} {
		if _, err := s.AddVirtualNode(n); err != nil {
			t.Fatal(err)
		}
	}
	vl, err := s.ConnectVirtual("a", "b", 1)
	if err != nil {
		t.Fatal(err)
	}
	pinned := vl.Path()
	if err := v.FailLink("a", "b", 0); err != nil {
		t.Fatal(err)
	}
	if !vl.Failed() {
		t.Fatal("exposed failure did not fail the virtual link")
	}
	// The substrate is partitioned: no live path exists, so the stale
	// pin is kept and the link stays failed.
	changed, err := s.ReEmbed()
	if err != nil {
		t.Fatalf("ReEmbed on a partitioned substrate errored: %v", err)
	}
	if changed != 0 {
		t.Fatalf("ReEmbed changed %d links with no live path, want 0", changed)
	}
	if got := vl.Path(); !slices.Equal(got, pinned) {
		t.Fatalf("stale pin rewritten: %v, want %v", got, pinned)
	}
	if !vl.Failed() {
		t.Fatal("virtual link healed with no live physical path")
	}
	// Heal the partition: the same pin is shortest again and comes up.
	if err := v.RestoreLink("a", "b", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReEmbed(); err != nil {
		t.Fatal(err)
	}
	if vl.Failed() {
		t.Fatal("virtual link still failed after the substrate healed")
	}
}

// TestReEmbedMidRepinLinkDeath: a second failure landing on the freshly
// re-pinned path is picked up by the next ReEmbed — and when that
// failure severs the last path, the pin survives stale.
func TestReEmbedMidRepinLinkDeath(t *testing.T) {
	v := New(1)
	for i, n := range []string{"a", "b", "c"} {
		addr := netip.AddrFrom4([4]byte{198, 51, 100, byte(i + 1)})
		if _, err := v.AddNode(n, addr, netem.DETERProfile(), sched.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range [][2]string{{"a", "b"}, {"a", "c"}, {"c", "b"}} {
		if _, err := v.AddLink(netem.LinkConfig{A: l[0], B: l[1],
			Bandwidth: 1e9, Delay: time.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}
	v.ComputeRoutes()
	s, err := v.CreateSlice(SliceConfig{Name: "repin", CPUShare: 0.2, ExposePhysicalFailures: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"a", "b"} {
		if _, err := s.AddVirtualNode(n); err != nil {
			t.Fatal(err)
		}
	}
	vl, err := s.ConnectVirtual("a", "b", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.FailLink("a", "b", 0); err != nil {
		t.Fatal(err)
	}
	if changed, _ := s.ReEmbed(); changed != 1 {
		t.Fatalf("first ReEmbed changed %d, want 1 (detour via c)", changed)
	}
	detour := vl.Path()
	if len(detour) != 3 || detour[1] != "c" {
		t.Fatalf("detour path = %v, want via c", detour)
	}
	// The detour dies too: the substrate is now partitioned for a-b.
	if err := v.FailLink("c", "b", 0); err != nil {
		t.Fatal(err)
	}
	if !vl.Failed() {
		t.Fatal("failure on the re-pinned path not exposed")
	}
	// With no live path at all, ReEmbed falls back to the shortest path
	// ignoring failures (the direct link) — a deterministic best-effort
	// pin — and the link stays failed.
	changed, err := s.ReEmbed()
	if err != nil {
		t.Fatal(err)
	}
	if changed != 1 {
		t.Fatalf("partitioned ReEmbed changed %d links, want 1 (best-effort direct pin)", changed)
	}
	if got := vl.Path(); !slices.Equal(got, []string{"a", "b"}) {
		t.Fatalf("partitioned ReEmbed pinned %v, want the direct [a b]", got)
	}
	if !vl.Failed() {
		t.Fatal("virtual link healed while the substrate is partitioned")
	}
	// Heal only the detour: ReEmbed moves onto the live path via c.
	if err := v.RestoreLink("c", "b", 0); err != nil {
		t.Fatal(err)
	}
	if changed, _ := s.ReEmbed(); changed != 1 {
		t.Fatalf("healing ReEmbed changed %d, want 1", changed)
	}
	if got := vl.Path(); !slices.Equal(got, detour) {
		t.Fatalf("healed ReEmbed pinned %v, want the detour via c", got)
	}
	if vl.Failed() {
		t.Fatal("virtual link still failed after moving onto the healed path")
	}
}
