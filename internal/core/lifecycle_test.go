package core

import (
	"errors"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"vini/internal/netem"
	"vini/internal/packet"
	"vini/internal/sched"
	"vini/internal/telemetry"
)

// buildLine stands up a minimal west -- mid -- east substrate.
func buildLine(t *testing.T, seed int64) *VINI {
	t.Helper()
	v := New(seed)
	for i, n := range []string{"west", "mid", "east"} {
		a := netip.AddrFrom4([4]byte{198, 51, 100, byte(i + 1)})
		if _, err := v.AddNode(n, a, netem.DETERProfile(), sched.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range [][2]string{{"west", "mid"}, {"mid", "east"}} {
		if _, err := v.AddLink(netem.LinkConfig{A: l[0], B: l[1],
			Bandwidth: 1e9, Delay: time.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}
	v.ComputeRoutes()
	return v
}

func TestCreateSliceValidatesCPUShare(t *testing.T) {
	v := buildLine(t, 1)
	if _, err := v.CreateSlice(SliceConfig{Name: "big", CPUShare: 1.5}); err == nil {
		t.Fatal("CPUShare > 1 admitted")
	}
	if _, err := v.CreateSlice(SliceConfig{Name: "neg", CPUShare: -0.1}); err == nil {
		t.Fatal("negative CPUShare admitted")
	}
	s, err := v.CreateSlice(SliceConfig{Name: "def"})
	if err != nil {
		t.Fatal(err)
	}
	if s.cfg.CPUShare != 1.0/40 {
		t.Fatalf("default share = %v, want 1/40", s.cfg.CPUShare)
	}
}

func TestAdmissionRejectsCPUOversubscription(t *testing.T) {
	v := buildLine(t, 1)
	a, err := v.CreateSlice(SliceConfig{Name: "a", CPUShare: 0.75})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.AddVirtualNode("west"); err != nil {
		t.Fatal(err)
	}
	b, err := v.CreateSlice(SliceConfig{Name: "b", CPUShare: 0.75})
	if err != nil {
		t.Fatal(err) // admission is per node, not per substrate
	}
	if _, err := b.AddVirtualNode("west"); err == nil {
		t.Fatal("0.75 + 0.75 on one node admitted")
	}
	// A different node has a full budget.
	if _, err := b.AddVirtualNode("east"); err != nil {
		t.Fatalf("admission rejected a free node: %v", err)
	}
	if got := v.reserved["west"]; got != 0.75 {
		t.Fatalf("ReservedCPU(west) = %v after rejection, want 0.75", got)
	}
	// Destroying the first slice returns its reservation.
	if err := a.Destroy(); err != nil {
		t.Fatal(err)
	}
	if got := v.reserved["west"]; got != 0 {
		t.Fatalf("ReservedCPU(west) = %v after destroy, want 0", got)
	}
	if _, err := b.AddVirtualNode("west"); err != nil {
		t.Fatalf("re-admission after destroy failed: %v", err)
	}
}

func TestSliceIDBoundAndRecycling(t *testing.T) {
	v := buildLine(t, 1)
	// Unsized (legacy-shape) slices each take a 256-port span, so the
	// port space admits exactly 126 of them — the historical bound, now
	// enforced by the allocator rather than id arithmetic.
	var slices []*Slice
	for i := 0; i < 126; i++ {
		s, err := v.CreateSlice(SliceConfig{Name: string(rune('A'+i/26)) + string(rune('a'+i%26))})
		if err != nil {
			t.Fatalf("slice %d: %v", i, err)
		}
		slices = append(slices, s)
	}
	last := slices[len(slices)-1]
	// Every allocated block fits in uint16 and matches the historical
	// layout for sequential unsized admissions.
	if hi := int(last.basePort) + 255; hi > 65535 || int(last.basePort) != 33000+256*126 {
		t.Fatalf("port block [%d, %d] out of range", last.basePort, hi)
	}
	if _, err := v.CreateSlice(SliceConfig{Name: "overflow"}); err == nil {
		t.Fatal("unsized slice past the port space admitted")
	} else if !errors.Is(err, errExhausted) {
		t.Fatalf("exhaustion error not typed: %v", err)
	}
	// Sized slices break the ceiling: destroying one unsized slice
	// frees a 256-port block, which the allocator splits into 64
	// 4-port spans — 63 more concurrent slices than the old scheme
	// could ever hold.
	if err := slices[0].Destroy(); err != nil {
		t.Fatal(err)
	}
	var sized []*Slice
	for i := 0; i < 64; i++ {
		s, err := v.CreateSlice(SliceConfig{Name: fmt.Sprintf("sized%02d", i), MaxNodes: 3, MaxLinks: 3})
		if err != nil {
			t.Fatalf("sized slice %d: %v", i, err)
		}
		if s.Prefix().Bits() <= 16 {
			t.Fatalf("sized slice got a %v block, want smaller than /16", s.Prefix())
		}
		sized = append(sized, s)
	}
	if len(v.order) != 125+64 {
		t.Fatalf("%d concurrent slices, want 189 (past the old 126 ceiling)", len(v.order))
	}
	if _, err := v.CreateSlice(SliceConfig{Name: "sizedover", MaxNodes: 3}); !errors.Is(err, errExhausted) {
		t.Fatalf("sized slice past the port space: %v, want ErrExhausted", err)
	}
	for _, s := range sized {
		if err := s.Destroy(); err != nil {
			t.Fatal(err)
		}
	}
	// Destroy recycles the id, port block, and prefix (LIFO).
	victim := slices[41]
	id, port, prefix := victim.id, victim.basePort, victim.Prefix()
	if err := victim.Destroy(); err != nil {
		t.Fatal(err)
	}
	s, err := v.CreateSlice(SliceConfig{Name: "recycled"})
	if err != nil {
		t.Fatalf("create after destroy: %v", err)
	}
	if s.id != id || s.basePort != port || s.Prefix() != prefix {
		t.Fatalf("recycled slice got id=%d port=%d prefix=%v, want %d/%d/%v",
			s.id, s.basePort, s.Prefix(), id, port, prefix)
	}
	if err := v.AuditAddressPlan(); err != nil {
		t.Fatal(err)
	}
}

func TestEgressPortSpace(t *testing.T) {
	v := buildLine(t, 1)
	// Egress works regardless of slice id: the NAT range is allocated,
	// not derived from 40000+512*id (which wrapped past id 48 and
	// overlapped tunnel blocks from id 28).
	for i := 0; i < 60; i++ {
		if _, err := v.CreateSlice(SliceConfig{
			Name: string(rune('a'+i/26)) + string(rune('A'+i%26)), MaxNodes: 3}); err != nil {
			t.Fatal(err)
		}
	}
	s, err := v.CreateSlice(SliceConfig{Name: "edge", MaxNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	vn, err := s.AddVirtualNode("west")
	if err != nil {
		t.Fatal(err)
	}
	if err := vn.EnableEgress(); err != nil {
		t.Fatalf("egress at id %d: %v", s.id, err)
	}
	nat := s.natPorts
	if !nat.valid() || nat.size() != 512 {
		t.Fatalf("NAT range %v, want a valid 512-port span", nat)
	}
	// The NAT range must not overlap any slice's tunnel block — the
	// latent bug of the arithmetic scheme.
	for _, name := range v.order {
		tun := v.slices[name].PortRange()
		if nat.Lo <= tun.Hi && tun.Lo <= nat.Hi {
			t.Fatalf("NAT range %v overlaps tunnel block %v of slice %s", nat, tun, name)
		}
	}
	// A second egress node on the same slice shares the range.
	vn2, err := s.AddVirtualNode("east")
	if err != nil {
		t.Fatal(err)
	}
	if err := vn2.EnableEgress(); err != nil {
		t.Fatal(err)
	}
	if got := s.natPorts; got != nat {
		t.Fatalf("second egress reallocated the NAT range: %v then %v", nat, got)
	}
	// Destroy returns the range; the next slice's egress reuses it.
	if err := s.Destroy(); err != nil {
		t.Fatal(err)
	}
	s2, err := v.CreateSlice(SliceConfig{Name: "edge2", MaxNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	vn3, err := s2.AddVirtualNode("west")
	if err != nil {
		t.Fatal(err)
	}
	if err := vn3.EnableEgress(); err != nil {
		t.Fatal(err)
	}
	if got := s2.natPorts; got != nat {
		t.Fatalf("NAT range not recycled LIFO: %v, want %v", got, nat)
	}
	if err := v.AuditAddressPlan(); err != nil {
		t.Fatal(err)
	}
}

// lineSlice embeds the slice on all three nodes in a line.
func lineSlice(t *testing.T, v *VINI, cfg SliceConfig) *Slice {
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

// hasRoute reports whether the virtual node's FIB reaches dst.
func hasRoute(vn *VirtualNode, dst netip.Addr) bool {
	_, ok := vn.FIB.Lookup(dst)
	return ok
}

func TestSliceStateMachine(t *testing.T) {
	v := buildLine(t, 1)
	s, err := v.CreateSlice(SliceConfig{Name: "sm", CPUShare: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if s.State() != stateAdmitted {
		t.Fatalf("state = %v, want Admitted", s.State())
	}
	if _, err := s.AddVirtualNode("west"); err != nil {
		t.Fatal(err)
	}
	if s.State() != stateEmbedded {
		t.Fatalf("state = %v, want Embedded", s.State())
	}
	s.StartOSPF(time.Second, 3*time.Second)
	if s.State() != stateRunning {
		t.Fatalf("state = %v, want Running", s.State())
	}
	if err := s.Pause(); err != nil {
		t.Fatal(err)
	}
	if s.State() != statePaused {
		t.Fatalf("state = %v, want Paused", s.State())
	}
	if err := s.Resume(); err != nil {
		t.Fatal(err)
	}
	if s.State() != stateRunning {
		t.Fatalf("state = %v, want Running after resume", s.State())
	}
	if err := s.Destroy(); err != nil {
		t.Fatal(err)
	}
	if s.State() != StateDestroyed {
		t.Fatalf("state = %v, want Destroyed", s.State())
	}
	if err := s.Resume(); err == nil {
		t.Fatal("resume of a destroyed slice accepted")
	}
	if err := s.Pause(); err == nil {
		t.Fatal("pause of a destroyed slice accepted")
	}
	if _, err := s.AddVirtualNode("mid"); err == nil {
		t.Fatal("embed on a destroyed slice accepted")
	}
	if _, err := s.ReEmbed(); err == nil {
		t.Fatal("re-embed of a destroyed slice accepted")
	}
	if err := s.Destroy(); err != nil {
		t.Fatalf("destroy not idempotent: %v", err)
	}
	if err := s.Audit(); err != nil {
		t.Fatalf("audit after destroy: %v", err)
	}
}

func TestPauseStopsSliceAndResumeReconverges(t *testing.T) {
	v := buildLine(t, 1)
	s := lineSlice(t, v, SliceConfig{Name: "pr", CPUShare: 0.3, RT: true})
	s.StartOSPF(time.Second, 3*time.Second)
	v.Run(20 * time.Second)
	west, _ := s.VirtualNode("west")
	east, _ := s.VirtualNode("east")
	if !hasRoute(west, east.TapAddr) {
		t.Fatal("no route before pause")
	}
	midUsed := func() time.Duration {
		vn, _ := s.VirtualNode("mid")
		return vn.proc.Task().Used()
	}
	if err := s.Pause(); err != nil {
		t.Fatal(err)
	}
	before := midUsed()
	// Past the dead interval: the paused slice's neighbors expire and
	// its forwarder burns no CPU.
	v.Run(40 * time.Second)
	if used := midUsed() - before; used != 0 {
		t.Fatalf("paused forwarder consumed %v CPU", used)
	}
	if len(west.OSPF.Neighbors()) != 0 {
		t.Fatalf("paused node keeps %d OSPF adjacencies", len(west.OSPF.Neighbors()))
	}
	if err := s.Resume(); err != nil {
		t.Fatal(err)
	}
	v.Run(80 * time.Second)
	if !hasRoute(west, east.TapAddr) {
		t.Fatal("no route after resume (reconvergence failed)")
	}
	if len(west.OSPF.Neighbors()) == 0 {
		t.Fatal("adjacency did not re-form after resume")
	}
}

// TestStrictSliceGetsNoIdleCPU: a Strict slice's forwarder, flooded on an
// otherwise idle node, receives its CPUShare and no more (§6.2), while
// the same slice without Strict soaks up the idle cycles.
func TestStrictSliceGetsNoIdleCPU(t *testing.T) {
	const share = 0.05
	util := func(strict bool) float64 {
		v := buildLine(t, 1)
		s := lineSlice(t, v, SliceConfig{Name: "st", CPUShare: share, Strict: strict})
		s.StartOSPF(time.Second, 3*time.Second)
		v.Run(20 * time.Second)
		west, _ := s.VirtualNode("west")
		east, _ := s.VirtualNode("east")
		// 100 probes per 10 ms is many times the share's worth of
		// forwarding. The first 2 s drain the token bucket; the next
		// 2 s are measured.
		var seq uint32
		flood := func(d time.Duration) {
			for end := v.loop.Now() + d; v.loop.Now() < end; {
				for range 100 {
					seq++
					sendProbe(v, "west", west.TapAddr, east.TapAddr, seq)
				}
				v.Run(v.loop.Now() + 10*time.Millisecond)
			}
		}
		flood(2 * time.Second)
		before := west.proc.Task().Used()
		flood(2 * time.Second)
		return float64(west.proc.Task().Used()-before) / float64(2*time.Second)
	}
	if u := util(false); u < 3*share {
		t.Fatalf("work-conserving forwarder got %.3f of the CPU, want well above %.2f", u, share)
	}
	if u := util(true); u < 0.8*share || u > 1.2*share {
		t.Fatalf("strict forwarder got %.3f of an idle CPU, want ~%.2f", u, share)
	}
}

func TestDestroyReleasesEverything(t *testing.T) {
	v := buildLine(t, 1)
	tel := v.EnableTelemetry()
	base := packet.Stats()
	s := lineSlice(t, v, SliceConfig{Name: "doomed", CPUShare: 0.3, RT: true})
	s.StartOSPF(time.Second, 3*time.Second)
	v.Run(15 * time.Second)
	if tel.Reg.Series("doomed") == 0 {
		t.Fatal("no telemetry series before destroy (test is vacuous)")
	}
	west, _ := s.VirtualNode("west")
	tap := west.TapAddr
	port := s.basePort
	phys := west.phys
	if err := s.Destroy(); err != nil {
		t.Fatal(err)
	}
	if err := s.Audit(); err != nil {
		t.Fatal(err)
	}
	// Run past any in-flight deliveries, then the world must be clean.
	v.Run(25 * time.Second)
	if f := packet.Stats().Sub(base).InFlight(); f != 0 {
		t.Fatalf("pool ledger unbalanced after destroy: %d in flight", f)
	}
	if n := v.loop.Pending(); n != 0 {
		t.Fatalf("%d events still pending after destroy (orphaned timers)", n)
	}
	if tel.Reg.Series("doomed") != 0 {
		t.Fatalf("%d telemetry series survive destroy", tel.Reg.Series("doomed"))
	}
	if phys.HasAddr(tap) {
		t.Fatal("tap address still on the physical node")
	}
	if _, ok := v.slices["doomed"]; ok {
		t.Fatal("destroyed slice still registered")
	}
	// The whole identity recycles: same id, ports, prefix, and the
	// substrate accepts the rebind while still running.
	s2 := lineSlice(t, v, SliceConfig{Name: "next", CPUShare: 0.3, RT: true})
	if s2.basePort != port {
		t.Fatalf("port block not recycled: %d, want %d", s2.basePort, port)
	}
	s2.StartOSPF(time.Second, 3*time.Second)
	v.Run(v.loop.Now() + 20*time.Second)
	w2, _ := s2.VirtualNode("west")
	e2, _ := s2.VirtualNode("east")
	if !hasRoute(w2, e2.TapAddr) {
		t.Fatal("recycled slice failed to converge")
	}
}

func TestReEmbedMovesVirtualLinkOffDeadPath(t *testing.T) {
	v := New(1)
	for i, n := range []string{"a", "b", "c"} {
		addr := netip.AddrFrom4([4]byte{198, 51, 100, byte(i + 1)})
		if _, err := v.AddNode(n, addr, netem.DETERProfile(), sched.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	// Triangle: a-b direct (cheap), plus a-c and c-b (detour).
	for _, l := range [][2]string{{"a", "b"}, {"a", "c"}, {"c", "b"}} {
		if _, err := v.AddLink(netem.LinkConfig{A: l[0], B: l[1],
			Bandwidth: 1e9, Delay: time.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}
	v.ComputeRoutes()
	s, err := v.CreateSlice(SliceConfig{Name: "re", CPUShare: 0.3, ExposePhysicalFailures: true})
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
	if got := vl.Path(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("embed path = %v, want [a b]", got)
	}
	if err := v.FailLink("a", "b", 0); err != nil {
		t.Fatal(err)
	}
	if !vl.Failed() {
		t.Fatal("exposed physical failure did not fail the virtual link")
	}
	changed, err := s.ReEmbed()
	if err != nil {
		t.Fatal(err)
	}
	if changed != 1 {
		t.Fatalf("ReEmbed changed %d links, want 1", changed)
	}
	if got := vl.Path(); len(got) != 3 || got[1] != "c" {
		t.Fatalf("re-embedded path = %v, want the detour via c", got)
	}
	if vl.Failed() {
		t.Fatal("virtual link still failed after re-embedding onto a live path")
	}
	// The dead direct link no longer matters; restoring it does not
	// flap the virtual link (its path runs via c now).
	if err := v.RestoreLink("a", "b", 0); err != nil {
		t.Fatal(err)
	}
	if vl.Failed() {
		t.Fatal("restore flapped a link that no longer rides the path")
	}
	// A second ReEmbed moves it back to the (again shortest) direct path.
	if changed, _ := s.ReEmbed(); changed != 1 {
		t.Fatalf("ReEmbed back changed %d, want 1", changed)
	}
	// Injected failures survive re-embedding (they are experiment state).
	vl.SetFailed(true)
	if _, err := s.ReEmbed(); err != nil {
		t.Fatal(err)
	}
	if !vl.Failed() {
		t.Fatal("ReEmbed cleared an injected failure")
	}
}

// TestRestartOSPFReplacesRouters: a second StartOSPF replaces each
// virtual node's router instead of leaving the first one speaking under
// the same router ID with no neighbours, which flaps every adjacency.
func TestRestartOSPFReplacesRouters(t *testing.T) {
	const hello = time.Second
	// run returns the neighbour events and route installs of 60 virtual
	// seconds, and the hellos heard on the wire over the last 40.
	run := func(starts int) (neighbor, route, hellos int) {
		v := buildLine(t, 5)
		tel := v.EnableTelemetry()
		s, err := v.CreateSlice(SliceConfig{Name: "twice", CPUShare: 0.25})
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
		v.Net.OnPacket(func(n *netem.Node, event string, p *packet.Packet) {
			if event != "recv" || n.Clock().Now() < 20*time.Second {
				return
			}
			// Tunnel datagram: outer IPv4 and UDP around the inner IPv4.
			var outer, inner packet.IPv4
			seg, err := outer.Parse(p.Data)
			if err != nil || outer.Proto != packet.ProtoUDP {
				return
			}
			var u packet.UDP
			body, err := u.Parse(seg)
			if err != nil {
				return
			}
			msg, err := inner.Parse(body)
			if err != nil || inner.Proto != packet.ProtoOSPF {
				return
			}
			if len(msg) > 1 && msg[0] == 2 && msg[1] == 1 { // OSPFv2, type hello
				hellos++
			}
		})
		for i := 0; i < starts; i++ {
			s.StartOSPF(hello, 3*hello)
		}
		v.Run(60 * time.Second)
		for _, ev := range tel.Rec.Events() {
			switch ev.Kind {
			case telemetry.EvNeighbor:
				neighbor++
			case telemetry.EvRoute:
				route++
			}
		}
		for _, from := range s.VirtualNodes() {
			for _, to := range s.VirtualNodes() {
				a, _ := s.VirtualNode(from)
				b, _ := s.VirtualNode(to)
				if _, ok := a.FIB.Lookup(b.TapAddr); !ok {
					t.Errorf("%d starts: %s has no route to %s's tap", starts, from, to)
				}
			}
		}
		return neighbor, route, hellos
	}
	n1, r1, h1 := run(1)
	n2, r2, h2 := run(2)
	if n1 == 0 || r1 == 0 {
		t.Fatalf("the single-start run recorded %d neighbour events and %d route installs", n1, r1)
	}
	if n2 > 2*n1 || r2 > 2*r1 {
		t.Errorf("started twice: %d neighbour events and %d route installs, started once %d and %d; a restart may at most double them",
			n2, r2, n1, r1)
	}
	// Four interfaces, one hello each per interval, 40 intervals.
	if want := 4 * 40; h1 < want-4 || h1 > want+4 || h2 < want-4 || h2 > want+4 {
		t.Errorf("hellos heard in 40 s on four interfaces: %d started once, %d started twice, want %d of each", h1, h2, want)
	}
}
