package core

import (
	"net/netip"
	"testing"
	"time"

	"vini/internal/netem"
	"vini/internal/sched"
	"vini/internal/traffic"
)

// TestSharedLinkInterference demonstrates the §3.1/§3.4 caveat the paper
// is explicit about: virtual links of different experiments may share
// underlying physical links, so "the traffic from one experiment may
// affect the network conditions seen in another virtual network". A
// bulk flow in slice A congests the shared physical bottleneck and
// slice B's ping RTT visibly inflates (queueing) relative to a quiet
// baseline.
func TestSharedLinkInterference(t *testing.T) {
	build := func() (*VINI, *Slice, *Slice) {
		v := New(21)
		prof := netem.DETERProfile()
		for i, n := range []string{"west", "east"} {
			addr := netip.AddrFrom4([4]byte{198, 51, 100, byte(i + 1)})
			if _, err := v.AddNode(n, addr, prof, sched.Options{}); err != nil {
				t.Fatal(err)
			}
		}
		// A slow shared bottleneck with a deep queue.
		if _, err := v.AddLink(netem.LinkConfig{A: "west", B: "east",
			Bandwidth: 20e6, Delay: 5 * time.Millisecond, QueueBytes: 512 << 10}); err != nil {
			t.Fatal(err)
		}
		v.ComputeRoutes()
		mk := func(name string) *Slice {
			s, err := v.CreateSlice(SliceConfig{Name: name, CPUShare: 0.4, RT: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []string{"west", "east"} {
				if _, err := s.AddVirtualNode(n); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := s.ConnectVirtual("west", "east", 1); err != nil {
				t.Fatal(err)
			}
			return s
		}
		a := mk("bulk")
		b := mk("latency")
		a.StartOSPF(time.Second, 3*time.Second)
		b.StartOSPF(time.Second, 3*time.Second)
		v.Run(20 * time.Second)
		return v, a, b
	}

	measure := func(withLoad bool) float64 {
		v, a, b := build()
		if withLoad {
			aw, _ := a.VirtualNode("west")
			ae, _ := a.VirtualNode("east")
			west, _ := v.Net.Node("west")
			east, _ := v.Net.Node("east")
			// A big-window TCP bulk flow keeps a standing queue at the
			// bottleneck (CBR below line rate would not).
			bulk, err := traffic.StartIperfTCP(v.Net, west, east, traffic.IperfTCPConfig{
				Streams: 4, Window: 256 << 10, SrcAddr: aw.TapAddr, DstAddr: ae.TapAddr})
			if err != nil {
				t.Fatal(err)
			}
			defer bulk.Stop()
			v.Run(v.Loop().Now() + 3*time.Second) // let the queue fill
		}
		bw, _ := b.VirtualNode("west")
		be, _ := b.VirtualNode("east")
		traffic.NewICMPHost(be.Phys())
		h := traffic.NewICMPHost(bw.Phys())
		p := h.StartPing(traffic.PingConfig{Src: bw.TapAddr, Dst: be.TapAddr,
			Interval: 100 * time.Millisecond, Count: 50})
		v.Run(v.Loop().Now() + 10*time.Second)
		if p.RTTs.N() == 0 {
			t.Fatal("no ping replies")
		}
		return p.RTTs.Mean()
	}

	quiet := measure(false)
	loaded := measure(true)
	if loaded < quiet+1.0 {
		t.Fatalf("cross-slice interference invisible: quiet %.2f ms vs loaded %.2f ms", quiet, loaded)
	}
}

// TestVPNWrongKeyRejected: an attacker who knows the server address but
// not the pre-shared key gets nothing into the overlay.
func TestVPNWrongKeyRejected(t *testing.T) {
	v := buildAbilene(t, 31)
	clientPub := netip.MustParseAddr("128.112.93.82")
	if _, err := v.AddNode("attacker", clientPub, netem.DETERProfile(), sched.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := v.AddLink(netem.LinkConfig{A: "attacker", B: "washington",
		Bandwidth: 10e6, Delay: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	v.ComputeRoutes()
	s := abileneSlice(t, v, SliceConfig{Name: "iias", CPUShare: 0.25, RT: true})
	wash, _ := s.VirtualNode("washington")
	goodKey := make([]byte, 32)
	if err := wash.EnableVPNServer(1194); err != nil {
		t.Fatal(err)
	}
	overlayAddr := netip.MustParseAddr("10.1.0.87")
	if err := wash.RegisterVPNClient(overlayAddr, goodKey); err != nil {
		t.Fatal(err)
	}
	s.StartOSPF(time.Second, 3*time.Second)
	v.Run(20 * time.Second)
	badKey := make([]byte, 32)
	badKey[0] = 0xff
	vc, err := NewVPNClient(v, "attacker", overlayAddr, badKey,
		netip.AddrPortFrom(wash.Phys().Addr(), 1194), []netip.Prefix{s.Prefix()})
	if err != nil {
		t.Fatal(err)
	}
	// The attacker pings an overlay node; nothing must come back.
	sea, _ := s.VirtualNode("seattle")
	traffic.NewICMPHost(sea.Phys())
	att, _ := v.Net.Node("attacker")
	h := traffic.NewICMPHost(att)
	p := h.StartPing(traffic.PingConfig{Src: overlayAddr, Dst: sea.TapAddr,
		Interval: 500 * time.Millisecond, Count: 6})
	v.Run(v.Loop().Now() + 10*time.Second)
	if p.RTTs.N() != 0 || vc.Received != 0 {
		t.Fatalf("wrong-key client got %d replies, %d frames", p.RTTs.N(), vc.Received)
	}
}

// TestEgressRequiresSetupOrder: registering a VPN client before enabling
// the server fails cleanly, and double-enabling is rejected.
func TestVPNSetupValidation(t *testing.T) {
	v := buildAbilene(t, 32)
	s := abileneSlice(t, v, SliceConfig{Name: "iias"})
	wash, _ := s.VirtualNode("washington")
	if err := wash.RegisterVPNClient(netip.MustParseAddr("10.1.0.87"), make([]byte, 32)); err == nil {
		t.Fatal("RegisterVPNClient before EnableVPNServer accepted")
	}
	if err := wash.EnableVPNServer(1194); err != nil {
		t.Fatal(err)
	}
	if err := wash.EnableVPNServer(1194); err == nil {
		t.Fatal("double EnableVPNServer accepted")
	}
	if err := wash.RegisterVPNClient(netip.MustParseAddr("10.1.0.87"), []byte("short")); err == nil {
		t.Fatal("bad key accepted")
	}
	// Client capture prefix covering the server is a routing loop.
	if _, err := NewVPNClient(v, "washington", netip.MustParseAddr("10.1.0.88"), make([]byte, 32),
		netip.AddrPortFrom(wash.Phys().Addr(), 1194),
		[]netip.Prefix{netip.MustParsePrefix("0.0.0.0/0")}); err == nil {
		t.Fatal("capture prefix covering the server accepted")
	}
}

// TestVirtualLinkBandwidthShaping: the §6.2 knob — capping a virtual
// link with the Click shaper limits throughput across it even though
// the physical link is gigabit.
func TestVirtualLinkBandwidthShaping(t *testing.T) {
	v := New(51)
	prof := netem.DETERProfile()
	for i, n := range []string{"a", "b"} {
		addr := netip.AddrFrom4([4]byte{198, 51, 100, byte(i + 1)})
		if _, err := v.AddNode(n, addr, prof, sched.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := v.AddLink(netem.LinkConfig{A: "a", B: "b", Bandwidth: 1e9, Delay: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	v.ComputeRoutes()
	s, err := v.CreateSlice(SliceConfig{Name: "shaped", CPUShare: 0.5, RT: true})
	if err != nil {
		t.Fatal(err)
	}
	s.AddVirtualNode("a")
	s.AddVirtualNode("b")
	vl, err := s.ConnectVirtual("a", "b", 1)
	if err != nil {
		t.Fatal(err)
	}
	s.StartOSPF(time.Second, 3*time.Second)
	v.Run(15 * time.Second)
	va, _ := s.VirtualNode("a")
	vb, _ := s.VirtualNode("b")
	run := func() float64 {
		an, _ := v.Net.Node("a")
		bn, _ := v.Net.Node("b")
		test, err := traffic.StartUDPCBR(v.Net, an, bn, traffic.UDPCBRConfig{
			RateBps: 20e6, SrcAddr: va.TapAddr, DstAddr: vb.TapAddr,
			Port: uint16(7000 + int(v.Loop().Now()/time.Second))})
		if err != nil {
			t.Fatal(err)
		}
		start := v.Loop().Now()
		v.Run(start + 3*time.Second)
		test.Stop()
		// Let the shaper queue drain, and average over the whole window.
		v.Run(v.Loop().Now() + time.Second)
		return float64(test.Received()) * 1458 * 8 / 4 / 1e6
	}
	unshaped := run()
	if unshaped < 13 {
		t.Fatalf("unshaped = %.1f Mb/s, want ~15 (3s of 20 Mb/s over a 4s window)", unshaped)
	}
	vl.SetBandwidth(5e6)
	shaped := run()
	if shaped > 6 || shaped < 4 {
		t.Fatalf("shaped = %.1f Mb/s, want ~5 (the cap)", shaped)
	}
	// Removing the cap restores full rate.
	vl.SetBandwidth(0)
	if again := run(); again < 13 {
		t.Fatalf("cap removal failed: %.1f Mb/s", again)
	}
}
