package vini_test

// One seed, one network: core.New(seed) is one worker of the same engine
// core.NewParallel(seed, n) runs, so all three constructions of a world
// fire the same events, publish the same telemetry and record the same
// flight stream.

import (
	"fmt"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"vini"
	"vini/internal/core"
	"vini/internal/netem"
	"vini/internal/sched"
	"vini/internal/topology"
	"vini/internal/traffic"
)

// abilene4 is the 4-slice Abilene world of BENCH_parallel.json: every PoP
// a PlanetLab host, four mirrored OSPF slices, one cross-country 10 Mb/s
// CBR flow per slice.
func abilene4(t *testing.T, v *core.VINI) {
	t.Helper()
	g := topology.Abilene()
	for _, pop := range g.Nodes() {
		addr, _ := topology.AbilenePublicAddr(pop)
		if _, err := v.AddNode(pop, netip.MustParseAddr(addr), netem.PlanetLabProfile(), sched.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range g.Links() {
		if _, err := v.AddLink(netem.LinkConfig{A: l.A, B: l.B, Bandwidth: l.Bandwidth, Delay: l.Delay}); err != nil {
			t.Fatal(err)
		}
	}
	v.ComputeRoutes()
	for i, pair := range [][2]string{
		{topology.Washington, topology.Seattle}, {topology.NewYork, topology.LosAngeles},
		{topology.Chicago, topology.Houston}, {topology.Atlanta, topology.Sunnyvale},
	} {
		s, err := vini.MirrorAbilene(v, core.SliceConfig{Name: fmt.Sprintf("slice%d", i), CPUShare: 0.2},
			5*time.Second, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		src, _ := s.VirtualNode(pair[0])
		dst, _ := s.VirtualNode(pair[1])
		if _, err := traffic.StartUDPCBR(v.Net, src.Phys(), dst.Phys(), traffic.UDPCBRConfig{
			RateBps: 10e6, Port: uint16(5001 + i), SrcAddr: src.TapAddr, DstAddr: dst.TapAddr}); err != nil {
			t.Fatal(err)
		}
	}
	v.Run(20 * time.Second)
}

func TestOneEngine(t *testing.T) {
	worlds := []struct {
		name string
		run  func(t *testing.T, v *core.VINI)
	}{
		{"line", func(t *testing.T, v *core.VINI) {
			src, sink, srcTap, sinkTap := lineWorld(t, v, 10*time.Second)
			if _, err := traffic.StartUDPCBR(v.Net, src, sink, traffic.UDPCBRConfig{
				RateBps: 10e6, SrcAddr: srcTap, DstAddr: sinkTap}); err != nil {
				t.Fatal(err)
			}
			v.Run(v.Loop().Now() + 2*time.Second)
		}},
		{"abilene4", abilene4},
	}
	engines := []struct {
		name string
		new  func() *core.VINI
	}{
		{"New(2)", func() *core.VINI { return core.New(2) }},
		{"NewParallel(2,1)", func() *core.VINI { return core.NewParallel(2, 1) }},
		{"NewParallel(2,4)", func() *core.VINI { return core.NewParallel(2, 4) }},
	}
	for _, w := range worlds {
		t.Run(w.name, func(t *testing.T) {
			var want [3]uint64
			for i, e := range engines {
				v := e.new()
				tel := v.EnableTelemetry()
				w.run(t, v)
				got := [3]uint64{v.Executor().ScheduleDigest(), tel.Reg.Digest(), tel.Rec.Digest()}
				if i == 0 {
					want = got
				} else if got != want {
					t.Errorf("%s: schedule/telemetry/flight digests %016x, %s gave %016x",
						e.name, got, engines[0].name, want)
				}
			}
		})
	}
}

// TestDroppedWorldLeaksNothing: worker goroutines live only inside Run,
// so a world that is built, run and dropped without Close leaves none
// behind.
func TestDroppedWorldLeaksNothing(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		v := core.NewParallel(int64(i), 2)
		for j, name := range []string{"a", "b"} {
			if _, err := v.AddNode(name, netip.AddrFrom4([4]byte{192, 168, 1, byte(j + 1)}),
				netem.DETERProfile(), sched.Options{}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := v.AddLink(netem.LinkConfig{A: "a", B: "b", Bandwidth: 1e9, Delay: time.Millisecond}); err != nil {
			t.Fatal(err)
		}
		v.Net.MustNode("a").Clock().Schedule(time.Millisecond, func() {})
		v.Run(10 * time.Millisecond)
	}
	// Run returns once every worker has signalled its exit; the runtime
	// may still be retiring the last of them.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before 200 dropped worlds, %d after", before, runtime.NumGoroutine())
		}
	}
}
