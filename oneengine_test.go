package vini_test

// One seed, one network: core.New(seed) is one worker of the same engine
// core.NewParallel(seed, n) runs, so a world run by core.New and on two
// and four workers fires the same events, publishes the same telemetry
// and records the same flight stream. And one engine means one process:
// nothing splits a world across executors.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"net/netip"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"vini"
	"vini/internal/core"
	"vini/internal/netem"
	"vini/internal/sched"
	"vini/internal/topology"
	"vini/internal/traffic"
)

// abilene4 is 20 virtual seconds of the benchmark's abilene_cbr world:
// every PoP a PlanetLab host, four mirrored OSPF slices, one
// cross-country 10 Mb/s CBR flow per slice.
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
		{"NewParallel(2,2)", func() *core.VINI { return core.NewParallel(2, 2) }},
		{"NewParallel(2,4)", func() *core.VINI { return core.NewParallel(2, 4) }},
	}
	for _, w := range worlds {
		t.Run(w.name, func(t *testing.T) {
			var want engineAccount
			for i, e := range engines {
				v := e.new()
				tel := v.EnableTelemetry()
				w.run(t, v)
				got := account(v, tel.Reg.Digest(), tel.Rec.Digest())
				if i == 0 {
					want = got
				} else if got != want {
					t.Errorf("%s ran\n  %+v\n%s ran\n  %+v", e.name, got, engines[0].name, want)
				}
			}
			if w.name == "abilene4" && (want.schedule != abilene4Schedule || want.events != abilene4Events) {
				t.Errorf("abilene4 on one worker: schedule digest %016x over %d events, pinned %016x over %d",
					want.schedule, want.events, uint64(abilene4Schedule), uint64(abilene4Events))
			}
		})
	}
}

// abilene4's one-worker schedule digest and fired-event count at seed 2:
// what every commit must reproduce for this world, not only every engine
// of one commit. A change that moves them re-pins them with the reason.
const (
	abilene4Schedule = 0x8e0d30cd372c4f2e
	abilene4Events   = 868774
)

// engineAccount is what every worker count must reproduce of a run: the
// schedule, telemetry and flight digests, the executor's counters that
// do not depend on how the host interleaves workers (windows, trains and
// parks do), and the events each domain fired.
type engineAccount struct {
	schedule, metrics, flight                        uint64
	events, deliveries, rounds, fallbacks, trainMsgs uint64
	perDomain                                        string
}

func account(v *core.VINI, metrics, flight uint64) engineAccount {
	x := v.Executor()
	a := engineAccount{
		schedule: x.ScheduleDigest(), metrics: metrics, flight: flight,
		events: x.TotalFired(), deliveries: x.Deliveries(), rounds: x.Rounds(), fallbacks: x.Fallbacks(),
	}
	_, a.trainMsgs = x.TrainStats()
	var b strings.Builder
	for _, d := range x.Domains() {
		s := d.Stats()
		fmt.Fprintf(&b, "%s=%d ", s.Label, s.Fired)
	}
	a.perDomain = b.String()
	return a
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

// TestOneProcess: the executor runs a world in one process. No socket
// transport, no wire-capable handler seam and no shard ownership map
// come back beside it, and there is no worker daemon to spawn.
func TestOneProcess(t *testing.T) {
	if _, err := os.Stat("cmd/vinid"); err == nil {
		t.Error("cmd/vinid exists: the executor runs a world in one process")
	}
	gone := map[string]bool{"DomainTransport": true, "WireHandler": true, "OwnerShard": true}
	fset := token.NewFileSet()
	for file, text := range readSource(t, "internal", "cmd") {
		if isTest(file) {
			continue
		}
		f, err := parser.ParseFile(fset, file, text, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasPrefix(file, "internal/sim/") {
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "net" {
					t.Errorf("%s imports net", file)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && gone[id.Name] {
				t.Errorf("%s names %s", fset.Position(id.Pos()), id.Name)
				gone[id.Name] = false // one report per name is enough
			}
			return true
		})
	}
}
