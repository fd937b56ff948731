package experiment

import (
	"maps"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"vini/internal/rcc"
	"vini/internal/topology"
)

// The experiment tests verify the paper's qualitative results — who
// wins, by roughly what factor, where crossovers fall — with shortened
// measurement windows to keep the suite fast. The full-length paper
// parameters live in cmd/vinibench.

func TestTable2Shape(t *testing.T) {
	native, err := Table2(1, false, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	iias, err := Table2(1, true, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: native 940 Mb/s at 48% CPU; IIAS ~195 Mb/s at 99% CPU —
	// user-space forwarding reaches ~10-25% of kernel rate, CPU-bound.
	if native.Mbps < 850 || native.Mbps > 1000 {
		t.Fatalf("native = %.0f Mb/s, want ~940", native.Mbps)
	}
	if native.CPU > 0.8 {
		t.Fatalf("native fwdr CPU = %.2f, want well under 1", native.CPU)
	}
	if iias.Mbps < 120 || iias.Mbps > 260 {
		t.Fatalf("IIAS = %.0f Mb/s, want ~195", iias.Mbps)
	}
	if iias.CPU < 0.95 {
		t.Fatalf("IIAS fwdr CPU = %.2f, want ~0.99 (CPU-bound)", iias.CPU)
	}
	if ratio := iias.Mbps / native.Mbps; ratio > 0.3 {
		t.Fatalf("IIAS/native = %.2f, want ~0.2", ratio)
	}
}

func TestTable3Shape(t *testing.T) {
	native, err := Table3(1, false, 1000)
	if err != nil {
		t.Fatal(err)
	}
	iias, err := Table3(1, true, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 0.414 ms vs 0.547 ms — IIAS adds ~130 µs without changing
	// the deviation.
	if native.Avg < 0.3 || native.Avg > 0.55 {
		t.Fatalf("native avg = %.3f ms, want ~0.41", native.Avg)
	}
	added := iias.Avg - native.Avg
	if added < 0.08 || added > 0.30 {
		t.Fatalf("IIAS adds %.3f ms, want ~0.13", added)
	}
	if iias.LossPct != 0 || native.LossPct != 0 {
		t.Fatal("loss on dedicated hardware")
	}
	if iias.Mdev > 0.2 {
		t.Fatalf("IIAS mdev = %.3f, want small (paper: unchanged)", iias.Mdev)
	}
}

func TestTable4Shape(t *testing.T) {
	native, err := Table4(1, ModeNative, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	def, err := Table4(1, ModeDefaultShare, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	plvini, err := Table4(1, ModePLVINI, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 90.8 / 22.5 / 86.2 Mb/s.
	if native.Mbps < 80 || native.Mbps > 100 {
		t.Fatalf("native = %.1f, want ~90", native.Mbps)
	}
	if def.Mbps > native.Mbps/2 {
		t.Fatalf("default share = %.1f, want far below native %.1f", def.Mbps, native.Mbps)
	}
	if plvini.Mbps < 2.5*def.Mbps {
		t.Fatalf("PL-VINI %.1f not ~4x default %.1f", plvini.Mbps, def.Mbps)
	}
	if plvini.Mbps < 0.65*native.Mbps {
		t.Fatalf("PL-VINI %.1f does not approach native %.1f", plvini.Mbps, native.Mbps)
	}
}

func TestTable5Shape(t *testing.T) {
	native, err := Table5(1, ModeNative, 500)
	if err != nil {
		t.Fatal(err)
	}
	def, err := Table5(1, ModeDefaultShare, 500)
	if err != nil {
		t.Fatal(err)
	}
	plvini, err := Table5(1, ModePLVINI, 500)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: avg 24.5 / 27.7 / 25.1; mdev 0.2 / 4.8 / 0.38.
	if native.Avg < 24 || native.Avg > 26 {
		t.Fatalf("native avg = %.2f, want ~24.5", native.Avg)
	}
	if def.Mdev < 5*native.Mdev {
		t.Fatalf("default mdev %.2f not >> native %.2f (paper: 20x)", def.Mdev, native.Mdev)
	}
	if plvini.Mdev > def.Mdev/4 {
		t.Fatalf("PL-VINI mdev %.2f not <= default/4 (%.2f)", plvini.Mdev, def.Mdev)
	}
	if plvini.Avg > native.Avg+2.5 {
		t.Fatalf("PL-VINI avg %.2f too far above native %.2f", plvini.Avg, native.Avg)
	}
	if def.Max < plvini.Max*1.5 {
		t.Fatalf("default max %.1f should dwarf PL-VINI max %.1f", def.Max, plvini.Max)
	}
}

func TestTable6Shape(t *testing.T) {
	var jitter [3]float64
	for i, m := range []Mode{ModeNative, ModeDefaultShare, ModePLVINI} {
		r, err := Table6(2, m)
		if err != nil {
			t.Fatal(err)
		}
		jitter[i] = r.Mean
	}
	native, def, plvini := jitter[0], jitter[1], jitter[2]
	// Paper: 0.27 / 2.4 / 1.3 ms. The model reads 0.19 / 2.28 / 0.35 at
	// seed 2; seeds 1 and 3 give PL-VINI 0.35 and 0.34 against default
	// share 2.27 and 1.93.
	if !(native < plvini && plvini < def) {
		t.Fatalf("jitter native %.2f, PL-VINI %.2f, default share %.2f ms: want rising in that order", native, plvini, def)
	}
	if def < 3*plvini {
		t.Fatalf("default-share jitter %.2f ms not >= 3x PL-VINI's %.2f", def, plvini)
	}
}

func TestFigure6Shape(t *testing.T) {
	// 10 s per rate, the window `vinibench -exp fig6` runs: over 5 s the
	// 45 Mb/s loss is 2.6-6.9 % and straddles the 4 % floor from seed to
	// seed; over 10 s it is 9.2-13.8 % on seeds 0-12.
	rates := []float64{5, 25, 45}
	def, err := Figure6(2, ModeDefaultShare, rates, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	plv, err := Figure6(2, ModePLVINI, rates, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Paper 6(a): loss grows with rate up to ~14% at 45 Mb/s.
	if def[2].LossPct < 4 {
		t.Fatalf("default-share loss at 45 Mb/s = %.2f%%, want >> 0", def[2].LossPct)
	}
	if def[0].LossPct > def[2].LossPct {
		t.Fatalf("loss not increasing with rate: %+v", def)
	}
	// Paper 6(b): PL-VINI comparable to the network (< ~2%).
	for _, p := range plv {
		if p.LossPct > 2 {
			t.Fatalf("PL-VINI loss at %.0f Mb/s = %.2f%%", p.RateMbps, p.LossPct)
		}
	}
}

func TestFigure8Shape(t *testing.T) {
	e, err := NewAbilene(2)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := e.Figure8()
	if err != nil {
		t.Fatal(err)
	}
	classify := func(lo, hi float64) func(RTTPoint) bool {
		return func(p RTTPoint) bool { return !p.Lost && p.RTTms >= lo && p.RTTms <= hi }
	}
	is76 := classify(75, 78)
	is93 := classify(92, 95)
	var pre76, mid93, post76, lost int
	for _, p := range pts {
		switch {
		case p.T < 10 && is76(p):
			pre76++
		case p.T > 20 && p.T < 33 && is93(p):
			mid93++
		case p.T > 44 && is76(p):
			post76++
		case p.Lost && p.T > 10 && p.T < 20:
			lost++
		}
	}
	// Before the failure every sample sits at the 76 ms default path.
	if pre76 < 40 {
		t.Fatalf("pre-failure 76ms samples = %d", pre76)
	}
	// The outage loses pings until OSPF converges (~dead interval).
	if lost < 10 {
		t.Fatalf("outage losses = %d, want >= 10", lost)
	}
	// The re-route settles on the 93 ms path via Atlanta.
	if mid93 < 50 {
		t.Fatalf("93ms samples after reroute = %d", mid93)
	}
	// After restoration the RTT returns to 76 ms.
	if post76 < 20 {
		t.Fatalf("post-restore 76ms samples = %d", post76)
	}
}

func TestFigure9Shape(t *testing.T) {
	e, err := NewAbilene(2)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := e.Figure9()
	if err != nil {
		t.Fatal(err)
	}
	mbAt := func(tt float64) float64 {
		var mb float64
		for _, a := range arr {
			if a.T <= tt {
				mb = a.MB
			}
		}
		return mb
	}
	at10 := mbAt(10)
	// Window-limited throughput before the failure: 16 KB / 76 ms ≈
	// 1.7 Mb/s ≈ 0.215 MB/s → ~2.1 MB in 10 s (allowing slow start).
	if at10 < 1.2 || at10 > 2.6 {
		t.Fatalf("bytes by t=10 = %.2f MB", at10)
	}
	// The stream stalls during the outage...
	stallEnd := 10.0
	for _, a := range arr {
		if a.T > 10.5 && a.MB > at10+0.1 {
			stallEnd = a.T
			break
		}
	}
	if stallEnd < 14 || stallEnd > 30 {
		t.Fatalf("stream resumed at t=%.1f, want after OSPF convergence", stallEnd)
	}
	// ...and makes clear progress afterwards.
	if mbAt(49) < at10+2 {
		t.Fatalf("no progress after recovery: %.2f -> %.2f MB", at10, mbAt(49))
	}
}

func TestSpecParseAndErrors(t *testing.T) {
	sp, err := ParseSpec(`
# the §5.2 experiment
topology abilene
slice iias reservation 0.25 rt
ospf hello 5s dead 10s
ping washington seattle interval 200ms
iperf-tcp washington seattle window 16384 streams 1
udp-cbr washington seattle rate 10M
at 10s fail-virtual denver kansas-city
at 34s restore-virtual denver kansas-city
duration 50s
warmup 30s
seed 7
`)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Topology != "abilene" || sp.Slice.Name != "iias" || !sp.Slice.RT ||
		sp.Slice.CPUShare != 0.25 || sp.Hello != 5*time.Second ||
		len(sp.Traffic) != 3 || len(sp.Events) != 2 || sp.Seed != 7 {
		t.Fatalf("parsed spec = %+v", sp)
	}
	if sp.Traffic[2].RateBps != 10e6 {
		t.Fatalf("rate = %v", sp.Traffic[2].RateBps)
	}
	bad := []string{
		"topology mars",
		"topology abilene\nslice s share 2.0",
		"topology abilene\nat 10s explode a b",
		"topology abilene\nping onlyone",
		"topology abilene\nfrobnicate",
		"duration 10s", // no topology
		"topology abilene\nudp-cbr a b rate -3",
		// Non-finite values: a pacer fed one never advances.
		"topology abilene\nudp-cbr a b rate Inf",
		"topology abilene\nudp-cbr a b rate NaN",
		"topology abilene\nadaptive a b rate NaN",
		"topology abilene\nat 1s rate a b inf",
		"topology abilene\nslice x share NaN",
	}
	for _, b := range bad {
		if _, err := ParseSpec(b); err == nil {
			t.Errorf("spec %q accepted", b)
		}
	}
	// A key given without its value is refused on its line, not dropped
	// with the default kept.
	for _, line := range []string{
		"ping washington seattle interval",
		"iperf-tcp a b window 16384 streams",
		"ospf hello 5s dead",
		"rip update",
	} {
		_, err := ParseSpec("topology abilene\n" + line)
		if err == nil || !strings.Contains(err.Error(), "line 2:") || !strings.Contains(err.Error(), "needs a value") {
			t.Errorf("spec line %q: err = %v, want line 2's key needing a value", line, err)
		}
	}
}

func TestSpecRunLineTopology(t *testing.T) {
	sp, err := ParseSpec(`
topology line alpha beta gamma
slice test reservation 0.3 rt
ospf hello 1s dead 3s
ping alpha gamma interval 100ms
warmup 20s
duration 5s
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pings) != 1 {
		t.Fatalf("pings = %d", len(res.Pings))
	}
	p := res.Pings[0]
	if p.LossPct != 0 {
		t.Fatalf("loss = %.1f%%", p.LossPct)
	}
	// Two 5 ms virtual hops: RTT ~20 ms plus forwarding overheads.
	if p.Avg < 19 || p.Avg > 25 {
		t.Fatalf("avg RTT = %.2f ms", p.Avg)
	}
}

func TestSpecRunFailureEvent(t *testing.T) {
	sp, err := ParseSpec(`
topology line a b c
slice test reservation 0.3 rt
ospf hello 1s dead 3s
ping a c interval 200ms
at 2s fail-physical a nowhere
at 3s fail-virtual a b
at 3s fail-virtual a c
warmup 20s
duration 10s
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sp.Run()
	if err != nil {
		t.Fatal(err)
	}
	p := res.Pings[0]
	// The a-b link is the only path to c: pings are lost after t=3.
	if p.LossPct < 30 {
		t.Fatalf("loss = %.1f%%, want most post-failure pings lost", p.LossPct)
	}
	// An event on a pair with no link is logged with why it did nothing.
	want := []string{
		"t=2s fail-physical a nowhere",
		"fail-physical: netem: no link a-nowhere",
		"t=3s fail-virtual a b",
		"t=3s fail-virtual a c",
		"fail-virtual: no virtual link a-c",
	}
	if !slices.Equal(res.Log, want) {
		t.Fatalf("event log = %q, want %q", res.Log, want)
	}
}

// TestSpecRunMigrateAction: the migrate action live-migrates a transit
// vnode onto a spare node mid-experiment, and the make-before-break
// recipe means the ping flow crossing it never loses a packet.
func TestSpecRunMigrateAction(t *testing.T) {
	sp, err := ParseSpec(`
topology line a b c d
spare d
slice test reservation 0.3 rt
ospf hello 1s dead 3s
ping a c interval 100ms
at 3s migrate b d
warmup 20s
duration 8s
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Spares) != 1 || sp.Spares[0] != "d" {
		t.Fatalf("spares = %v", sp.Spares)
	}
	res, err := sp.Run()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, l := range res.Log {
		if strings.Contains(l, "migrate b -> d window opened") {
			found = true
		}
	}
	if !found {
		t.Fatalf("migration did not run: log = %v", res.Log)
	}
	p := res.Pings[0]
	if p.LossPct != 0 {
		t.Fatalf("loss = %.1f%% across a live migration, want 0 (make-before-break)", p.LossPct)
	}
}

// TestShippedSpecsParseAndStarRing keeps the specs/ directory honest and
// covers the ring and star topologies.
func TestShippedSpecsParseAndRing(t *testing.T) {
	for _, f := range []string{"../../specs/abilene-figure8.spec", "../../specs/ring-failover.spec"} {
		text, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseSpec(string(text)); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
	}
	// The ring reroutes around a failed link (longer path, no loss after
	// convergence).
	sp, err := ParseSpec(`
topology ring n e s w
slice r reservation 0.3 rt
ospf hello 1s dead 3s
ping n e interval 250ms
at 5s fail-virtual n e
warmup 20s
duration 25s
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sp.Run()
	if err != nil {
		t.Fatal(err)
	}
	p := res.Pings[0]
	// Some pings are lost during reconvergence, then traffic flows the
	// long way around (3 hops instead of the direct 1).
	if p.LossPct == 0 || p.LossPct > 40 {
		t.Fatalf("ring failover loss = %.1f%%", p.LossPct)
	}
	var before, after float64
	for _, smp := range p.Timeline {
		if smp.Lost {
			continue
		}
		if smp.T < 5 {
			before = smp.RTTms
		} else if smp.T > 15 {
			after = smp.RTTms
		}
	}
	if after < before+5 {
		t.Fatalf("RTT did not grow after reroute: %.1f -> %.1f ms", before, after)
	}
	// Star topology runs too.
	sp2, err := ParseSpec("topology star hub a b c\nospf hello 1s dead 3s\nping a c interval 500ms\nwarmup 15s\nduration 4s")
	if err != nil {
		t.Fatal(err)
	}
	res2, err := sp2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Pings[0].LossPct != 0 {
		t.Fatalf("star loss = %.1f%%", res2.Pings[0].LossPct)
	}
}

func TestSpecLifecycleDirectives(t *testing.T) {
	sp, err := ParseSpec(`
topology line a b c
slice test reservation 0.3 rt
ospf hello 1s dead 3s
ping a c interval 200ms
at 2s pause
at 6s resume
at 14s reembed
at 16s teardown
warmup 20s
duration 18s
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Events) != 4 {
		t.Fatalf("events = %d, want 4", len(sp.Events))
	}
	res, err := sp.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Paused 2s-6s the slice drops everything and OSPF adjacencies die;
	// resumed, it reconverges; torn down at 16s it goes dark again. So
	// loss is substantial but not total.
	p := res.Pings[0]
	if p.LossPct < 10 || p.LossPct > 95 {
		t.Fatalf("loss = %.1f%%, want a paused+torn-down window", p.LossPct)
	}
	var sawPause, sawTeardown bool
	for _, l := range res.Log {
		sawPause = sawPause || strings.Contains(l, "pause")
		sawTeardown = sawTeardown || strings.Contains(l, "teardown")
	}
	if !sawPause || !sawTeardown {
		t.Fatalf("event log = %v", res.Log)
	}
	// Lifecycle directives reject endpoint arguments and vice versa.
	for _, bad := range []string{
		"topology abilene\nat 1s pause a b",
		"topology abilene\nat 1s fail-virtual",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// TestSpecRunAdaptiveFlow: the adaptive traffic kind runs the
// delay-gradient controller over the overlay; the estimate must move
// off its initial rate and the trace must record the updates.
func TestSpecRunAdaptiveFlow(t *testing.T) {
	sp, err := ParseSpec(`
topology line a b c
slice test reservation 0.3 rt
ospf hello 1s dead 3s
adaptive a c rate 200k
warmup 20s
duration 15s
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Traffic) != 1 || sp.Traffic[0].Kind != "adaptive" {
		t.Fatalf("traffic = %+v", sp.Traffic)
	}
	res, err := sp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Adaptives) != 1 {
		t.Fatalf("adaptives = %d", len(res.Adaptives))
	}
	a := res.Adaptives[0]
	if a.Sent == 0 || a.Received == 0 {
		t.Fatalf("vacuous adaptive run: sent=%d received=%d", a.Sent, a.Received)
	}
	if len(a.Trace) == 0 {
		t.Fatal("controller produced no trace")
	}
	// On an uncongested gigabit path the estimate must have climbed well
	// above the 200 kb/s starting rate within 15 s of additive increase.
	if a.EstimateBps <= 400_000 {
		t.Fatalf("estimate never climbed: %.0f", a.EstimateBps)
	}
}

// TestSpecRunRateAction: a scheduled rate action retunes a udp-cbr
// flow's rate mid-run.
func TestSpecRunRateAction(t *testing.T) {
	sp, err := ParseSpec(`
topology line a b c
slice test reservation 0.3 rt
ospf hello 1s dead 3s
udp-cbr a c rate 200k
at 3s rate a c 4M
at 5s rate a nobody 1M
warmup 20s
duration 10s
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CBRs) != 1 {
		t.Fatalf("cbrs = %d", len(res.CBRs))
	}
	// 200 kb/s for 3 s then 4 Mb/s for 7 s ≈ 2450 datagrams; the
	// un-retargeted baseline would send ~170. Anything past 1000 proves
	// the retune took effect.
	if res.CBRs[0].Sent < 1000 {
		t.Fatalf("sent = %d, rate action never took effect", res.CBRs[0].Sent)
	}
	var sawMiss bool
	for _, l := range res.Log {
		sawMiss = sawMiss || strings.Contains(l, "no udp-cbr flow")
	}
	if !sawMiss {
		t.Fatalf("missing-flow rate action not logged: %v", res.Log)
	}
}

// TestShippedSpecIsSection52: specs/abilene-figure8.spec and NewAbilene +
// Figure8 are two descriptions of the paper's §5.2 experiment, and they
// agree on everything that is not a clock: the PoPs, the links with
// their costs, delays and bandwidths, the OSPF timers, the slice's
// reservation, the failure script and the ping. Three things still
// differ, which is why figure8.golden cannot pin the spec yet (ROADMAP
// item 1's re-pin inherits them): the seed (spec 2, golden 1), the node
// creation order (the spec's sorted PoP names, NewAbilene's sorted
// router codes) and the SPF delay (NewAbilene sets 1 s, the spec
// language has no spf-delay).
func TestShippedSpecIsSection52(t *testing.T) {
	text, err := os.ReadFile("../../specs/abilene-figure8.spec")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := ParseSpec(string(text))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Topology != "abilene" {
		t.Fatalf("the spec's topology is %q, want abilene", sp.Topology)
	}
	configs, err := rcc.ParseAbilene()
	if err != nil {
		t.Fatal(err)
	}
	fromConfigs, err := rcc.BuildTopology(configs)
	if err != nil {
		t.Fatal(err)
	}
	hello, dead, err := rcc.Timers(configs)
	if err != nil {
		t.Fatal(err)
	}

	// Links keyed by their endpoints in sorted order, costs turned to match.
	canon := func(links []topology.Link, name func(string) string) map[[2]string]topology.Link {
		out := make(map[[2]string]topology.Link, len(links))
		for _, l := range links {
			l.A, l.B = name(l.A), name(l.B)
			if l.A > l.B {
				l.A, l.B, l.CostAB, l.CostBA = l.B, l.A, l.CostBA, l.CostAB
			}
			out[[2]string{l.A, l.B}] = l
		}
		return out
	}
	popOf := func(code string) string {
		pop, ok := rcc.PopForCode(code)
		if !ok {
			t.Fatalf("router code %q names no PoP", code)
		}
		return pop
	}
	spec := topology.Abilene()
	pops := fromConfigs.Nodes()
	for i, code := range pops {
		pops[i] = popOf(code)
	}
	slices.Sort(pops)
	if !slices.Equal(spec.Nodes(), pops) {
		t.Errorf("PoPs: the spec builds %v, the router configurations %v", spec.Nodes(), pops)
	}
	if a, b := canon(spec.Links(), func(n string) string { return n }), canon(fromConfigs.Links(), popOf); !maps.Equal(a, b) {
		t.Errorf("links: the spec builds\n%v\nthe router configurations\n%v", a, b)
	}

	if sp.Protocol != "ospf" || sp.Hello != hello || sp.Dead != dead || hello != 5*time.Second || dead != 10*time.Second {
		t.Errorf("the spec runs %s hello %v dead %v, the router configurations say hello %v dead %v, the paper 5 s and 10 s",
			sp.Protocol, sp.Hello, sp.Dead, hello, dead)
	}
	// NewAbilene's SliceConfig.
	if sp.Slice.CPUShare != 0.25 || !sp.Slice.RT {
		t.Errorf("the spec's slice reserves %v (rt %v), NewAbilene's 0.25 with RT", sp.Slice.CPUShare, sp.Slice.RT)
	}
	// Figure8's script and ping.
	wantEvents := []Event{
		{At: 10 * time.Second, Action: "fail-virtual", A: topology.Denver, B: topology.KansasCity},
		{At: 34 * time.Second, Action: "restore-virtual", A: topology.Denver, B: topology.KansasCity},
	}
	if !slices.Equal(sp.Events, wantEvents) {
		t.Errorf("the spec schedules %+v, Figure8 %+v", sp.Events, wantEvents)
	}
	ping := slices.IndexFunc(sp.Traffic, func(ts TrafficSpec) bool { return ts.Kind == "ping" })
	if ping < 0 {
		t.Fatal("the spec has no ping")
	}
	if p := sp.Traffic[ping]; p.Src != topology.Washington || p.Dst != topology.Seattle || p.Interval != 200*time.Millisecond {
		t.Errorf("the spec pings %s -> %s every %v, Figure8 washington -> seattle every 200ms", p.Src, p.Dst, p.Interval)
	}
}
