package telemetry

import (
	"bytes"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"vini/internal/sim"
)

func TestNilHandlesAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Add(3)
	c.Inc()
	g.Set(7)
	h.Observe(time.Second)
	if c.Value() != 0 || g.value() != 0 || h.Count() != 0 {
		t.Fatal("nil handles must read zero")
	}
	var r *Registry
	if r.Counter("s", "n", "x") != nil || r.Scope("s", "n") != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	var rec *Recorder
	rec.Record(nil, Event{}) // must not panic
}

func TestRegistrySnapshotOrderIsRegistrationOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("s1", "b", "z-last")
	r.Counter("s1", "a", "a-first")
	r.gauge("", "", "global")
	r.Counter("s1", "b", "z-last").Add(5) // get-or-create: same handle
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d metrics, want 3", len(snap))
	}
	want := []string{"z-last", "a-first", "global"}
	for i, mv := range snap {
		if mv.Name != want[i] {
			t.Fatalf("snapshot[%d] = %q, want %q (registration order)", i, mv.Name, want[i])
		}
	}
	if snap[0].Value != 5 {
		t.Fatalf("counter value %d, want 5", snap[0].Value)
	}
}

func TestRegistryDigestTracksValues(t *testing.T) {
	mk := func(v uint64) uint64 {
		r := NewRegistry()
		r.Counter("s", "n", "c").Add(v)
		return r.Digest()
	}
	if mk(1) == mk(2) {
		t.Fatal("digest must change with counter value")
	}
	if mk(3) != mk(3) {
		t.Fatal("digest must be a pure function of contents")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := new(Histogram)
	h.Observe(500 * time.Nanosecond) // < 1us -> bucket 0
	h.Observe(3 * time.Microsecond)  // < 4us -> bucket 2
	h.Observe(-time.Second)          // clamped to 0 -> bucket 0
	b := h.Buckets()
	if b[0] != 2 || b[2] != 1 {
		t.Fatalf("buckets = %v", b[:4])
	}
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
}

func TestScopePrefix(t *testing.T) {
	r := NewRegistry()
	sc := r.Scope("iias", "denver").With("click/rt/")
	sc.Counter("noroute").Add(2)
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Name != "click/rt/noroute" || snap[0].Node != "denver" {
		t.Fatalf("snapshot = %+v", snap)
	}
}

// recorderWorld builds an executor with two node domains and rings for
// all three.
func recorderWorld(t *testing.T, flightCap int) (*sim.Executor, *Recorder, *sim.Domain, *sim.Domain) {
	t.Helper()
	x := sim.NewExecutor(1, 1)
	d1 := x.NewDomain("d1")
	d2 := x.NewDomain("d2")
	rec := newRecorder(flightCap)
	for _, d := range x.Domains() {
		rec.EnsureDomain(d.ID())
	}
	return x, rec, d1, d2
}

func TestRecorderMergesByMergeKey(t *testing.T) {
	x, rec, d1, d2 := recorderWorld(t, 0)
	// Same timestamp in two domains plus a later event in d1: the merge
	// order must be (at, dom, seq), independent of recording order.
	d2.Schedule(10*time.Millisecond, func() { rec.Record(d2, Event{Kind: evMark, Detail: "d2@10"}) })
	d1.Schedule(10*time.Millisecond, func() {
		rec.Record(d1, Event{Kind: evMark, Detail: "d1@10a"})
		rec.Record(d1, Event{Kind: evMark, Detail: "d1@10b"})
	})
	d1.Schedule(20*time.Millisecond, func() { rec.Record(d1, Event{Kind: evMark, Detail: "d1@20"}) })
	x.Run(time.Second)
	evs := rec.Events()
	var got []string
	for _, ev := range evs {
		got = append(got, ev.Detail)
	}
	want := []string{"d1@10a", "d1@10b", "d2@10", "d1@20"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("merge order = %v, want %v", got, want)
	}
	if evs[0].At != 10*time.Millisecond || evs[3].At != 20*time.Millisecond {
		t.Fatalf("timestamps = %+v", evs)
	}
	if evs[0].Seq != 0 || evs[1].Seq != 1 {
		t.Fatalf("per-domain seq = %d,%d want 0,1", evs[0].Seq, evs[1].Seq)
	}
}

func TestRecorderBoundOverwritesOldest(t *testing.T) {
	x, rec, d1, _ := recorderWorld(t, 4)
	d1.Schedule(time.Millisecond, func() {
		for i := 0; i < 10; i++ {
			rec.Record(d1, Event{Kind: evMark, Value: int64(i)})
		}
	})
	x.Run(time.Second)
	evs := rec.Events()
	if len(evs) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if ev.Value != int64(6+i) {
			t.Fatalf("event %d value %d, want %d (newest survive)", i, ev.Value, 6+i)
		}
	}
	if rec.dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", rec.dropped())
	}
}

func TestRecorderDigestIsOrderSensitive(t *testing.T) {
	run := func(vals ...int64) uint64 {
		x, rec, d1, _ := recorderWorld(t, 0)
		d1.Schedule(time.Millisecond, func() {
			for _, v := range vals {
				rec.Record(d1, Event{Kind: evMark, Value: v})
			}
		})
		x.Run(time.Second)
		return rec.Digest()
	}
	if run(1, 2) == run(2, 1) {
		t.Fatal("digest must be order-sensitive")
	}
	if run(1, 2) != run(1, 2) {
		t.Fatal("digest must replay")
	}
}

func TestConvergencesQuery(t *testing.T) {
	evs := []Event{
		{At: 10 * time.Second, Kind: EvLink, Elem: "a-b", Detail: "down"},
		{At: 10*time.Second + 300*time.Millisecond, Kind: EvRoute, Node: "c"},
		{At: 12 * time.Second, Kind: EvRoute, Node: "d"},
		{At: 30 * time.Second, Kind: EvLink, Elem: "a-b", Detail: "up"},
		{At: 31 * time.Second, Kind: EvRoute, Node: "c"},
	}
	cs := Convergences(evs)
	if len(cs) != 2 {
		t.Fatalf("got %d convergence windows, want 2", len(cs))
	}
	if !cs[0].Down || cs[0].Link != "a-b" || cs[0].Installs != 2 || cs[0].Duration != 2*time.Second {
		t.Fatalf("down window = %+v", cs[0])
	}
	if cs[1].Down || cs[1].Installs != 1 || cs[1].Duration != time.Second {
		t.Fatalf("up window = %+v", cs[1])
	}
}

func TestPacketPathFilter(t *testing.T) {
	evs := []Event{
		{At: 1, Kind: EvPacket, Node: "a", Elem: "rt"},
		{At: 2, Kind: EvRoute},
		{At: 3, Kind: EvPacket, Node: "b", Elem: "encap"},
	}
	path := PacketPath(evs)
	if len(path) != 2 || path[0].Node != "a" || path[1].Node != "b" {
		t.Fatalf("path = %+v", path)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("iias", "denver", "click/rt/noroute").Add(3)
	r.gauge("", "denver", "routes").Set(12)
	r.histogram("iias", "denver", "wake-latency").Observe(2 * time.Microsecond)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE vini_click_rt_noroute counter",
		`vini_click_rt_noroute{slice="iias",node="denver"} 3`,
		"# TYPE vini_routes gauge",
		`vini_routes{node="denver"} 12`,
		"# TYPE vini_wake_latency histogram",
		`vini_wake_latency_count{slice="iias",node="denver"} 1`,
		`le="+Inf"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestSnapshotJSONStable(t *testing.T) {
	build := func() *Telemetry {
		tel := New(8)
		tel.Rec.EnsureDomain(0)
		tel.Reg.Counter("s", "n", "c").Add(9)
		return tel
	}
	a, _ := build().SnapshotJSON()
	b, _ := build().SnapshotJSON()
	if !bytes.Equal(a, b) {
		t.Fatalf("snapshot JSON not stable:\n%s\n---\n%s", a, b)
	}
}

// TestHotPathZeroAlloc proves the instrumentation primitives the
// data-plane fast path calls — counter adds, histogram observes, and
// flight-recorder appends — run at zero allocations per op.
func TestHotPathZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("s", "n", "pkts")
	h := r.histogram("s", "n", "lat")
	x, rec, d1, _ := recorderWorld(t, 0)
	_ = x
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if allocs := testing.AllocsPerRun(200, func() { c.Add(1) }); allocs != 0 {
		t.Fatalf("Counter.Add: %.1f allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { h.Observe(3 * time.Microsecond) }); allocs != 0 {
		t.Fatalf("Histogram.Observe: %.1f allocs/op, want 0", allocs)
	}
	ev := Event{Kind: EvPacket, Slice: "s", Node: "n", Elem: "rt", Detail: "route"}
	if allocs := testing.AllocsPerRun(200, func() { rec.Record(d1, ev) }); allocs != 0 {
		t.Fatalf("Recorder.Record: %.1f allocs/op, want 0", allocs)
	}
	var nilC *Counter
	if allocs := testing.AllocsPerRun(200, func() { nilC.Add(1) }); allocs != 0 {
		t.Fatalf("nil Counter.Add: %.1f allocs/op, want 0", allocs)
	}
}

func TestRegistryRetire(t *testing.T) {
	r := NewRegistry()
	r.Counter("s1", "n1", "pkts").Add(3)
	r.Counter("s1", "n2", "pkts").Add(4)
	r.Counter("s2", "n1", "pkts").Add(5)
	r.gauge("s1", "n1", "depth").Set(7)
	snapBefore := r.Snapshot()
	if n := r.Retire("s1"); n != 3 {
		t.Fatalf("Retire = %d, want 3", n)
	}
	if n := r.Series("s1"); n != 0 {
		t.Fatalf("Series(s1) after Retire = %d", n)
	}
	if n := r.Series("s2"); n != 1 {
		t.Fatalf("Series(s2) = %d, want 1", n)
	}
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Slice != "s2" || snap[0].Value != 5 {
		t.Fatalf("post-retire snapshot = %+v", snap)
	}
	// The pre-retire snapshot view is unaffected (fresh order slice).
	if len(snapBefore) != 4 {
		t.Fatalf("old snapshot mutated: %d entries", len(snapBefore))
	}
	// Re-registering the key yields a fresh series at zero.
	c := r.Counter("s1", "n1", "pkts")
	if c.Value() != 0 {
		t.Fatalf("re-registered counter = %d, want 0", c.Value())
	}
	if n := r.Retire("nope"); n != 0 {
		t.Fatalf("Retire of absent slice = %d", n)
	}
	var nilReg *Registry
	if nilReg.Retire("x") != 0 || nilReg.Series("x") != 0 {
		t.Fatal("nil registry not nil-safe")
	}
}
