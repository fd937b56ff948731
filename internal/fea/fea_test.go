package fea

import (
	"net/netip"
	"slices"
	"testing"

	"vini/internal/fib"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func addr(s string) netip.Addr  { return netip.MustParseAddr(s) }

func TestAdminDistanceWins(t *testing.T) {
	tbl := fib.New()
	rib := NewRIB(tbl)
	rib.SetRoutes("rip", DistRIP, []fib.Route{{Prefix: pfx("10.1.0.0/16"), Metric: 1, OutPort: 9}})
	rib.SetRoutes("ospf", DistOSPF, []fib.Route{{Prefix: pfx("10.1.0.0/16"), Metric: 100, OutPort: 2}})
	r, ok := tbl.Lookup(addr("10.1.2.3"))
	if !ok || r.Proto != "ospf" || r.OutPort != 2 {
		t.Fatalf("winner = %+v, want ospf despite higher metric", r)
	}
}

func TestMetricBreaksTies(t *testing.T) {
	tbl := fib.New()
	rib := NewRIB(tbl)
	rib.SetRoutes("ospf", DistOSPF, []fib.Route{
		{Prefix: pfx("10.1.0.0/16"), Metric: 5, OutPort: 1},
	})
	rib.SetRoutes("ospf2", DistOSPF, []fib.Route{
		{Prefix: pfx("10.1.0.0/16"), Metric: 3, OutPort: 2},
	})
	r, _ := tbl.Lookup(addr("10.1.0.1"))
	if r.OutPort != 2 {
		t.Fatalf("lower metric lost: %+v", r)
	}
}

func TestFullReplaceWithdrawsStale(t *testing.T) {
	tbl := fib.New()
	rib := NewRIB(tbl)
	rib.SetRoutes("ospf", DistOSPF, []fib.Route{
		{Prefix: pfx("10.1.0.0/16")},
		{Prefix: pfx("10.2.0.0/16")},
	})
	rib.SetRoutes("ospf", DistOSPF, []fib.Route{
		{Prefix: pfx("10.1.0.0/16")},
	})
	if _, ok := tbl.Lookup(addr("10.2.0.1")); ok {
		t.Fatal("stale route survived full replace")
	}
	if _, ok := tbl.Lookup(addr("10.1.0.1")); !ok {
		t.Fatal("kept route missing")
	}
}

func TestRemoveProtocolFallsBack(t *testing.T) {
	tbl := fib.New()
	rib := NewRIB(tbl)
	rib.SetRoutes("ospf", DistOSPF, []fib.Route{{Prefix: pfx("10.1.0.0/16"), OutPort: 1}})
	rib.SetRoutes("rip", DistRIP, []fib.Route{{Prefix: pfx("10.1.0.0/16"), OutPort: 2}})
	rib.SetRoutes("ospf", DistOSPF, nil)
	r, ok := tbl.Lookup(addr("10.1.0.1"))
	if !ok || r.Proto != "rip" {
		t.Fatalf("fallback = %+v ok=%v", r, ok)
	}
}

func TestConnectedBeatsEverything(t *testing.T) {
	tbl := fib.New()
	rib := NewRIB(tbl)
	rib.SetRoutes("bgp", DistEBGP, []fib.Route{{Prefix: pfx("10.1.1.0/30"), OutPort: 5}})
	rib.SetRoutes("connected", DistConnected, []fib.Route{{Prefix: pfx("10.1.1.0/30"), OutPort: 0}})
	r, _ := tbl.Lookup(addr("10.1.1.2"))
	if r.Proto != "connected" {
		t.Fatalf("winner = %+v", r)
	}
}

func TestDistinctPrefixesCoexist(t *testing.T) {
	tbl := fib.New()
	rib := NewRIB(tbl)
	rib.SetRoutes("ospf", DistOSPF, []fib.Route{{Prefix: pfx("10.1.0.0/16")}})
	rib.SetRoutes("bgp", DistEBGP, []fib.Route{{Prefix: pfx("192.0.2.0/24")}})
	if len(tbl.Routes()) != 2 {
		t.Fatalf("routes = %v", tbl.Routes())
	}
}

func TestPreferOverridesDistance(t *testing.T) {
	tbl := fib.New()
	rib := NewRIB(tbl)
	rib.SetRoutes("ospf", DistOSPF, []fib.Route{{Prefix: pfx("10.1.0.0/16"), OutPort: 1}})
	rib.SetRoutes("rip", DistRIP, []fib.Route{{Prefix: pfx("10.1.0.0/16"), OutPort: 2}})
	rib.SetRoutes("connected", DistConnected, []fib.Route{{Prefix: pfx("10.1.9.0/30"), OutPort: 0}})
	rib.Prefer("rip")
	r, _ := tbl.Lookup(addr("10.1.0.1"))
	if r.Proto != "rip" {
		t.Fatalf("preferred rip lost: %+v", r)
	}
	// Connected routes still beat the preference.
	r, _ = tbl.Lookup(addr("10.1.9.1"))
	if r.Proto != "connected" {
		t.Fatalf("connected lost to preference: %+v", r)
	}
	// Switching back and clearing restores distance order.
	rib.Prefer("ospf")
	r, _ = tbl.Lookup(addr("10.1.0.1"))
	if r.Proto != "ospf" {
		t.Fatalf("switch back failed: %+v", r)
	}
	rib.Prefer("")
	r, _ = tbl.Lookup(addr("10.1.0.1"))
	if r.Proto != "ospf" {
		t.Fatalf("normal selection failed: %+v", r)
	}
}

// TestUnchangedSetLeavesTheFIBAlone: a protocol re-announcing the set it
// already holds (an SPF run that changed nothing) touches neither the
// merge nor the FIB version — no recompile, no cache flush on the data
// plane — yet the install observer still hears one event per call, and
// the caller's slice is only borrowed.
func TestUnchangedSetLeavesTheFIBAlone(t *testing.T) {
	tbl := fib.New()
	rib := NewRIB(tbl)
	var seen []int
	rib.OnInstall(func(proto string, n int) { seen = append(seen, n) })
	rib.SetRoutes("connected", DistConnected, []fib.Route{{Prefix: pfx("10.0.0.1/32"), OutPort: 1}})
	set := []fib.Route{
		{Prefix: pfx("10.1.0.0/16"), Metric: 5, OutPort: 2},
		{Prefix: pfx("10.2.0.0/16"), Metric: 7, OutPort: 2},
	}
	rib.SetRoutes("ospf", DistOSPF, set)
	v := tbl.Version()
	rib.SetRoutes("ospf", DistOSPF, set)
	if tbl.Version() != v {
		t.Fatal("an unchanged announcement moved the FIB version")
	}
	set[1].Metric = 8 // the RIB kept its own copy
	if got := rib.ProtoRoutes("ospf")[1].Metric; got != 7 {
		t.Fatalf("RIB aliases the caller's slice: metric %d", got)
	}
	rib.SetRoutes("ospf", DistOSPF, set)
	if tbl.Version() == v {
		t.Fatal("a changed announcement did not reach the FIB")
	}
	rib.SetRoutes("ospf", DistRIP, set) // same routes, new distance: a change
	if want := []int{1, 3, 3, 3, 3}; !slices.Equal(seen, want) {
		t.Fatalf("install events = %v, want %v", seen, want)
	}
	if err := rib.Verify(); err != nil {
		t.Fatal(err)
	}
}
