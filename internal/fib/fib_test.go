package fib

import (
	"encoding/binary"
	"net/netip"
	"runtime"
	"testing"
	"testing/quick"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func addr(s string) netip.Addr  { return netip.MustParseAddr(s) }

func TestLongestPrefixWins(t *testing.T) {
	tb := New()
	for i, p := range []string{"0.0.0.0/0", "10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "10.1.2.3/32"} {
		if err := tb.Add(Route{Prefix: pfx(p), OutPort: i, Owner: "static"}); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		dst  string
		port int
	}{
		{"10.1.2.3", 4},
		{"10.1.2.4", 3},
		{"10.1.3.1", 2},
		{"10.2.0.1", 1},
		{"192.0.2.1", 0},
	}
	for _, c := range cases {
		r, ok := tb.Lookup(addr(c.dst))
		if !ok || r.OutPort != c.port {
			t.Fatalf("Lookup(%s) = %+v ok=%v, want port %d", c.dst, r, ok, c.port)
		}
	}
}

func TestNoDefaultNoMatch(t *testing.T) {
	tb := New()
	tb.Add(Route{Prefix: pfx("10.0.0.0/8")})
	if _, ok := tb.Lookup(addr("192.0.2.1")); ok {
		t.Fatal("matched without a covering prefix")
	}
	if _, ok := tb.Lookup(netip.MustParseAddr("2001:db8::1")); ok {
		t.Fatal("IPv6 lookup matched")
	}
}

func TestAddReplaceRemove(t *testing.T) {
	tb := New()
	tb.Add(Route{Prefix: pfx("10.0.0.0/8"), Metric: 1})
	tb.Add(Route{Prefix: pfx("10.0.0.0/8"), Metric: 2})
	if tb.Len() != 1 {
		t.Fatalf("Len = %d, want 1 after replace", tb.Len())
	}
	r, _ := tb.Lookup(addr("10.1.1.1"))
	if r.Metric != 2 {
		t.Fatalf("metric = %d, want 2", r.Metric)
	}
	if !tb.Remove(pfx("10.0.0.0/8")) {
		t.Fatal("Remove returned false")
	}
	if tb.Remove(pfx("10.0.0.0/8")) {
		t.Fatal("double Remove returned true")
	}
	if tb.Len() != 0 {
		t.Fatalf("Len = %d, want 0", tb.Len())
	}
}

func TestMaskedPrefixNormalization(t *testing.T) {
	tb := New()
	tb.Add(Route{Prefix: netip.PrefixFrom(addr("10.1.2.3"), 8)})
	r, ok := tb.Lookup(addr("10.9.9.9"))
	if !ok || r.Prefix != pfx("10.0.0.0/8") {
		t.Fatalf("unmasked insert not normalized: %+v ok=%v", r, ok)
	}
}

func TestRejectInvalid(t *testing.T) {
	tb := New()
	if err := tb.Add(Route{Prefix: netip.Prefix{}}); err == nil {
		t.Fatal("invalid prefix accepted")
	}
	if err := tb.Add(Route{Prefix: netip.MustParsePrefix("2001:db8::/32")}); err == nil {
		t.Fatal("IPv6 prefix accepted")
	}
}

func TestRemoveOwner(t *testing.T) {
	tb := New()
	tb.Add(Route{Prefix: pfx("10.1.0.0/16"), Owner: "ospf"})
	tb.Add(Route{Prefix: pfx("10.2.0.0/16"), Owner: "ospf"})
	tb.Add(Route{Prefix: pfx("10.3.0.0/16"), Owner: "static"})
	tb.Replace("ospf", nil)
	if tb.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tb.Len())
	}
	if _, ok := tb.Lookup(addr("10.3.1.1")); !ok {
		t.Fatal("static route lost")
	}
}

func TestReplaceAtomicSwitchover(t *testing.T) {
	tb := New()
	tb.Add(Route{Prefix: pfx("10.1.0.0/16"), Owner: "vnetA", Metric: 1})
	tb.Add(Route{Prefix: pfx("10.2.0.0/16"), Owner: "vnetA", Metric: 1})
	tb.Add(Route{Prefix: pfx("10.9.0.0/16"), Owner: "static", Metric: 9})
	tb.Replace("vnetA", []Route{
		{Prefix: pfx("10.1.0.0/16"), Metric: 5},
		{Prefix: pfx("10.4.0.0/16"), Metric: 5},
	})
	if tb.Len() != 3 {
		t.Fatalf("Len = %d, want 3: %s", tb.Len(), tb)
	}
	if _, ok := tb.Lookup(addr("10.2.1.1")); ok {
		t.Fatal("withdrawn route still present")
	}
	r, ok := tb.Lookup(addr("10.4.1.1"))
	if !ok || r.Metric != 5 || r.Owner != "vnetA" {
		t.Fatalf("new route wrong: %+v", r)
	}
	if _, ok := tb.Lookup(addr("10.9.1.1")); !ok {
		t.Fatal("other owner's route removed")
	}
}

// TestReplaceIsAtomicToReaders: a Lookup racing a stream of Replaces
// between two full route sets sees one set or the other, never the
// table between the withdrawal of one and the installation of the other.
// The sets cover the same addresses with different prefix lengths, so a
// half-installed table is a lookup that misses, or that matches the
// wrong generation's length.
func TestReplaceIsAtomicToReaders(t *testing.T) {
	var sets [2][]Route
	var dsts []netip.Addr
	for i := 0; i < 32; i++ {
		base := netip.AddrFrom4([4]byte{10, 7, byte(i), 0})
		sets[0] = append(sets[0], Route{Prefix: netip.PrefixFrom(base, 24), OutPort: 24})
		sets[1] = append(sets[1], Route{Prefix: netip.PrefixFrom(base, 25), OutPort: 25})
		dsts = append(dsts, base.Next())
	}
	tb := New()
	tb.Replace("rib", sets[0])
	stop := make(chan struct{})
	done := make(chan string, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				done <- ""
				return
			default:
			}
			r, ok := tb.Lookup(dsts[i%len(dsts)])
			if !ok || r.OutPort != r.Prefix.Bits() {
				done <- "lookup saw a table that is neither route set: " + r.String()
				return
			}
		}
	}()
	for i := 1; i <= 1000; i++ {
		tb.Replace("rib", sets[i&1])
	}
	close(stop)
	if msg := <-done; msg != "" {
		t.Fatal(msg)
	}
}

// TestReplaceOnlyMovesWhatDiffers: a Replace with the standing set is
// invisible (version, and so every compiled trie and route cache,
// untouched); one changed route moves the version once.
func TestReplaceOnlyMovesWhatDiffers(t *testing.T) {
	tb := New()
	tb.Add(Route{Prefix: pfx("10.9.0.0/16"), Owner: "static"})
	set := []Route{
		{Prefix: pfx("10.1.0.0/16"), Metric: 5},
		{Prefix: pfx("10.4.0.7/16"), Metric: 5}, // unmasked on purpose
		{Prefix: netip.Prefix{}},                // invalid: skipped, as Add refuses it
	}
	tb.Replace("rib", set)
	v := tb.Version()
	tb.Replace("rib", set)
	if tb.Version() != v {
		t.Fatal("replacing a set with itself moved the version")
	}
	set[0].Metric = 6
	tb.Replace("rib", set)
	if tb.Version() != v+1 {
		t.Fatalf("one changed route moved the version by %d, want 1", tb.Version()-v)
	}
	if r, _ := tb.Lookup(addr("10.1.2.3")); r.Metric != 6 {
		t.Fatalf("changed route not installed: %v", r)
	}
	tb.Replace("rib", nil)
	if tb.Version() != v+2 || tb.Len() != 1 {
		t.Fatalf("withdrawing the set: version +%d, %d routes left", tb.Version()-v, tb.Len())
	}
	// Taking over another owner's prefix is a change.
	tb.Replace("rib", []Route{{Prefix: pfx("10.9.0.0/16")}})
	if r, _ := tb.Lookup(addr("10.9.1.1")); r.Owner != "rib" || tb.Len() != 1 {
		t.Fatalf("prefix not taken over: %v", r)
	}
}

func TestRoutesSorted(t *testing.T) {
	tb := New()
	for _, p := range []string{"10.2.0.0/16", "10.0.0.0/8", "10.1.0.0/16", "10.1.0.0/24"} {
		tb.Add(Route{Prefix: pfx(p)})
	}
	rs := tb.Routes()
	want := []string{"10.0.0.0/8", "10.1.0.0/16", "10.1.0.0/24", "10.2.0.0/16"}
	for i, w := range want {
		if rs[i].Prefix.String() != w {
			t.Fatalf("Routes[%d] = %v, want %s", i, rs[i].Prefix, w)
		}
	}
}

// TestLookupMatchesLinearScan is the property test: trie LPM must agree
// with a brute-force longest-match reference on random tables.
func TestLookupMatchesLinearScan(t *testing.T) {
	f := func(seeds []uint32, probes []uint32) bool {
		tb := New()
		var routes []Route
		for i, s := range seeds {
			var b [4]byte
			binary.BigEndian.PutUint32(b[:], s)
			bits := int(s % 33)
			p := netip.PrefixFrom(netip.AddrFrom4(b), bits).Masked()
			r := Route{Prefix: p, OutPort: i}
			tb.Add(r)
			// Linear reference replaces duplicates like the trie does.
			replaced := false
			for j := range routes {
				if routes[j].Prefix == p {
					routes[j] = r
					replaced = true
				}
			}
			if !replaced {
				routes = append(routes, r)
			}
		}
		for _, pr := range probes {
			var b [4]byte
			binary.BigEndian.PutUint32(b[:], pr)
			dst := netip.AddrFrom4(b)
			var best *Route
			for i := range routes {
				if routes[i].Prefix.Contains(dst) {
					if best == nil || routes[i].Prefix.Bits() > best.Prefix.Bits() {
						best = &routes[i]
					}
				}
			}
			got, ok := tb.Lookup(dst)
			if (best != nil) != ok {
				return false
			}
			if ok && (got.Prefix != best.Prefix || got.OutPort != best.OutPort) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestVersionIncrements(t *testing.T) {
	tb := New()
	v0 := tb.Version()
	tb.Add(Route{Prefix: pfx("10.0.0.0/8")})
	if tb.Version() == v0 {
		t.Fatal("version did not change on Add")
	}
	v1 := tb.Version()
	tb.Remove(pfx("10.0.0.0/8"))
	if tb.Version() == v1 {
		t.Fatal("version did not change on Remove")
	}
}

func TestEncapTable(t *testing.T) {
	et := NewEncapTable()
	e := EncapEntry{NextHop: addr("10.1.1.2"), Remote: addr("198.32.154.250"), Port: 33000, Tunnel: 1}
	et.Set(e)
	got, ok := et.Lookup(addr("10.1.1.2"))
	if !ok || got != e {
		t.Fatalf("Lookup = %+v ok=%v", got, ok)
	}
	if _, ok := et.Lookup(addr("10.1.1.3")); ok {
		t.Fatal("spurious match")
	}
	et.Set(EncapEntry{NextHop: addr("10.1.1.3"), Remote: addr("198.32.154.226"), Port: 33000, Tunnel: 2})
	if got, ok := et.Lookup(addr("10.1.1.2")); !ok || got != e {
		t.Fatalf("first entry after a second Set = %+v ok=%v", got, ok)
	}
}

func TestEncapTableRemoteAliases(t *testing.T) {
	et := NewEncapTable()
	e := EncapEntry{NextHop: addr("10.1.1.2"), Remote: addr("198.32.154.250"), Port: 33000, Tunnel: 1}
	et.Set(e)
	if _, ok := et.ByRemote(addr("198.32.154.1")); ok {
		t.Fatal("unaliased remote matched")
	}
	v0 := et.Version()
	et.SetRemoteAlias(addr("198.32.154.1"), addr("198.32.154.250"))
	if et.Version() == v0 {
		t.Fatal("version did not change on SetRemoteAlias")
	}
	if got, ok := et.ByRemote(addr("198.32.154.1")); !ok || got != e {
		t.Fatalf("alias lookup = %+v ok=%v", got, ok)
	}
	// The direct remote still resolves, and aliases survive reindexing.
	et.Set(EncapEntry{NextHop: addr("10.1.1.3"), Remote: addr("198.32.154.226"), Port: 33000, Tunnel: 2})
	if got, ok := et.ByRemote(addr("198.32.154.1")); !ok || got != e {
		t.Fatalf("alias lost across Set: %+v ok=%v", got, ok)
	}
	if got, ok := et.ByRemote(addr("198.32.154.250")); !ok || got != e {
		t.Fatalf("direct remote lookup = %+v ok=%v", got, ok)
	}
	// Aliases chase the canonical remote's current entry: after the
	// migration cutover repoints Remote, the alias follows.
	moved := EncapEntry{NextHop: addr("10.1.1.2"), Remote: addr("198.32.154.99"), Port: 33000, Tunnel: 1}
	et.Set(moved)
	et.SetRemoteAlias(addr("198.32.154.250"), addr("198.32.154.99"))
	if got, ok := et.ByRemote(addr("198.32.154.250")); !ok || got != moved {
		t.Fatalf("repointed alias lookup = %+v ok=%v", got, ok)
	}
	et.ClearRemoteAlias(addr("198.32.154.250"))
	if _, ok := et.ByRemote(addr("198.32.154.250")); ok {
		t.Fatal("cleared alias still matched")
	}
}

func BenchmarkLookup(b *testing.B) {
	tb := New()
	for i := 0; i < 1000; i++ {
		var a [4]byte
		binary.BigEndian.PutUint32(a[:], uint32(i)<<14)
		tb.Add(Route{Prefix: netip.PrefixFrom(netip.AddrFrom4(a), 18).Masked()})
	}
	dst := addr("10.1.2.3")
	tb.Add(Route{Prefix: pfx("10.0.0.0/8")})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Lookup(dst)
	}
}

// TestPrefixTextLessMatchesStringOrder pins the comparator the routing
// protocols sort route sets with to the String() order it replaces
// (install order is observable in the goldens), and to zero heap.
func TestPrefixTextLessMatchesStringOrder(t *testing.T) {
	f := func(a, b [4]byte, abits, bbits uint8) bool {
		p := netip.PrefixFrom(netip.AddrFrom4(a), int(abits%33))
		q := netip.PrefixFrom(netip.AddrFrom4(b), int(bbits%33))
		return (PrefixTextCompare(p, q) < 0) == (p.String() < q.String()) &&
			(PrefixTextCompare(p, p.Masked()) < 0) == (p.String() < p.Masked().String())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	// Text order, not numeric order: "10.0.0.0/8" < "9.0.0.0/8".
	if PrefixTextCompare(pfx("10.0.0.0/8"), pfx("9.0.0.0/8")) >= 0 {
		t.Fatal("PrefixTextCompare is not text order")
	}
	six := netip.MustParsePrefix("2001:db8:aaaa:bbbb:cccc:dddd:eeee:ffff/128") // outgrows the stack buffer
	if (PrefixTextCompare(six, pfx("10.0.0.0/8")) < 0) != (six.String() < "10.0.0.0/8") {
		t.Fatal("PrefixTextCompare disagrees with String order on a long IPv6 prefix")
	}
	p, q := pfx("10.1.2.0/24"), pfx("10.1.128.0/17")
	if n := testing.AllocsPerRun(100, func() { PrefixTextCompare(p, q) }); n != 0 {
		t.Fatalf("PrefixTextCompare allocates %.0f objects per comparison, want 0", n)
	}
}

// TestRecompileIsFourObjects pins what one real route change costs the
// next Lookup: the compiled table (its header and three flat arrays),
// whatever the table holds. The small table is shaped like a scale-world
// vnode FIB, the large one is the table the benchmark's fib.install_ns
// probe flips a route of.
func TestRecompileIsFourObjects(t *testing.T) {
	vnode := []Route{
		{Prefix: pfx("10.0.0.0/8"), NextHop: addr("10.7.1.2"), OutPort: 1},
		{Prefix: pfx("10.7.1.1/32"), OutPort: 0}, // our end of the first link, to the tap
	}
	for i := 1; i <= 18; i++ { // one /30 per virtual link, each under its own third byte
		vnode = append(vnode, Route{Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 7, byte(i), 0}), 30),
			NextHop: addr("10.7.1.2"), OutPort: 1, Metric: uint32(i)})
	}
	probe := []Route{{Prefix: pfx("10.200.0.0/16")}}
	for i := 0; i < 1024; i++ {
		probe = append(probe, Route{Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 4), byte(i << 4), 0}), 20)})
	}
	for _, set := range [][]Route{vnode, probe} {
		tb := New()
		tb.Replace("rib", set)
		dst, hops := addr("10.1.2.3"), [2]netip.Addr{addr("10.7.1.2"), addr("10.7.1.6")}
		i := 0
		flip := func() {
			i++
			set[len(set)-1].NextHop = hops[i&1]
			tb.Replace("rib", set)
			tb.Lookup(dst)
		}
		if n := testing.AllocsPerRun(50, flip); n > 5 {
			t.Errorf("%d routes: a route flip and the lookup after it allocate %.0f objects, want at most 5", len(set), n)
		}
		const flips = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for j := 0; j < flips; j++ {
			flip()
		}
		runtime.ReadMemStats(&after)
		// 4 KB for the 20-route table, scaled by the route count.
		got, max := (after.TotalAlloc-before.TotalAlloc)/flips, uint64(len(set))*(4<<10)/20
		if got > max {
			t.Errorf("%d routes: a route flip and the lookup after it allocate %d bytes, want at most %d", len(set), got, max)
		}
	}
}
