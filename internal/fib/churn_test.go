package fib

import (
	"encoding/binary"
	"math/rand"
	"net/netip"
	"testing"
)

// opReader decodes table operations from a byte string; past its end
// every byte reads 0.
type opReader struct{ data []byte }

func (o *opReader) byte() byte {
	if len(o.data) == 0 {
		return 0
	}
	b := o.data[0]
	o.data = o.data[1:]
	return b
}

// prefix draws from the shapes a stride-8 expansion gets wrong first:
// the default route, lengths on and either side of a byte boundary, host
// routes, and few enough distinct addresses that prefixes nest, collide
// and leave holes (a /25 with a /27 withdrawn from inside it).
func (o *opReader) prefix() netip.Prefix {
	lens := [...]int{0, 1, 7, 8, 9, 16, 24, 25, 27, 30, 31, 32}
	d := o.byte()
	a := [4]byte{
		[...]byte{0, 10, 127, 128}[d&3],
		[...]byte{0, 1, 128, 255}[d>>2&3],
		[...]byte{0, 127, 128, 255}[d>>4&3],
		o.byte(),
	}
	return netip.PrefixFrom(netip.AddrFrom4(a), lens[int(o.byte())%len(lens)]).Masked()
}

func (o *opReader) owner() string { return [...]string{"ospf", "rip"}[o.byte()&1] }

// runTableOps applies the Add / Remove / Replace / RemoveOwner sequence
// data encodes to a Table and to a map, and after every step holds the
// compiled lookup to the reference walk, the reference walk to a linear
// scan of the map, and the binary trie to "no node without a route on or
// under it".
func runTableOps(t *testing.T, data []byte) {
	o := &opReader{data: data}
	rng := rand.New(rand.NewSource(int64(len(data))))
	tb := New()
	model := map[netip.Prefix]Route{}
	for step := 0; len(o.data) > 0; step++ {
		switch op := o.byte() % 8; op {
		case 0, 1, 2, 3:
			r := Route{Prefix: o.prefix(), Owner: o.owner(), OutPort: step}
			if err := tb.Add(r); err != nil {
				t.Fatal(err)
			}
			model[r.Prefix] = r
		case 4, 5:
			p := o.prefix()
			_, had := model[p]
			if tb.Remove(p) != had {
				t.Fatalf("step %d: Remove(%v) = %v with the route installed: %v", step, p, !had, had)
			}
			delete(model, p)
		case 6:
			owner := o.owner()
			set := make([]Route, o.byte()%6)
			for p, r := range model {
				if r.Owner == owner {
					delete(model, p)
				}
			}
			for i := range set {
				set[i] = Route{Prefix: o.prefix(), OutPort: step, Metric: uint32(i)}
				r := set[i]
				r.Owner = owner
				model[r.Prefix] = r
			}
			tb.Replace(owner, set)
		case 7:
			owner := o.owner()
			for p, r := range model {
				if r.Owner == owner {
					delete(model, p)
				}
			}
			tb.Replace(owner, nil)
		}
		if tb.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, want %d", step, tb.Len(), len(model))
		}
		checkPruned(t, &tb.root)
		var probes []netip.Addr
		for p := range model {
			first := binary.BigEndian.Uint32(p.Addr().AsSlice())
			last := first | uint32(1<<(32-p.Bits())-1)
			for _, u := range [...]uint32{first, last, first - 1, last + 1} {
				probes = append(probes, addrOf(u))
			}
		}
		for i := 0; i < 64; i++ {
			probes = append(probes, addrOf(rng.Uint32()))
		}
		if err := tb.VerifyCompiled(probes); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for _, dst := range probes {
			var want Route
			found := false
			for p, r := range model {
				if p.Contains(dst) && (!found || p.Bits() > want.Prefix.Bits()) {
					want, found = r, true
				}
			}
			if got, ok := tb.lookupReference(dst); ok != found || got != want {
				t.Fatalf("step %d: lookupReference(%v) = %v,%v, linear scan says %v,%v", step, dst, got, ok, want, found)
			}
		}
	}
}

func addrOf(u uint32) netip.Addr {
	var a [4]byte
	binary.BigEndian.PutUint32(a[:], u)
	return netip.AddrFrom4(a)
}

// checkPruned fails if any node under n has neither a route nor children.
func checkPruned(t *testing.T, n *node) {
	for _, ch := range n.children {
		if ch == nil {
			continue
		}
		if ch.empty() {
			t.Fatal("the binary trie holds a node with no route and no children")
		}
		checkPruned(t, ch)
	}
}

// TestCompiledMatchesReferenceUnderChurn: TestLookupMatchesLinearScan
// only ever adds; the worlds withdraw and re-add prefixes for as long as
// they run.
func TestCompiledMatchesReferenceUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 40; i++ {
		data := make([]byte, 600)
		rng.Read(data)
		runTableOps(t, data)
	}
}

func FuzzTableOps(f *testing.F) {
	f.Add([]byte{})
	// A /25 with a /27 hole: add both, withdraw the /27, then its owner.
	f.Add([]byte{0, 1, 0, 7, 0, 0, 1, 32, 8, 1, 4, 1, 32, 8, 7, 1})
	// Default route and /1 under two owners, one Replace taking both over.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 3, 0, 1, 1, 6, 1, 2, 0, 0, 0, 3, 0, 1, 6, 0, 0})
	// Both halves of a byte boundary: 10.0.127.0/24, 10.0.128.0/24, the /16 over them, a /32 under one.
	f.Add([]byte{0, 17, 0, 6, 0, 1, 33, 0, 6, 1, 2, 1, 0, 5, 0, 3, 17, 9, 11, 1, 4, 17, 0, 6})
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 4; i++ {
		data := make([]byte, 200)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(runTableOps)
}

// TestEmptiedTrieIsPruned: what Remove, RemoveOwner and Replace empty
// they unlink, so a table that held a thousand prefixes and holds none
// is a bare root, and compiles to one node with one run of "no route".
func TestEmptiedTrieIsPruned(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tb := New()
	owners := [...]string{"static", "ospf", "rip"}
	var static []netip.Prefix
	for i := 0; i < 1000; i++ {
		r := Route{Prefix: netip.PrefixFrom(addrOf(rng.Uint32()), rng.Intn(33)).Masked(), Owner: owners[i%3]}
		tb.Add(r)
		if r.Owner == "static" {
			static = append(static, r.Prefix)
		}
	}
	tb.Lookup(addr("10.1.2.3"))
	if c := tb.compiled.Load(); len(c.routes) != tb.Len() || len(c.nodes) < 2 {
		t.Fatalf("full table compiled to %d nodes, %d routes of %d", len(c.nodes), len(c.routes), tb.Len())
	}
	for _, p := range static {
		tb.Remove(p) // false for a prefix drawn twice, or re-added under another owner
	}
	tb.Replace("ospf", nil)
	tb.Replace("rip", nil)
	if tb.Len() != 0 || !tb.root.empty() {
		t.Fatalf("%d routes left, root %+v", tb.Len(), tb.root)
	}
	if _, ok := tb.Lookup(addr("10.1.2.3")); ok {
		t.Fatal("empty table matched")
	}
	if c := tb.compiled.Load(); len(c.nodes) != 1 || len(c.runs) != 1 || len(c.routes) != 0 {
		t.Fatalf("empty table compiled to %d nodes, %d runs, %d routes; want 1, 1, 0", len(c.nodes), len(c.runs), len(c.routes))
	}
}
