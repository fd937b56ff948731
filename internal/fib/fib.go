// Package fib implements the IIAS forwarding state: a longest-prefix-match
// IPv4 forwarding table (the FIB that XORP installs into Click via the
// FEA) and the encapsulation table that maps virtual next hops to the
// public addresses of the physical nodes carrying the UDP tunnels
// (Section 4.2.1 of the paper).
package fib

import (
	"bytes"
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Route is one FIB entry. NextHop is the virtual interface address of the
// neighboring virtual node (what XORP installs); an invalid NextHop with
// valid OutPort means "directly connected / deliver locally on OutPort".
type Route struct {
	Prefix  netip.Prefix
	NextHop netip.Addr
	OutPort int // element output port / tunnel index
	Metric  uint32
	// Owner tags the installer of the route so bulk withdrawals
	// (RemoveOwner, Replace) only touch their own state. The FEA RIB
	// installs everything as owner "rib".
	Owner string
	// Proto labels the routing protocol that produced the route ("ospf",
	// "rip", "bgp", "static", "connected"), preserved across RIB merges.
	Proto string
}

func (r Route) String() string {
	return fmt.Sprintf("%s via %s port %d metric %d (%s)",
		r.Prefix, r.NextHop, r.OutPort, r.Metric, r.Owner)
}

// PrefixTextCompare orders prefixes by their text form, the order in
// which the routing protocols and the RIB have always handed route sets
// on (install order is observable, so it is not Prefix.Compare's numeric
// order). It equals strings.Compare(a.String(), b.String()) for every
// non-zero prefix but renders into stack buffers, so a sort comparator
// costs no heap.
func PrefixTextCompare(a, b netip.Prefix) int {
	var ab, bb [24]byte // "255.255.255.255/32" is 18 bytes
	return bytes.Compare(a.AppendTo(ab[:0]), b.AppendTo(bb[:0]))
}

// PrefixTextLess is PrefixTextCompare(a, b) < 0.
func PrefixTextLess(a, b netip.Prefix) bool { return PrefixTextCompare(a, b) < 0 }

// node is a binary-trie node keyed on successive destination-address bits.
type node struct {
	children [2]*node
	route    *entry
}

// entry is an installed route and the stamp of the last Replace that
// named it, which is how Replace tells the routes to withdraw from the
// ones it just confirmed without building a set.
type entry struct {
	Route
	seen uint64
}

// Table is a longest-prefix-match IPv4 forwarding table. It is safe for
// concurrent use: the live overlay looks up from socket readers while the
// routing process updates routes.
//
// Mutations go to an exact binary trie under the mutex; lookups go to an
// immutable stride-8 multibit trie compiled lazily from it (lock-free via
// atomic pointer, rebuilt when the version counter moves). Updates are
// control-plane rare, lookups are per-packet, so the data plane never
// contends with XORP installing routes.
type Table struct {
	mu   sync.RWMutex
	root node
	n    int
	// version increments on every mutation; Click's LookupIPRoute element
	// and per-consumer Caches invalidate against it.
	version atomic.Uint64
	// epoch numbers Replace calls (see entry.seen).
	epoch uint64
	// compiled is the stride-8 lookup structure for version
	// compiled.version; nil or stale until the next Lookup rebuilds it.
	compiled atomic.Pointer[ctable]
}

// New returns an empty table.
func New() *Table { return &Table{} }

// Len reports the number of routes.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.n
}

// Version returns the mutation counter.
func (t *Table) Version() uint64 {
	return t.version.Load()
}

func addrBit(a [4]byte, i int) int {
	return int(a[i/8]>>(7-i%8)) & 1
}

// Add inserts or replaces the route for r.Prefix. It returns an error for
// non-IPv4 or invalid prefixes.
func (t *Table) Add(r Route) error {
	if !r.Prefix.IsValid() || !r.Prefix.Addr().Is4() {
		return fmt.Errorf("fib: invalid IPv4 prefix %v", r.Prefix)
	}
	r.Prefix = r.Prefix.Masked()
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.nodeFor(r.Prefix)
	if n.route == nil {
		t.n++
	}
	n.route = &entry{Route: r}
	t.version.Add(1)
	return nil
}

// nodeFor descends to the trie node of a masked IPv4 prefix, creating
// the path. The caller holds the write lock.
func (t *Table) nodeFor(p netip.Prefix) *node {
	n := &t.root
	a := p.Addr().As4()
	for i := 0; i < p.Bits(); i++ {
		b := addrBit(a, i)
		if n.children[b] == nil {
			n.children[b] = &node{}
		}
		n = n.children[b]
	}
	return n
}

// Remove deletes the route for prefix, reporting whether it existed.
func (t *Table) Remove(prefix netip.Prefix) bool {
	if !prefix.IsValid() || !prefix.Addr().Is4() {
		return false
	}
	prefix = prefix.Masked()
	t.mu.Lock()
	defer t.mu.Unlock()
	n := &t.root
	a := prefix.Addr().As4()
	for i := 0; i < prefix.Bits(); i++ {
		n = n.children[addrBit(a, i)]
		if n == nil {
			return false
		}
	}
	if n.route == nil {
		return false
	}
	n.route = nil
	t.n--
	t.version.Add(1)
	return true
}

// Lookup returns the longest-prefix-match route for dst. The hot path is
// lock-free: four byte-indexed descents through the compiled stride-8
// trie.
func (t *Table) Lookup(dst netip.Addr) (Route, bool) {
	if !dst.Is4() {
		return Route{}, false
	}
	c := t.compiled.Load()
	if c == nil || c.version != t.version.Load() {
		c = t.recompile()
	}
	if r := c.lookup(dst.As4()); r != nil {
		return *r, true
	}
	return Route{}, false
}

// LookupReference returns the longest-prefix-match route for dst by
// walking the exact binary trie under the read lock, bypassing the
// compiled stride-8 structure entirely. It is deliberately the dumbest
// correct implementation: the differential oracle simulation tests
// check the fast path against, packet by packet.
func (t *Table) LookupReference(dst netip.Addr) (Route, bool) {
	if !dst.Is4() {
		return Route{}, false
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	var best *Route
	n := &t.root
	a := dst.As4()
	for i := 0; ; i++ {
		if n.route != nil {
			best = &n.route.Route
		}
		if i == 32 {
			break
		}
		n = n.children[addrBit(a, i)]
		if n == nil {
			break
		}
	}
	if best == nil {
		return Route{}, false
	}
	return *best, true
}

// VerifyCompiled checks the compiled stride-8 trie against the
// reference binary trie for every address in addrs, returning a
// description of the first divergence. A nil error means the fast path
// and the oracle agree on the whole sample.
func (t *Table) VerifyCompiled(addrs []netip.Addr) error {
	for _, a := range addrs {
		fast, fok := t.Lookup(a)
		ref, rok := t.LookupReference(a)
		if fok != rok || (fok && fast != ref) {
			return fmt.Errorf("fib: compiled lookup diverges for %v: fast=%v,%v reference=%v,%v",
				a, fast, fok, ref, rok)
		}
	}
	return nil
}

// ctable is an immutable stride-8 multibit trie: one level per address
// byte, with prefixes whose length is not a multiple of 8 expanded across
// the covered slots at build time (controlled prefix expansion).
type ctable struct {
	version uint64
	root    cnode
}

type cnode struct {
	// def is the route whose prefix ends exactly at this node's depth
	// (length ≡ 0 mod 8), the fallback for every slot.
	def *Route
	// routes[i] is the longest expanded route with 1–8 more bits matching
	// byte value i at this level.
	routes [256]*Route
	// children[i] descends to the next byte's level.
	children [256]*cnode
}

func (c *ctable) insert(r *Route) {
	a := r.Prefix.Addr().As4()
	bits := r.Prefix.Bits()
	n := &c.root
	d := 0
	for ; (d+1)*8 <= bits; d++ {
		b := a[d]
		if n.children[b] == nil {
			n.children[b] = &cnode{}
		}
		n = n.children[b]
	}
	rem := bits - d*8
	if rem == 0 {
		n.def = r
		return
	}
	// Expand the partial byte: every slot sharing the top rem bits.
	base := int(a[d] & (0xff << (8 - rem)))
	for i := 0; i < 1<<(8-rem); i++ {
		if ex := n.routes[base+i]; ex == nil || ex.Prefix.Bits() < bits {
			n.routes[base+i] = r
		}
	}
}

func (c *ctable) lookup(a [4]byte) *Route {
	var best *Route
	n := &c.root
	for i := 0; i < 4; i++ {
		if n.def != nil {
			best = n.def
		}
		b := a[i]
		if r := n.routes[b]; r != nil {
			best = r
		}
		if n.children[b] == nil {
			return best
		}
		n = n.children[b]
	}
	if n.def != nil { // /32 routes live at depth 4
		best = n.def
	}
	return best
}

// recompile rebuilds the stride-8 trie from the binary trie under the
// write lock (double-checked, so concurrent lookups build it once).
func (t *Table) recompile() *ctable {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := t.version.Load()
	if c := t.compiled.Load(); c != nil && c.version == v {
		return c
	}
	c := &ctable{version: v}
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		if n.route != nil {
			rc := n.route.Route
			c.insert(&rc)
		}
		walk(n.children[0])
		walk(n.children[1])
	}
	walk(&t.root)
	t.compiled.Store(c)
	return c
}

// CorruptCompiledForTest flips the output port of every route in the
// currently compiled stride-8 trie without touching the reference
// binary trie or the version counter. It exists solely for the
// simulation harness's mutation tests, which use it to prove the
// differential oracle (VerifyCompiled) actually catches a fast path
// that diverges from the reference. Returns the number of corrupted
// entries (0 means the table was empty).
func (t *Table) CorruptCompiledForTest() int {
	t.Lookup(netip.AddrFrom4([4]byte{0, 0, 0, 0})) // force compilation at the current version
	c := t.compiled.Load()
	if c == nil {
		return 0
	}
	var corrupt func(n *cnode) int
	corrupt = func(n *cnode) int {
		cnt := 0
		if n.def != nil {
			bad := *n.def
			bad.OutPort ^= 0x40
			n.def = &bad
			cnt++
		}
		for i, r := range n.routes {
			if r != nil {
				bad := *r
				bad.OutPort ^= 0x40
				n.routes[i] = &bad
				cnt++
			}
		}
		for _, ch := range n.children {
			if ch != nil {
				cnt += corrupt(ch)
			}
		}
		return cnt
	}
	return corrupt(&c.root)
}

// RemoveOwner deletes every route installed by owner, returning the count.
// The FEA uses this when a routing process disconnects or a slice is torn
// down.
func (t *Table) RemoveOwner(owner string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	removed := 0
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		if n.route != nil && n.route.Owner == owner {
			n.route = nil
			t.n--
			removed++
		}
		walk(n.children[0])
		walk(n.children[1])
	}
	walk(&t.root)
	if removed > 0 {
		t.version.Add(1)
	}
	return removed
}

// Routes returns all routes sorted by prefix (address then length), the
// order `show route` style dumps use.
func (t *Table) Routes() []Route {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]Route, 0, t.n)
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		if n.route != nil {
			out = append(out, n.route.Route)
		}
		walk(n.children[0])
		walk(n.children[1])
	}
	walk(&t.root)
	sort.Slice(out, func(i, j int) bool {
		ai, aj := out[i].Prefix.Addr(), out[j].Prefix.Addr()
		if ai != aj {
			return ai.Less(aj)
		}
		return out[i].Prefix.Bits() < out[j].Prefix.Bits()
	})
	return out
}

// Replace atomically swaps in a whole new route set for owner: routes not
// in rs are withdrawn, others added/updated. This is the "atomic
// switchover between virtual networks" primitive from the paper's
// conclusion. It is one pass under one lock, so a concurrent Lookup
// compiles the table before or after the swap and never between; routes
// that already stand as given are left alone, and the version moves
// once, and only if something did.
func (t *Table) Replace(owner string, rs []Route) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.epoch++
	changed := false
	for _, r := range rs {
		if !r.Prefix.IsValid() || !r.Prefix.Addr().Is4() {
			continue
		}
		r.Prefix = r.Prefix.Masked()
		r.Owner = owner
		n := t.nodeFor(r.Prefix)
		switch {
		case n.route == nil:
			n.route = &entry{Route: r}
			t.n++
			changed = true
		case n.route.Route != r:
			// Readers hold copies (the compiled trie) or the read lock.
			n.route.Route = r
			changed = true
		}
		n.route.seen = t.epoch
	}
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		if n.route != nil && n.route.Owner == owner && n.route.seen != t.epoch {
			n.route = nil
			t.n--
			changed = true
		}
		walk(n.children[0])
		walk(n.children[1])
	}
	walk(&t.root)
	if changed {
		t.version.Add(1)
	}
}

// String dumps the table, one route per line.
func (t *Table) String() string {
	var b strings.Builder
	for _, r := range t.Routes() {
		fmt.Fprintln(&b, r)
	}
	return b.String()
}
