// Package fib implements the IIAS forwarding state: a longest-prefix-match
// IPv4 forwarding table (the FIB that XORP installs into Click via the
// FEA) and the encapsulation table that maps virtual next hops to the
// public addresses of the physical nodes carrying the UDP tunnels
// (Section 4.2.1 of the paper).
package fib

import (
	"bytes"
	"fmt"
	"math/bits"
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
// Mutations go to an exact binary trie under the mutex, which holds no
// node without a route on or under it; lookups go to an immutable
// stride-8 multibit trie compiled lazily from it (lock-free via atomic
// pointer, rebuilt when the version counter moves), so the data plane
// never contends with XORP installing routes. A virtual router's table is
// ten to thirty routes and is recompiled after every real route change, of
// which a flapping world has thousands per second across its routers, so
// the compiled form is sized for the rebuild, not only the lookup: three
// flat arrays (see ctable) whose per-node child and slot arrays are
// bitmaps ranked by popcount. A recompile is four objects whatever the
// table holds, and nothing in them but the Route strings is a pointer the
// collector has to follow.
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
	if !t.root.remove(prefix.Addr().As4(), 0, prefix.Bits()) {
		return false
	}
	t.n--
	t.version.Add(1)
	return true
}

// remove withdraws the route bits-i levels under n along a, unlinking the
// nodes that leaves empty on the way back up.
func (n *node) remove(a [4]byte, i, bits int) bool {
	if i == bits {
		had := n.route != nil
		n.route = nil
		return had
	}
	b := addrBit(a, i)
	ch := n.children[b]
	if ch == nil || !ch.remove(a, i+1, bits) {
		return false
	}
	if ch.empty() {
		n.children[b] = nil
	}
	return true
}

func (n *node) empty() bool {
	return n.route == nil && n.children[0] == nil && n.children[1] == nil
}

// withdraw removes every route under n that drop names and unlinks the
// nodes that leaves empty, returning the number of routes removed.
func (n *node) withdraw(drop func(*entry) bool) int {
	removed := 0
	if n.route != nil && drop(n.route) {
		n.route = nil
		removed++
	}
	for b, ch := range n.children {
		if ch == nil {
			continue
		}
		removed += ch.withdraw(drop)
		if ch.empty() {
			n.children[b] = nil
		}
	}
	return removed
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

// lookupReference returns the longest-prefix-match route for dst by
// walking the exact binary trie under the read lock, bypassing the
// compiled stride-8 structure entirely. It is deliberately the dumbest
// correct implementation: the differential oracle simulation tests
// check the fast path against, packet by packet.
func (t *Table) lookupReference(dst netip.Addr) (Route, bool) {
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
		ref, rok := t.lookupReference(a)
		if fok != rok || (fok && fast != ref) {
			return fmt.Errorf("fib: compiled lookup diverges for %v: fast=%v,%v reference=%v,%v",
				a, fast, fok, ref, rok)
		}
	}
	return nil
}

// ctable is an immutable stride-8 multibit trie in three flat arrays: one
// level per address byte, with the prefixes that end 1 to 8 bits under a
// node expanded across the byte values they cover at build time
// (controlled prefix expansion) over the best match from the levels
// above, so the answer is one slot of the last node a lookup reaches. The
// 256 child pointers and 256 expanded slots of a level are not stored: a
// node keeps a bitmap of each and ranks into an array of only the entries
// present, after Poptrie (Asai & Ohara, SIGCOMM 2015).
type ctable struct {
	version uint64
	nodes   []cnode  // nodes[0] is the root; a node's children are contiguous
	runs    []uint32 // index+1 into routes, 0 for no route
	routes  []Route
}

type cnode struct {
	// kids has bit b set when byte value b descends to the next level, to
	// nodes[kid0 + number of kids bits below b].
	kids [4]uint64
	// starts has bit b set where the expanded slot array changes value
	// (bit 0 always): slot b reads runs[run0 + number of starts bits
	// through b - 1].
	starts     [4]uint64
	kid0, run0 uint32
}

func (c *ctable) lookup(a [4]byte) *Route {
	n := &c.nodes[0]
	for _, b := range a {
		// Shifted so that bit b is the top one and the bits above it are gone.
		w, up := int(b>>6), 63-uint(b&63)
		kids := n.kids[w] << up
		if kids>>63 == 0 { // b does not descend: its slot here is the answer
			r := c.runs[int(n.run0)+rank(&n.starts, w, n.starts[w]<<up)-1]
			if r == 0 {
				return nil
			}
			return &c.routes[r-1]
		}
		n = &c.nodes[int(n.kid0)+rank(&n.kids, w, kids<<1)]
	}
	return nil // not reached: a fourth-level node has no children
}

// rank counts the bits of top and of the words of bm before w.
func rank(bm *[4]uint64, w int, top uint64) int {
	n := bits.OnesCount64(top)
	for w--; w >= 0; w-- {
		n += bits.OnesCount64(bm[w&3]) // w&3 is w, without the bounds check
	}
	return n
}

// recompile rebuilds the stride-8 trie from the binary trie under the
// write lock (double-checked, so concurrent lookups build it once). The
// arrays are sized from the table they replace, so a rebuild after a
// route flip is exactly four allocations.
func (t *Table) recompile() *ctable {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := t.version.Load()
	old := t.compiled.Load()
	if old != nil && old.version == v {
		return old
	}
	nodes, runs := 1, 0
	if old != nil {
		nodes, runs = len(old.nodes), len(old.runs)
	}
	c := &ctable{
		version: v,
		nodes:   make([]cnode, 1, nodes),
		runs:    make([]uint32, 0, runs),
		routes:  make([]Route, 0, t.n),
	}
	fill := uint32(0)
	if t.root.route != nil {
		c.routes = append(c.routes, t.root.route.Route)
		fill = 1
	}
	c.compile(0, &t.root, fill)
	t.compiled.Store(c)
	return c
}

// compile fills nodes[at] from n, a binary-trie node on a byte boundary,
// and then the nodes under it. fill is the best match down to n, n's own
// route included.
func (c *ctable) compile(at int, n *node, fill uint32) {
	var slot [256]uint32
	var kid [256]*node
	for b := range slot {
		slot[b] = fill
	}
	for b, ch := range n.children {
		if ch != nil {
			c.expand(ch, 1, b<<7, &slot, &kid)
		}
	}
	cn := cnode{kid0: uint32(len(c.nodes)), run0: uint32(len(c.runs))}
	for b, r := range slot {
		if b == 0 || r != slot[b-1] {
			cn.starts[b>>6] |= 1 << (b & 63)
			c.runs = append(c.runs, r)
		}
		if kid[b] != nil {
			cn.kids[b>>6] |= 1 << (b & 63)
			c.nodes = append(c.nodes, cnode{})
		}
	}
	c.nodes[at] = cn
	at = int(cn.kid0)
	for b, k := range kid {
		if k != nil {
			c.compile(at, k, slot[b])
			at++
		}
	}
}

// expand writes n, depth bits under a byte boundary and first of the byte
// values from lo, and what is under it into slot: a route covers
// 256>>depth values, and a longer one, reached later, overwrites it. The
// nodes a whole byte down that have anything under them go into kid.
func (c *ctable) expand(n *node, depth, lo int, slot *[256]uint32, kid *[256]*node) {
	span := 256 >> depth
	if n.route != nil {
		c.routes = append(c.routes, n.route.Route)
		for i := lo; i < lo+span; i++ {
			slot[i] = uint32(len(c.routes))
		}
	}
	if depth == 8 {
		if n.children[0] != nil || n.children[1] != nil {
			kid[lo] = n
		}
		return
	}
	for b, ch := range n.children {
		if ch != nil {
			c.expand(ch, depth+1, lo+b*span/2, slot, kid)
		}
	}
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
	for i := range c.routes {
		c.routes[i].OutPort ^= 0x40
	}
	return len(c.routes)
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
	if removed := t.root.withdraw(func(e *entry) bool { return e.Owner == owner && e.seen != t.epoch }); removed > 0 {
		t.n -= removed
		changed = true
	}
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
