package fib

import (
	"fmt"
	"net/netip"
)

// cacheSlots sizes the direct-mapped Cache. The IIAS hot path sees a
// handful of active destinations per forwarder, so a small power of two
// keeps the cache in one or two lines.
const cacheSlots = 16

// Cache is a version-stamped, direct-mapped route cache for a single
// consumer (one Click LookupIPRoute element, one netem kernel FIB). A hit
// for a repeated destination costs a version load and an address compare —
// no lock, no trie walk. Any table mutation bumps the version and the next
// lookup discards the whole cache, so a flipped route takes effect on the
// very next packet.
//
// A Cache is NOT safe for concurrent use; each consumer owns its own, in
// the spirit of a per-core flow cache.
type Cache struct {
	t       *Table
	version uint64
	slots   [cacheSlots]cacheSlot
}

type cacheSlot struct {
	dst   netip.Addr
	route Route
	ok    bool // table lookup result (negative hits cache too)
	set   bool
}

// NewCache returns a cache over t.
func NewCache(t *Table) *Cache { return &Cache{t: t} }

// Lookup is equivalent to the table's Lookup(dst) but serves repeated
// destinations from the cache while the table version is unchanged.
func (c *Cache) Lookup(dst netip.Addr) (Route, bool) {
	if !dst.Is4() {
		return Route{}, false
	}
	if v := c.t.version.Load(); v != c.version {
		c.version = v
		for i := range c.slots {
			c.slots[i].set = false
		}
	}
	s := &c.slots[slotOf(dst)]
	if s.set && s.dst == dst {
		return s.route, s.ok
	}
	r, ok := c.t.Lookup(dst)
	s.dst, s.route, s.ok, s.set = dst, r, ok, true
	return r, ok
}

// Verify checks every populated slot against the table's reference
// lookup. Slots cached under an older table version are legal (the next
// Lookup flushes them), so Verify only audits when the stamp is
// current; a populated slot that then disagrees with the reference trie
// means the invalidation protocol failed — exactly the bug class
// (serving stale routes after a flip) the simulation tests hunt.
func (c *Cache) Verify() error {
	if c.t.version.Load() != c.version {
		return nil
	}
	for i := range c.slots {
		s := &c.slots[i]
		if !s.set {
			continue
		}
		ref, ok := c.t.lookupReference(s.dst)
		if s.ok != ok || (ok && s.route != ref) {
			return fmt.Errorf("fib: cache slot %d stale for %v: cached=%v,%v reference=%v,%v",
				i, s.dst, s.route, s.ok, ref, ok)
		}
	}
	return nil
}

func slotOf(dst netip.Addr) int {
	b := dst.As4()
	h := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	h *= 2654435761 // Fibonacci hashing spreads low-entropy suffixes
	return int(h >> 28)
}
