package core

// The address plan: one allocator instance per VINI owns the substrate's
// slice address space (10.0.0.0/8 minus the reserved 10.0/16) and the
// slice tunnel-port space, handing out power-of-two blocks sized to each
// slice's embedding instead of deriving both from the slice id. The old
// arithmetic scheme — prefix 10.<id>/16, ports 33000+256*id — burned a
// /16 and 256 ports on every slice regardless of size, which capped the
// substrate at 126 concurrent slices (the last 256-port block under
// 65536) and silently overlapped the NAT egress ranges at 40000+512*id
// with the tunnel blocks of ids >= 28. Sized blocks push the bound to
// thousands of slices and give NAT ranges their own allocations in the
// same space, so overlap is impossible by construction.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"net/netip"
	"sort"
)

// errExhausted is wrapped by every allocation failure in the address
// plan (prefix blocks, tunnel-port spans, NAT ranges); callers branch
// with errors.Is.
var errExhausted = errors.New("resource space exhausted")

// PortRange is an inclusive UDP port span.
type PortRange struct {
	Lo, Hi uint16
}

// valid reports whether the range has been allocated.
func (r PortRange) valid() bool { return r.Hi != 0 }

// size returns the number of ports in the span.
func (r PortRange) size() int { return int(r.Hi) - int(r.Lo) + 1 }

func (r PortRange) String() string { return fmt.Sprintf("%d-%d", r.Lo, r.Hi) }

// spanAlloc hands out power-of-two-sized spans from the half-open
// integer interval [lo, hi). Freed spans go to per-size LIFO stacks, so
// a destroy/create cycle of the same shape reuses the block that was
// just released — the recycling contract the lifecycle tests pin.
// Larger free blocks are split buddy-style when a smaller request finds
// its own stack empty; blocks are never coalesced (the split halves
// stay naturally aligned, and exact LIFO reuse matters more here than
// defragmentation — the workload is slices of a few shapes churning).
type spanAlloc struct {
	name string
	lo   uint32
	hi   uint32
	// next is the bump frontier: [next, hi) has never been carved.
	next uint32
	// aligned keeps every allocated span aligned to its own size, so a
	// span of 2^k starting at offset off can be read as the CIDR prefix
	// off/(32-k). Port spans do not need this.
	aligned bool
	// free maps span size -> LIFO stack of free offsets.
	free map[uint32][]uint32
	// live maps offset -> size for every outstanding span (audit).
	live map[uint32]uint32
}

func newSpanAlloc(name string, lo, hi uint32, aligned bool) *spanAlloc {
	return &spanAlloc{
		name: name, lo: lo, hi: hi, next: lo, aligned: aligned,
		free: make(map[uint32][]uint32),
		live: make(map[uint32]uint32),
	}
}

// acquire returns the offset of a free span of the given size (a power
// of two). Preference order: the size's own free stack (LIFO), then
// splitting the smallest larger free block, then the bump frontier.
func (a *spanAlloc) acquire(size uint32) (uint32, error) {
	if size == 0 || size&(size-1) != 0 {
		return 0, fmt.Errorf("core: %s allocator: size %d not a power of two", a.name, size)
	}
	if stack := a.free[size]; len(stack) > 0 {
		off := stack[len(stack)-1]
		a.free[size] = stack[:len(stack)-1]
		a.live[off] = size
		return off, nil
	}
	for s2 := size << 1; s2 != 0 && s2 <= a.hi-a.lo; s2 <<= 1 {
		stack := a.free[s2]
		if len(stack) == 0 {
			continue
		}
		off := stack[len(stack)-1]
		a.free[s2] = stack[:len(stack)-1]
		// Keep the low half, free the upper halves down to size; every
		// piece stays aligned to its own size.
		for s := s2 >> 1; s >= size; s >>= 1 {
			a.free[s] = append(a.free[s], off+s)
		}
		a.live[off] = size
		return off, nil
	}
	next := a.next
	if a.aligned {
		// Pad the frontier up to the next size-aligned boundary; the
		// skipped chunks (each aligned to its own size) become free
		// blocks rather than leaking.
		for next%size != 0 {
			s := next & -next
			if next+s > a.hi {
				return 0, fmt.Errorf("core: %s allocator: no %d-wide block free: %w", a.name, size, errExhausted)
			}
			a.free[s] = append(a.free[s], next)
			next += s
		}
		a.next = next
	}
	if next+size > a.hi || next+size < next {
		return 0, fmt.Errorf("core: %s allocator: no %d-wide block free: %w", a.name, size, errExhausted)
	}
	a.next = next + size
	a.live[next] = size
	return next, nil
}

// release returns a span to its size's free stack (LIFO).
func (a *spanAlloc) release(off, size uint32) {
	if a.live[off] != size {
		// Double-free or foreign span: surface loudly — this is the same
		// class of accounting bug the ledger audit exists to catch.
		panic(fmt.Sprintf("core: %s allocator: release of %d+%d not live", a.name, off, size))
	}
	delete(a.live, off)
	a.free[size] = append(a.free[size], off)
}

// audit checks the allocator's books: every live and free span lies in
// [lo, next), no two spans overlap, and live + free + uncarved frontier
// exactly tile [lo, hi).
func (a *spanAlloc) audit() error {
	type span struct{ off, size uint32 }
	var spans []span
	for off, size := range a.live {
		spans = append(spans, span{off, size})
	}
	for size, stack := range a.free {
		for _, off := range stack {
			spans = append(spans, span{off, size})
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].off < spans[j].off })
	var covered uint64
	prevEnd := a.lo
	for _, sp := range spans {
		if sp.off < prevEnd {
			return fmt.Errorf("core: %s allocator: span %d+%d overlaps previous (ends %d)",
				a.name, sp.off, sp.size, prevEnd)
		}
		if sp.off+sp.size > a.next {
			return fmt.Errorf("core: %s allocator: span %d+%d beyond frontier %d",
				a.name, sp.off, sp.size, a.next)
		}
		prevEnd = sp.off + sp.size
		covered += uint64(sp.size)
	}
	if covered != uint64(a.next-a.lo) {
		return fmt.Errorf("core: %s allocator: %d of %d carved units accounted for",
			a.name, covered, a.next-a.lo)
	}
	return nil
}

// Address-plan layout. The constants keep the default slice shape
// byte-identical to the historical arithmetic scheme: the first default
// slice gets 10.1.0.0/16 and ports 33256..33511 — exactly what id 1
// received under prefix 10.<id>/16 and basePort 33000+256*id — so every
// committed golden (Table 2, Figure 8) and every digest baseline is
// unchanged.
const (
	// planAddrLo..planAddrHi is the slice address space 10.1.0.0 —
	// 10.255.255.255; 10.0/16 stays reserved for the substrate (the old
	// scheme never issued id 0 either).
	planAddrLo = uint32(10)<<24 | uint32(1)<<16 // 10.1.0.0
	planAddrHi = uint32(11) << 24               // 11.0.0.0 (exclusive)
	// planPortLo..planPortHi is the slice port space: the historical
	// id-1 tunnel block through the end of the id-126 block. 8064
	// minimum-size (4-port) spans fit — the new concurrency bound when
	// slices declare their size.
	planPortLo = 33000 + 256     // 33256
	planPortHi = 33000 + 127*256 // 65512 (exclusive; last usable port 65511)
	// defaultPortSpan is the legacy 256-port tunnel block for unsized
	// slices; sizedPortSpan is the minimum span for slices that declare
	// MaxNodes (the tunnel socket needs one port; the rest is slack for
	// future per-slice listeners).
	defaultPortSpan = 256
	sizedPortSpan   = 4
	// natPortSpan is the NAT egress range EnableEgress draws per slice,
	// matching the old 512-port window at 40000+512*id — but allocated,
	// so it can no longer collide with anyone's tunnel block.
	natPortSpan = 512
)

// addrPlan owns the two allocators.
type addrPlan struct {
	prefixes *spanAlloc
	ports    *spanAlloc
}

func newAddrPlan() *addrPlan {
	return &addrPlan{
		prefixes: newSpanAlloc("prefix", planAddrLo, planAddrHi, true),
		ports:    newSpanAlloc("port", planPortLo, planPortHi, false),
	}
}

// blockSizeFor sizes a slice's address block from its embedding hints.
// The block splits in half: host (tap) addresses below, /30 link
// subnets above, so each half must fit its population — nodes plus
// network/broadcast, and 4*(links+1) subnet words (subnet numbering
// starts at 1). Zero hints select the legacy /16 (250 hosts, 8000
// subnets — the unsized contract).
func blockSizeFor(nodes, links int) uint32 {
	if nodes <= 0 {
		return 1 << 16
	}
	if links <= 0 {
		links = 2 * nodes
	}
	need := nodes + 2
	if n := 4 * (links + 1); n > need {
		need = n
	}
	half := uint32(16) // /27 minimum: room for 14 taps / 3 subnets
	for half < uint32(need) {
		half <<= 1
	}
	size := half * 2
	if size > 1<<16 {
		size = 1 << 16
	}
	return size
}

// acquirePrefix allocates an address block sized for the hints.
func (p *addrPlan) acquirePrefix(nodes, links int) (netip.Prefix, error) {
	size := blockSizeFor(nodes, links)
	off, err := p.prefixes.acquire(size)
	if err != nil {
		return netip.Prefix{}, err
	}
	return netip.PrefixFrom(u32Addr(off), 32-bits.TrailingZeros32(size)), nil
}

func (p *addrPlan) releasePrefix(pfx netip.Prefix) {
	p.prefixes.release(addrU32(pfx.Addr()), uint32(1)<<(32-pfx.Bits()))
}

// acquirePorts allocates a tunnel or NAT span of the given width.
func (p *addrPlan) acquirePorts(span uint32) (PortRange, error) {
	off, err := p.ports.acquire(span)
	if err != nil {
		return PortRange{}, err
	}
	return PortRange{Lo: uint16(off), Hi: uint16(off + span - 1)}, nil
}

func (p *addrPlan) releasePorts(r PortRange) {
	p.ports.release(uint32(r.Lo), uint32(r.size()))
}

// audit checks both allocators' books.
func (p *addrPlan) audit() error {
	if err := p.prefixes.audit(); err != nil {
		return err
	}
	return p.ports.audit()
}

func u32Addr(u uint32) netip.Addr {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], u)
	return netip.AddrFrom4(b)
}

func addrU32(a netip.Addr) uint32 {
	b := a.As4()
	return binary.BigEndian.Uint32(b[:])
}

// AuditAddressPlan verifies the substrate's address and port
// allocators: live blocks pairwise disjoint, free lists consistent,
// and carved space exactly accounted for. Complements Slice.Audit,
// which checks one slice's ledger.
func (v *VINI) AuditAddressPlan() error { return v.plan.audit() }

// LeakAddressBlockForTest carves a minimum-size port span and drops it
// from the allocator's books without freeing it — the accounting bug
// AuditAddressPlan exists to catch.
func (v *VINI) LeakAddressBlockForTest() {
	if off, err := v.plan.ports.acquire(sizedPortSpan); err == nil {
		delete(v.plan.ports.live, off)
	}
}
