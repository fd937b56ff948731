package core

import (
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
)

// TestAddrPlanProperties drives randomized acquire/release/re-acquire
// sequences through CreateSlice/Destroy and asserts the allocator
// invariants after every step: no prefix or port-range overlap among
// live slices, exhaustion surfaces as the typed errExhausted (never a
// panic), the per-slice ledger Audit and the substrate-wide address
// plan audit stay balanced, and destroy/create of the same shape reuses
// the just-released blocks (LIFO).
func TestAddrPlanProperties(t *testing.T) {
	shapes := []SliceConfig{
		{},                         // legacy /16 + 256 ports
		{MaxNodes: 3, MaxLinks: 3}, // /27 + 4 ports
		{MaxNodes: 6, MaxLinks: 6}, // /26
		{MaxNodes: 12, MaxLinks: 20},
		{MaxNodes: 40, MaxLinks: 64},
	}
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			v := New(seed)
			var live []*Slice
			checkDisjoint := func() {
				t.Helper()
				for i := 0; i < len(live); i++ {
					for j := i + 1; j < len(live); j++ {
						a, b := live[i], live[j]
						if a.Prefix().Overlaps(b.Prefix()) {
							t.Fatalf("prefixes overlap: %s %v / %s %v",
								a.Name(), a.Prefix(), b.Name(), b.Prefix())
						}
						ap, bp := a.PortRange(), b.PortRange()
						if ap.Lo <= bp.Hi && bp.Lo <= ap.Hi {
							t.Fatalf("port ranges overlap: %s %v / %s %v",
								a.Name(), ap, b.Name(), bp)
						}
					}
				}
			}
			for step := 0; step < 600; step++ {
				if rng.Intn(3) != 0 || len(live) == 0 {
					cfg := shapes[rng.Intn(len(shapes))]
					cfg.Name = fmt.Sprintf("s%d", step)
					s, err := v.CreateSlice(cfg)
					if err != nil {
						if !errors.Is(err, errExhausted) {
							t.Fatalf("step %d: create failed with untyped error: %v", step, err)
						}
						// Exhausted: fall through to the invariant checks;
						// a later destroy frees room.
					} else {
						if !s.Prefix().IsValid() || !s.PortRange().valid() {
							t.Fatalf("step %d: slice admitted with invalid blocks", step)
						}
						live = append(live, s)
					}
				} else {
					i := rng.Intn(len(live))
					s := live[i]
					prefix, ports, sized := s.Prefix(), s.PortRange(), s.cfg.MaxNodes
					if err := s.Destroy(); err != nil {
						t.Fatalf("step %d: destroy: %v", step, err)
					}
					if err := s.Audit(); err != nil {
						t.Fatalf("step %d: post-destroy audit: %v", step, err)
					}
					live = append(live[:i], live[i+1:]...)
					// LIFO: an immediate same-shape re-admission gets the
					// blocks back.
					if rng.Intn(2) == 0 {
						s2, err := v.CreateSlice(SliceConfig{
							Name: fmt.Sprintf("r%d", step), MaxNodes: sized, MaxLinks: s.cfg.MaxLinks})
						if err != nil {
							t.Fatalf("step %d: re-admission after destroy: %v", step, err)
						}
						if s2.Prefix() != prefix || s2.PortRange() != ports {
							t.Fatalf("step %d: re-admission got %v/%v, want LIFO reuse of %v/%v",
								step, s2.Prefix(), s2.PortRange(), prefix, ports)
						}
						live = append(live, s2)
					}
				}
				if err := v.AuditAddressPlan(); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				for _, s := range live {
					if err := s.Audit(); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
				if step%25 == 0 {
					checkDisjoint()
				}
			}
			checkDisjoint()
			// Drain everything: the plan must account for a fully free
			// space again.
			for _, s := range live {
				if err := s.Destroy(); err != nil {
					t.Fatal(err)
				}
			}
			if err := v.AuditAddressPlan(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSpanAllocSplitsAndAligns unit-tests the allocator's block
// splitting and CIDR alignment directly.
func TestSpanAllocSplitsAndAligns(t *testing.T) {
	a := newSpanAlloc("test", 0, 1024, true)
	small, err := a.acquire(16)
	if err != nil {
		t.Fatal(err)
	}
	big, err := a.acquire(256)
	if err != nil {
		t.Fatal(err)
	}
	if big%256 != 0 {
		t.Fatalf("256-block at %d not aligned", big)
	}
	if err := a.audit(); err != nil {
		t.Fatal(err)
	}
	// The padding between the 16-block and the aligned 256-block must
	// be reusable.
	pad, err := a.acquire(16)
	if err != nil {
		t.Fatal(err)
	}
	if pad >= big && pad < big+256 || pad == small {
		t.Fatalf("padding block %d overlaps", pad)
	}
	// A small request splits a freed larger block rather than bumping
	// the frontier (fresh allocator: no padding blocks in the way).
	b := newSpanAlloc("split", 0, 1024, true)
	first, _ := b.acquire(256)
	if _, err := b.acquire(256); err != nil {
		t.Fatal(err)
	}
	b.release(first, 256)
	frontier := b.next
	s1, err := b.acquire(32)
	if err != nil {
		t.Fatal(err)
	}
	if s1 < first || s1 >= first+256 {
		t.Fatalf("32-block at %d did not split the freed 256-block at %d", s1, first)
	}
	if b.next != frontier {
		t.Fatal("split advanced the bump frontier")
	}
	if err := b.audit(); err != nil {
		t.Fatal(err)
	}
	a.release(big, 256)
	// Exhaustion is typed.
	if _, err := a.acquire(2048); !errors.Is(err, errExhausted) {
		t.Fatalf("oversized acquire: %v, want ErrExhausted", err)
	}
	// Freed blocks never coalesce: a range carved into 64 spans of 16 and
	// released whole still cannot serve a 1024-block, and the next
	// 16-block is the last one released (LIFO).
	c := newSpanAlloc("frag", 0, 1024, true)
	spans := make([]uint32, 64)
	for i := range spans {
		if spans[i], err = c.acquire(16); err != nil {
			t.Fatal(err)
		}
	}
	for _, off := range spans {
		c.release(off, 16)
	}
	if err := c.audit(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.acquire(1024); !errors.Is(err, errExhausted) {
		t.Fatalf("1024-block from 64 freed 16-blocks: %v, want errExhausted", err)
	}
	if got, err := c.acquire(16); err != nil || got != spans[63] {
		t.Fatalf("16-block after the sweep: %d, %v; want the last released, %d", got, err, spans[63])
	}
	// Non-power-of-two sizes are rejected without panicking.
	if _, err := a.acquire(24); err == nil {
		t.Fatal("non-power-of-two size accepted")
	}
	// Double-free panics (accounting corruption must be loud).
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	a.release(big, 256)
}

// TestBlockSizeFor pins the sizing table, in particular that the legacy
// unsized shape maps to exactly a /16.
func TestBlockSizeFor(t *testing.T) {
	cases := []struct {
		nodes, links int
		want         uint32
	}{
		{0, 0, 1 << 16}, // unsized: legacy /16
		{3, 3, 32},      // /27
		{6, 6, 64},      // /26
		{14, 3, 32},     // node-bound half
		{250, 8000, 1 << 16},
		{1000, 100000, 1 << 16}, // clamped at /16
	}
	for _, c := range cases {
		if got := blockSizeFor(c.nodes, c.links); got != c.want {
			t.Errorf("blockSizeFor(%d, %d) = %d, want %d", c.nodes, c.links, got, c.want)
		}
	}
	// The derived prefix is aligned and usable.
	p := newAddrPlan()
	pfx, err := p.acquirePrefix(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	if pfx.Bits() != 26 {
		t.Fatalf("prefix %v, want a /26", pfx)
	}
	if pfx.Addr() != netip.MustParseAddr("10.1.0.0") {
		t.Fatalf("first sized prefix %v, want 10.1.0.0/26", pfx)
	}
}
