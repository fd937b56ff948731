package packet

import (
	"bytes"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

// refChecksum is the textbook two-bytes-at-a-time RFC 1071 implementation,
// kept as the oracle for the 8-byte-folding production Checksum.
func refChecksum(b []byte) uint16 {
	var sum uint32
	for len(b) >= 2 {
		sum += uint32(b[0])<<8 | uint32(b[1])
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint32(b[0]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

func TestChecksumMatchesTwoByteReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Every length through several folding boundaries, random and
	// all-ones contents (all-ones maximizes end-around carries).
	for n := 0; n <= 96; n++ {
		b := make([]byte, n)
		for trial := 0; trial < 20; trial++ {
			rng.Read(b)
			if got, want := Checksum(b), refChecksum(b); got != want {
				t.Fatalf("len %d: Checksum=%#04x ref=%#04x data=%x", n, got, want, b)
			}
		}
		for i := range b {
			b[i] = 0xff
		}
		if got, want := Checksum(b), refChecksum(b); got != want {
			t.Fatalf("len %d all-ones: Checksum=%#04x ref=%#04x", n, got, want)
		}
	}
	f := func(b []byte) bool { return Checksum(b) == refChecksum(b) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTransportChecksumMatchesReference(t *testing.T) {
	// Oracle: serialize the pseudo-header in front of the segment and run
	// the two-byte reference over the concatenation.
	ref := func(src, dst netip.Addr, proto uint8, seg []byte) uint16 {
		s, d := src.As4(), dst.As4()
		buf := make([]byte, 0, 12+len(seg))
		buf = append(buf, s[:]...)
		buf = append(buf, d[:]...)
		buf = append(buf, 0, proto, byte(len(seg)>>8), byte(len(seg)))
		buf = append(buf, seg...)
		return refChecksum(buf)
	}
	rng := rand.New(rand.NewSource(2))
	f := func(sb, db [4]byte, proto uint8, n uint16) bool {
		src := netip.AddrFrom4(sb)
		dst := netip.AddrFrom4(db)
		seg := make([]byte, int(n)%2048)
		rng.Read(seg)
		return transportChecksum(src, dst, proto, seg) == ref(src, dst, proto, seg)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// headroom is how many bytes Extend can prepend to p without copying.
func headroom(p *Packet) int {
	if !p.own {
		return 0
	}
	return p.off
}

func TestGetReleaseLifecycle(t *testing.T) {
	p := Get()
	if p.Len() != 0 {
		t.Fatalf("fresh pooled packet has %d bytes", p.Len())
	}
	if headroom(p) != defaultHeadroom {
		t.Fatalf("fresh headroom = %d, want %d", headroom(p), defaultHeadroom)
	}
	copy(p.Extend(4), []byte{1, 2, 3, 4})
	if p.Released() {
		t.Fatal("live packet reports released")
	}
	p.Release()
	if !p.Released() {
		t.Fatal("released packet reports live")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	p.Release()
}

func TestReleaseWrappedPacketIsNoOp(t *testing.T) {
	p := New([]byte{1, 2, 3})
	p.Release()
	p.Release() // never panics: drop paths release unconditionally
	if p.Released() {
		t.Fatal("non-pooled packet claims to be pooled")
	}
}

func TestPooledPushPullUsesHeadroom(t *testing.T) {
	p := Get()
	payload := []byte{0xaa, 0xbb, 0xcc, 0xdd}
	copy(p.Extend(len(payload)), payload)
	hdr := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	before := headroom(p)
	copy(p.Extend(len(hdr)), hdr)
	if headroom(p) != before-len(hdr) {
		t.Fatalf("push did not consume headroom: %d -> %d", before, headroom(p))
	}
	if !bytes.Equal(p.Data[:8], hdr) || !bytes.Equal(p.Data[8:], payload) {
		t.Fatalf("push result %x", p.Data)
	}
	p.Pull(len(hdr))
	if headroom(p) != before {
		t.Fatalf("pull did not restore headroom: want %d got %d", before, headroom(p))
	}
	if !bytes.Equal(p.Data, payload) {
		t.Fatalf("pull result %x", p.Data)
	}
	p.Release()
}

func TestSetDataRehomesOnPush(t *testing.T) {
	foreign := []byte{9, 8, 7}
	p := Get()
	p.SetData(foreign)
	if headroom(p) != 0 {
		t.Fatal("foreign buffer should report no headroom")
	}
	copy(p.Extend(2), []byte{1, 2})
	if !bytes.Equal(p.Data, []byte{1, 2, 9, 8, 7}) {
		t.Fatalf("rehomed data %x", p.Data)
	}
	if headroom(p) != defaultHeadroom {
		t.Fatalf("rehomed headroom = %d", headroom(p))
	}
	if &p.Data[2] == &foreign[0] {
		t.Fatal("rehome still aliases the foreign buffer")
	}
	p.Release()
}

func TestCloneOfPooledIsIndependent(t *testing.T) {
	p := Get()
	copy(p.Extend(3), []byte{1, 2, 3})
	q := p.Clone()
	p.Release()
	if !bytes.Equal(q.Data, []byte{1, 2, 3}) {
		t.Fatalf("clone data %x after original released", q.Data)
	}
	q.Data[0] = 42
	q.Release()
}

func TestExtendLargerThanPoolBufferGrows(t *testing.T) {
	p := Get()
	n := poolBufSize + 100
	b := p.Extend(n)
	if len(b) != n {
		t.Fatalf("extend returned %d bytes", len(b))
	}
	b[0], b[n-1] = 1, 2
	// Headroom is re-established so encapsulation still works in place.
	if headroom(p) != defaultHeadroom {
		t.Fatalf("grown headroom = %d", headroom(p))
	}
	p.Release()
}

// TestPoisonOnReleaseScribblesBorrowedBytes shows the test hook has
// teeth: with it on, a slice kept past Release reads 0xDE, with it off
// the bytes stay whatever they were.
func TestPoisonOnReleaseScribblesBorrowedBytes(t *testing.T) {
	for _, on := range []bool{true, false} {
		was := PoisonOnReleaseForTest(on)
		p := Get()
		copy(p.Extend(4), []byte{1, 2, 3, 4})
		kept := p.Data
		p.Release()
		PoisonOnReleaseForTest(was)
		if poisoned := bytes.Equal(kept, []byte{0xDE, 0xDE, 0xDE, 0xDE}); poisoned != on {
			t.Fatalf("poison=%v: retained slice reads %x", on, kept)
		}
	}
}

// TestPoolLedgerHasNoEscapeHatch pins conservation as Gets == Releases:
// the Escapes field survives for the benchmark's per-layer report and
// stays zero.
func TestPoolLedgerHasNoEscapeHatch(t *testing.T) {
	base := Stats()
	p := Get()
	q := p.Clone()
	if d := Stats().Sub(base); d.InFlight() != 2 || d.Escapes != 0 {
		t.Fatalf("two live packets: %+v", d)
	}
	p.Release()
	q.Release()
	if d := Stats().Sub(base); d.InFlight() != 0 || d.Gets != d.Releases || d.Escapes != 0 {
		t.Fatalf("after release: %+v", d)
	}
}
