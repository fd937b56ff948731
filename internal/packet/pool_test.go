package packet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

// refChecksum is the textbook two-bytes-at-a-time RFC 1071 implementation,
// kept as the oracle for the production Checksum.
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

// refTransportChecksum is the oracle for transportChecksum: it
// serializes the pseudo-header in front of the segment and runs the
// two-byte reference over the concatenation.
func refTransportChecksum(src, dst netip.Addr, proto uint8, seg []byte) uint16 {
	s, d := src.As4(), dst.As4()
	buf := make([]byte, 0, 12+len(seg))
	buf = append(buf, s[:]...)
	buf = append(buf, d[:]...)
	buf = append(buf, 0, proto, byte(len(seg)>>8), byte(len(seg)))
	buf = append(buf, seg...)
	return refChecksum(buf)
}

// TestChecksumMatchesTwoByteReference runs every length through 1600
// bytes, so every count of 64-byte blocks an MTU-sized datagram has and
// every tail length behind them, at even and odd starting offsets, with
// random, all-ones (all-ones maximizes end-around carries) and all-zero
// contents (the one input whose sum is the other zero).
func TestChecksumMatchesTwoByteReference(t *testing.T) {
	const maxLen, maxOff = 1600, 7
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, maxOff+maxLen)
	check := func(what string, n, off int) {
		t.Helper()
		b := buf[off : off+n]
		if got, want := Checksum(b), refChecksum(b); got != want {
			t.Fatalf("len %d offset %d %s: Checksum=%#04x ref=%#04x data=%x", n, off, what, got, want, b)
		}
	}
	for n := 0; n <= maxLen; n++ {
		for _, off := range []int{0, 1, 2, 3, maxOff} {
			for trial := 0; trial < 3; trial++ {
				rng.Read(buf)
				check("random", n, off)
			}
		}
		for _, fill := range []byte{0xff, 0} {
			for i := range buf {
				buf[i] = fill
			}
			what := fmt.Sprintf("all-%#02x", fill)
			check(what, n, 0)
			check(what, n, 1)
		}
	}
	f := func(b []byte) bool { return Checksum(b) == refChecksum(b) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestChecksumCarryEdges sets each 64-bit word of one 64-byte block to
// 0, 1, 2^64-2 or 2^64-1, in all 65 536 combinations. Random contents
// almost never make the kernel's two carry chains meet with a carry left
// over (one chain ending at 1, the other at 2^64-2 with its carry set
// does); these words reach every such edge.
func TestChecksumCarryEdges(t *testing.T) {
	words := [4]uint64{0, 1, 1<<64 - 2, 1<<64 - 1}
	b := make([]byte, 64)
	for combo := 0; combo < 1<<16; combo++ {
		for i := 0; i < 8; i++ {
			binary.LittleEndian.PutUint64(b[8*i:], words[combo>>(2*i)&3])
		}
		if got, want := Checksum(b), refChecksum(b); got != want {
			t.Fatalf("combo %#04x: Checksum=%#04x ref=%#04x data=%x", combo, got, want, b)
		}
	}
}

func TestTransportChecksumMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(sb, db [4]byte, proto uint8, n uint16) bool {
		src := netip.AddrFrom4(sb)
		dst := netip.AddrFrom4(db)
		seg := make([]byte, int(n)%2048)
		rng.Read(seg)
		return transportChecksum(src, dst, proto, seg) == refTransportChecksum(src, dst, proto, seg)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkChecksum20 sums an IPv4 header, the size IPv4.Parse verifies
// at every hop; BenchmarkChecksum1500 a full Ethernet-MTU datagram, the
// size EncapUDP sums at every overlay hop.
func BenchmarkChecksum20(b *testing.B)   { benchmarkChecksum(b, 20) }
func BenchmarkChecksum1500(b *testing.B) { benchmarkChecksum(b, 1500) }

func benchmarkChecksum(b *testing.B, n int) {
	buf := make([]byte, n)
	rand.New(rand.NewSource(3)).Read(buf)
	b.SetBytes(int64(n))
	var sum uint16
	for i := 0; i < b.N; i++ {
		sum += Checksum(buf)
	}
	checksumSink = sum
}

var checksumSink uint16

func TestGetReleaseLifecycle(t *testing.T) {
	p := Get()
	if p.Len() != 0 {
		t.Fatalf("fresh pooled packet has %d bytes", p.Len())
	}
	if p.off != defaultHeadroom {
		t.Fatalf("fresh headroom = %d, want %d", p.off, defaultHeadroom)
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

func TestPooledPushPullUsesHeadroom(t *testing.T) {
	p := Get()
	payload := []byte{0xaa, 0xbb, 0xcc, 0xdd}
	copy(p.Extend(len(payload)), payload)
	hdr := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	before := p.off
	copy(p.Extend(len(hdr)), hdr)
	if p.off != before-len(hdr) {
		t.Fatalf("push did not consume headroom: %d -> %d", before, p.off)
	}
	if !bytes.Equal(p.Data[:8], hdr) || !bytes.Equal(p.Data[8:], payload) {
		t.Fatalf("push result %x", p.Data)
	}
	p.Pull(len(hdr))
	if p.off != before {
		t.Fatalf("pull did not restore headroom: want %d got %d", before, p.off)
	}
	if !bytes.Equal(p.Data, payload) {
		t.Fatalf("pull result %x", p.Data)
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
	if p.off != defaultHeadroom {
		t.Fatalf("grown headroom = %d", p.off)
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

// TestControlLedgerIsItsOwn: one pool, two ledgers. A GetControl packet
// is counted and credited on the control ledger only, so the data
// ledger's InFlight — what the simulation settles on — never sees it,
// and a Clone of it is a data packet like any other.
func TestControlLedgerIsItsOwn(t *testing.T) {
	base := Stats()
	msg := []byte("hello")
	c := GetControl(msg)
	if !bytes.Equal(c.Data, msg) || c.off != defaultHeadroom {
		t.Fatalf("control packet holds %q at offset %d, want %q behind %d bytes", c.Data, c.off, msg, defaultHeadroom)
	}
	q := c.Clone()
	d := Stats().Sub(base)
	if d.ControlInFlight() != 1 || d.InFlight() != 1 || d.ControlGets != 1 || d.Gets != 1 {
		t.Fatalf("a control packet and its clone: %+v", d)
	}
	c.Release()
	if d := Stats().Sub(base); d.ControlInFlight() != 0 || d.InFlight() != 1 {
		t.Fatalf("control packet released: %+v", d)
	}
	q.Release()
	// The recycled packet forgets which ledger it was last drawn on.
	p := Get()
	p.Release()
	if d := Stats().Sub(base); d.ControlInFlight() != 0 || d.InFlight() != 0 || d.ControlReleases != 1 || d.Releases != 2 {
		t.Fatalf("after release: %+v", d)
	}
	// A message larger than a pool buffer still lands behind the headroom.
	big := bytes.Repeat([]byte{7}, poolBufSize)
	c = GetControl(big)
	if !bytes.Equal(c.Data, big) || c.off != defaultHeadroom {
		t.Fatalf("%d-byte control packet: %d bytes at offset %d", len(big), len(c.Data), c.off)
	}
	c.Release()
}

// TestAppend: Append adds after what the packet holds and keeps the
// headroom.
func TestAppend(t *testing.T) {
	p := Get()
	p.Append([]byte("ab"))
	p.Append([]byte("cd"))
	if string(p.Data) != "abcd" || p.off != defaultHeadroom {
		t.Fatalf("pooled: %q at offset %d", p.Data, p.off)
	}
	p.Append(make([]byte, poolBufSize)) // past the pool buffer: reallocated
	if len(p.Data) != 4+poolBufSize || string(p.Data[:4]) != "abcd" || p.off != defaultHeadroom {
		t.Fatalf("grown: %d bytes starting %q at offset %d", len(p.Data), p.Data[:4], p.off)
	}
	p.Release()
}
