package packet

import (
	"bytes"
	"net/netip"
	"testing"
	"testing/quick"
)

// The DF and MF bits of IPv4.Flags.
const flagDF, flagMF = 0x2, 0x1

var (
	srcA = netip.MustParseAddr("10.1.1.2")
	dstA = netip.MustParseAddr("10.1.2.3")
)

func TestChecksumRFCExample(t *testing.T) {
	// Example from RFC 1071 §3: words 0x0001, 0xf203, 0xf4f5, 0xf6f7.
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(b); got != ^uint16(0xddf2) {
		t.Fatalf("checksum = %#x, want %#x", got, ^uint16(0xddf2))
	}
}

func TestChecksumOddLength(t *testing.T) {
	b := []byte{0x12, 0x34, 0x56}
	if got, want := Checksum(b), ^uint16(0x1234+0x5600); got != want {
		t.Fatalf("odd checksum = %#x want %#x", got, want)
	}
}

func TestChecksumSelfVerifies(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) < 2 {
			return true
		}
		// Zero a checksum field, compute, insert, verify sums to zero.
		data[0], data[1] = 0, 0
		ck := Checksum(data)
		data[0], data[1] = byte(ck>>8), byte(ck)
		if len(data)%2 == 1 {
			// Odd-length buffers pad with zero; still verifies.
			return Checksum(data) == 0
		}
		return Checksum(data) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIPv4RoundTrip(t *testing.T) {
	h := IPv4{TOS: 0x10, ID: 1234, Flags: flagDF, TTL: 61, Proto: ProtoUDP, Src: srcA, Dst: dstA}
	payload := []byte("hello vini")
	dgram := h.Marshal(payload)
	var g IPv4
	got, err := g.Parse(dgram)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload = %q", got)
	}
	if g.Src != h.Src || g.Dst != h.Dst || g.TTL != 61 || g.Proto != ProtoUDP ||
		g.ID != 1234 || g.TOS != 0x10 || g.Flags != flagDF {
		t.Fatalf("header mismatch: %+v", g)
	}
	if int(g.TotalLen) != len(dgram) {
		t.Fatalf("TotalLen = %d, want %d", g.TotalLen, len(dgram))
	}
}

func TestIPv4RejectsCorruption(t *testing.T) {
	h := IPv4{TTL: 64, Proto: ProtoUDP, Src: srcA, Dst: dstA}
	dgram := h.Marshal([]byte("x"))
	for i := 0; i < IPv4HeaderLen; i++ {
		bad := append([]byte(nil), dgram...)
		bad[i] ^= 0xff
		var g IPv4
		if _, err := g.Parse(bad); err == nil && i != 10 && i != 11 {
			// Flipping any header byte must break the checksum (bytes
			// 10-11 are the checksum itself; flipping both halves of it
			// still fails, but flipping one may cancel only if crafted).
			t.Fatalf("corruption at byte %d accepted", i)
		}
	}
}

func TestIPv4TruncatedAndBadVersion(t *testing.T) {
	var g IPv4
	if _, err := g.Parse(make([]byte, 10)); err == nil {
		t.Fatal("short header accepted")
	}
	h := IPv4{TTL: 1, Proto: 1, Src: srcA, Dst: dstA}
	d := h.Marshal(nil)
	d[0] = 6 << 4
	if _, err := g.Parse(d); err == nil {
		t.Fatal("version 6 accepted")
	}
}

func TestSetTTLIncrementalChecksum(t *testing.T) {
	for ttl := uint8(1); ttl < 255; ttl += 13 {
		h := IPv4{TTL: 64, Proto: ProtoUDP, Src: srcA, Dst: dstA, ID: uint16(ttl)}
		dgram := h.Marshal([]byte("payload"))
		SetTTL(dgram, ttl)
		var g IPv4
		if _, err := g.Parse(dgram); err != nil {
			t.Fatalf("ttl=%d: %v", ttl, err)
		}
		if g.TTL != ttl {
			t.Fatalf("ttl = %d, want %d", g.TTL, ttl)
		}
	}
}

func TestSetTTLMatchesFullRecompute(t *testing.T) {
	f := func(id uint16, ttl, newTTL uint8) bool {
		if ttl == 0 {
			ttl = 1
		}
		h := IPv4{TTL: ttl, Proto: ProtoTCP, ID: id, Src: srcA, Dst: dstA}
		d1 := h.Marshal(nil)
		SetTTL(d1, newTTL)
		h2 := h
		h2.TTL = newTTL
		d2 := h2.Marshal(nil)
		return bytes.Equal(d1, d2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUDPRoundTrip(t *testing.T) {
	u := UDP{SrcPort: 5000, DstPort: 33000}
	seg := u.Marshal(srcA, dstA, []byte("data"))
	var g UDP
	payload, err := g.Parse(seg)
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != "data" || g.SrcPort != 5000 || g.DstPort != 33000 {
		t.Fatalf("parse: %+v %q", g, payload)
	}
	if !g.VerifyChecksum(srcA, dstA, seg) {
		t.Fatal("checksum did not verify")
	}
	// Note: swapping src/dst keeps the pseudo-header sum (commutative),
	// so use a genuinely different address to detect the mismatch.
	if g.VerifyChecksum(netip.MustParseAddr("192.0.2.9"), dstA, seg) {
		t.Fatal("checksum verified with wrong pseudo-header")
	}
}

func TestTCPRoundTrip(t *testing.T) {
	h := TCP{SrcPort: 80, DstPort: 1024, Seq: 0xdeadbeef, Ack: 0x01020304,
		Flags: TCPSyn | TCPAck, Window: 16384}
	seg := h.Marshal(srcA, dstA, []byte("abc"))
	var g TCP
	payload, err := g.Parse(seg)
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != "abc" || g.Seq != h.Seq || g.Ack != h.Ack ||
		g.Flags != h.Flags || g.Window != 16384 {
		t.Fatalf("parse: %+v", g)
	}
	if transportChecksum(srcA, dstA, ProtoTCP, seg) != 0 {
		t.Fatal("tcp checksum does not verify")
	}
}

func TestICMPRoundTrip(t *testing.T) {
	ic := ICMP{Type: ICMPEcho, ID: 77, Seq: 3}
	msg := ic.Marshal(bytes.Repeat([]byte{0xaa}, 56))
	var g ICMP
	payload, err := g.Parse(msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(payload) != 56 || g.ID != 77 || g.Seq != 3 || g.Type != ICMPEcho {
		t.Fatalf("parse: %+v len=%d", g, len(payload))
	}
	msg[9] ^= 1
	if _, err := g.Parse(msg); err == nil {
		t.Fatal("corrupted ICMP accepted")
	}
}

func TestFlowOfUDPAndReverse(t *testing.T) {
	d := BuildUDP(srcA, dstA, 1111, 2222, 64, []byte("x"))
	f, ok := FlowOf(d)
	if !ok {
		t.Fatal("FlowOf failed")
	}
	want := Flow{Proto: ProtoUDP, Src: srcA, Dst: dstA, SrcPort: 1111, DstPort: 2222}
	if f != want {
		t.Fatalf("flow = %v", f)
	}
	back, ok := FlowOf(BuildUDP(dstA, srcA, 2222, 1111, 64, []byte("y")))
	if want := (Flow{Proto: ProtoUDP, Src: dstA, Dst: srcA, SrcPort: 2222, DstPort: 1111}); !ok || back != want {
		t.Fatalf("reverse flow = %v", back)
	}
}

func TestFlowOfICMPUsesEchoID(t *testing.T) {
	d := BuildICMPEcho(srcA, dstA, false, 4242, 1, 64, nil)
	f, ok := FlowOf(d)
	if !ok || f.SrcPort != 4242 || f.Proto != ProtoICMP {
		t.Fatalf("flow = %v ok=%v", f, ok)
	}
}

func TestFlowOfTCP(t *testing.T) {
	d := BuildTCP(srcA, dstA, TCP{SrcPort: 5001, DstPort: 80, Flags: TCPSyn}, 64, nil)
	f, ok := FlowOf(d)
	if !ok || f.SrcPort != 5001 || f.DstPort != 80 || f.Proto != ProtoTCP {
		t.Fatalf("flow = %v ok=%v", f, ok)
	}
}

func TestBuildICMPErrorQuotesOffender(t *testing.T) {
	offending := BuildUDP(srcA, dstA, 9999, 53, 1, bytes.Repeat([]byte{1}, 100))
	router := netip.MustParseAddr("10.0.0.1")
	e := BuildICMPError(router, ICMPTimeExceeded, 0, offending)
	var ip IPv4
	payload, err := ip.Parse(e)
	if err != nil {
		t.Fatal(err)
	}
	if ip.Src != router || ip.Dst != srcA || ip.Proto != ProtoICMP {
		t.Fatalf("ICMP error header: %+v", ip)
	}
	var ic ICMP
	quote, err := ic.Parse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if ic.Type != ICMPTimeExceeded {
		t.Fatalf("type = %d", ic.Type)
	}
	if len(quote) != IPv4HeaderLen+8 {
		t.Fatalf("quote length = %d, want %d", len(quote), IPv4HeaderLen+8)
	}
	// The quote must be the beginning of the offending datagram.
	if !bytes.Equal(quote, offending[:len(quote)]) {
		t.Fatal("quote does not match offending packet")
	}
}

func TestPacketPushPullClone(t *testing.T) {
	p := Get()
	p.Append([]byte{1, 2, 3, 4})
	copy(p.Extend(2), []byte{9, 9})
	if !bytes.Equal(p.Data, []byte{9, 9, 1, 2, 3, 4}) {
		t.Fatalf("push: %v", p.Data)
	}
	q := p.Clone()
	p.Pull(2)
	if !bytes.Equal(p.Data, []byte{1, 2, 3, 4}) {
		t.Fatalf("pull: %v", p.Data)
	}
	if !bytes.Equal(q.Data, []byte{9, 9, 1, 2, 3, 4}) {
		t.Fatal("clone shares storage with original")
	}
	q.Data[0] = 7
	if p.Data[0] == 7 {
		t.Fatal("clone aliases original")
	}
	p.Release()
	q.Release()
}

func TestUDPChecksumNeverZeroOnWire(t *testing.T) {
	// RFC 768: transmitted checksum 0 means "none"; Marshal must emit
	// 0xffff when the computed sum is zero. Search for a payload whose
	// checksum would be zero by brute force over the length field nonce.
	f := func(sport, dport uint16, n uint8) bool {
		u := UDP{SrcPort: sport, DstPort: dport}
		seg := u.Marshal(srcA, dstA, make([]byte, int(n)))
		var g UDP
		if _, err := g.Parse(seg); err != nil {
			return false
		}
		return g.Checksum != 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFlowOfRejectsFragmentsAndGarbage(t *testing.T) {
	if _, ok := FlowOf([]byte{1, 2, 3}); ok {
		t.Fatal("garbage accepted")
	}
	h := IPv4{TTL: 64, Proto: ProtoUDP, Src: srcA, Dst: dstA, FragOff: 100, Flags: flagMF}
	d := h.Marshal(make([]byte, 16))
	if _, ok := FlowOf(d); ok {
		t.Fatal("fragment accepted")
	}
}
