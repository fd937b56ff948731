package packet

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"testing"
)

// FuzzIPv4RoundTrip parses arbitrary bytes as an IPv4 datagram and, for
// every accepted input, re-serializes the parsed header with the
// zero-allocation Put and parses it again: the two parses must agree on
// every field and on the payload. This pins the in-place fast path to
// the parser the rest of the stack trusts.
func FuzzIPv4RoundTrip(f *testing.F) {
	h := IPv4{TTL: 64, Proto: ProtoUDP,
		Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2")}
	f.Add(h.Marshal([]byte("payload")))
	f.Add(h.Marshal(nil))
	f.Add([]byte{0x45})                // truncated header
	f.Add(make([]byte, IPv4HeaderLen)) // zero header (bad version)
	f.Fuzz(func(t *testing.T, b []byte) {
		var h1 IPv4
		payload, err := h1.Parse(b)
		if err != nil {
			return
		}
		if h1.HeaderLen != IPv4HeaderLen {
			return // Put always emits IHL=5; options don't round-trip
		}
		dgram := make([]byte, IPv4HeaderLen+len(payload))
		copy(dgram[IPv4HeaderLen:], payload)
		h1.put(dgram)
		var h2 IPv4
		payload2, err := h2.Parse(dgram)
		if err != nil {
			t.Fatalf("re-parse of Put output failed: %v (input %x)", err, b)
		}
		if h2.TOS != h1.TOS || h2.ID != h1.ID || h2.Flags != h1.Flags ||
			h2.FragOff != h1.FragOff || h2.TTL != h1.TTL || h2.Proto != h1.Proto ||
			h2.Src != h1.Src || h2.Dst != h1.Dst {
			t.Fatalf("header did not round-trip:\nfirst  %+v\nsecond %+v", h1, h2)
		}
		if !bytes.Equal(payload, payload2) {
			t.Fatalf("payload did not round-trip: %x vs %x", payload, payload2)
		}
	})
}

// FuzzUDPRoundTrip does the same for UDP segments, additionally
// demanding that Put's pseudo-header checksum verifies.
func FuzzUDPRoundTrip(f *testing.F) {
	u := UDP{SrcPort: 1234, DstPort: 80}
	src, dst := netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2")
	f.Add([]byte{10, 0, 0, 1}, []byte{10, 0, 0, 2}, u.Marshal(src, dst, []byte("hi")))
	f.Add([]byte{0, 0, 0, 0}, []byte{255, 255, 255, 255}, make([]byte, UDPHeaderLen))
	f.Add([]byte{1, 2, 3, 4}, []byte{5, 6, 7, 8}, []byte{0, 1})
	f.Fuzz(func(t *testing.T, srcB, dstB, seg []byte) {
		if len(srcB) != 4 || len(dstB) != 4 {
			return
		}
		sa := netip.AddrFrom4([4]byte(srcB))
		da := netip.AddrFrom4([4]byte(dstB))
		var h1 UDP
		payload, err := h1.Parse(seg)
		if err != nil {
			return
		}
		out := make([]byte, UDPHeaderLen+len(payload))
		copy(out[UDPHeaderLen:], payload)
		h2 := UDP{SrcPort: h1.SrcPort, DstPort: h1.DstPort}
		h2.put(sa, da, out)
		var h3 UDP
		payload2, err := h3.Parse(out)
		if err != nil {
			t.Fatalf("re-parse of Put output failed: %v", err)
		}
		if h3.SrcPort != h1.SrcPort || h3.DstPort != h1.DstPort || int(h3.Length) != len(out) {
			t.Fatalf("header did not round-trip: %+v vs %+v", h1, h3)
		}
		if !bytes.Equal(payload, payload2) {
			t.Fatalf("payload did not round-trip")
		}
		if !h3.VerifyChecksum(sa, da, out) {
			t.Fatalf("Put emitted a segment whose checksum does not verify: %x", out)
		}
	})
}

// FuzzBuildUDP drives the composed allocating builder and demands the
// result parses back into exactly what was requested — the oracle the
// in-place Encap path is differential-tested against elsewhere.
func FuzzBuildUDP(f *testing.F) {
	f.Add([]byte{10, 0, 0, 1}, []byte{10, 0, 0, 2}, uint16(1), uint16(2), uint8(64), []byte("data"))
	f.Add([]byte{0, 0, 0, 0}, []byte{255, 255, 255, 255}, uint16(0), uint16(65535), uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, srcB, dstB []byte, sport, dport uint16, ttl uint8, payload []byte) {
		if len(srcB) != 4 || len(dstB) != 4 || len(payload) > 20000 {
			return
		}
		sa := netip.AddrFrom4([4]byte(srcB))
		da := netip.AddrFrom4([4]byte(dstB))
		d := BuildUDP(sa, da, sport, dport, ttl, payload)
		var ip IPv4
		seg, err := ip.Parse(d)
		if err != nil {
			t.Fatalf("BuildUDP output does not parse as IPv4: %v", err)
		}
		if ip.Src != sa || ip.Dst != da || ip.TTL != ttl || ip.Proto != ProtoUDP {
			t.Fatalf("IP header mismatch: %+v", ip)
		}
		var u UDP
		got, err := u.Parse(seg)
		if err != nil {
			t.Fatalf("BuildUDP output does not parse as UDP: %v", err)
		}
		if u.SrcPort != sport || u.DstPort != dport || !bytes.Equal(got, payload) {
			t.Fatalf("UDP round-trip mismatch: %+v payload %x", u, got)
		}
		if !u.VerifyChecksum(sa, da, seg) {
			t.Fatalf("BuildUDP checksum does not verify")
		}
	})
}

// FuzzChecksum is differential: Checksum against the two-byte reference
// and transportChecksum against the reference over a serialized
// pseudo-header, both on b from offset off on, so the kernel sees every
// length, alignment and content the fuzzer finds.
func FuzzChecksum(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint32(0), uint32(0), uint8(ProtoUDP))
	f.Add([]byte{0xab}, uint8(0), uint32(0x0a000001), uint32(0x0a000002), uint8(ProtoTCP))
	f.Add(bytes.Repeat([]byte{0xff}, 1500), uint8(1), ^uint32(0), ^uint32(0), uint8(0xff))
	f.Add(make([]byte, 129), uint8(3), uint32(0), uint32(0), uint8(0))
	f.Fuzz(func(t *testing.T, b []byte, off uint8, src, dst uint32, proto uint8) {
		b = b[min(int(off), len(b)):]
		if got, want := Checksum(b), refChecksum(b); got != want {
			t.Fatalf("len %d: Checksum=%#04x ref=%#04x data=%x", len(b), got, want, b)
		}
		var sa, da [4]byte
		binary.BigEndian.PutUint32(sa[:], src)
		binary.BigEndian.PutUint32(da[:], dst)
		s, d := netip.AddrFrom4(sa), netip.AddrFrom4(da)
		if got, want := transportChecksum(s, d, proto, b), refTransportChecksum(s, d, proto, b); got != want {
			t.Fatalf("len %d %v>%v proto %d: transportChecksum=%#04x ref=%#04x", len(b), s, d, proto, got, want)
		}
	})
}
