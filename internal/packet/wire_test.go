package packet

import (
	"bytes"
	"net/netip"
	"testing"
	"time"
)

func TestPacketWireRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		make func() *Packet
	}{
		{"empty", func() *Packet { return Get() }},
		{"payload-no-addr", func() *Packet {
			p := Get()
			copy(p.Extend(5), "hello")
			p.Anno.Timestamp = 3 * time.Millisecond
			p.Anno.InPort = 2
			p.Anno.SliceID = 7
			p.Anno.Paint = -1
			p.Anno.Hops = 4
			return p
		}},
		{"ipv4-nexthop", func() *Packet {
			p := Get()
			copy(p.Extend(3), "abc")
			p.Anno.NextHop = netip.MustParseAddr("10.0.3.1")
			return p
		}},
		{"ipv6-nexthop", func() *Packet {
			p := Get()
			p.Anno.NextHop = netip.MustParseAddr("fd00::42")
			p.Anno.Hops = 255
			return p
		}},
		{"migration-clone", func() *Packet {
			p := Get()
			copy(p.Extend(4), "dup!")
			p.Anno.MigClone = true
			p.Anno.SliceID = 2
			return p
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.make()
			defer p.Release()
			enc := AppendWire(nil, p)
			q, err := DecodeWire(enc)
			if err != nil {
				t.Fatalf("DecodeWire: %v", err)
			}
			defer q.Release()
			if !bytes.Equal(q.Data, p.Data) {
				t.Fatalf("data mismatch: %q vs %q", q.Data, p.Data)
			}
			if q.Anno != p.Anno {
				t.Fatalf("annotations mismatch: %+v vs %+v", q.Anno, p.Anno)
			}
			// Canonical: re-encoding the decode is byte-identical.
			if enc2 := AppendWire(nil, q); !bytes.Equal(enc, enc2) {
				t.Fatal("re-encode not byte-identical")
			}
			// The decoded packet owns headroom for later encapsulation.
			if headroom(q) != defaultHeadroom {
				t.Fatalf("decoded headroom %d, want %d", headroom(q), defaultHeadroom)
			}
		})
	}
}

func TestPacketWireRejectsMalformed(t *testing.T) {
	p := Get()
	copy(p.Extend(4), "data")
	p.Anno.NextHop = netip.MustParseAddr("10.0.0.1")
	enc := AppendWire(nil, p)
	p.Release()

	for _, tc := range []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"short-prefix", enc[:3]},
		{"truncated-body", enc[:len(enc)-10]},
		{"trailing", append(append([]byte{}, enc...), 0)},
		{"huge-length", []byte{0xff, 0xff, 0xff, 0xff}},
		{"bad-addr-kind", func() []byte {
			b := append([]byte{}, enc...)
			b[len(b)-5] = 9 // addrKind byte for the IPv4 encoding
			return b
		}()},
		{"bad-flag-bits", func() []byte {
			b := append([]byte{}, enc...)
			b[len(b)-6] = 0x80 // flags byte for the IPv4 encoding
			return b
		}()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if q, err := DecodeWire(tc.b); err == nil {
				q.Release()
				t.Fatal("malformed encoding accepted")
			}
		})
	}
	// A failed decode must not leak pool packets.
	before := Stats()
	if q, err := DecodeWire(enc[:len(enc)-2]); err == nil {
		q.Release()
		t.Fatal("truncated addr accepted")
	}
	after := Stats()
	if after.Gets-before.Gets != after.Releases-before.Releases {
		t.Fatalf("failed decode leaked packets: %+v -> %+v", before, after)
	}
}

// FuzzPacketWire feeds arbitrary bytes to DecodeWire: it must never
// panic or leak pool packets, and anything it does accept must
// re-encode byte-identically (the canonical-form property the
// cross-process digest parity rests on).
func FuzzPacketWire(f *testing.F) {
	p := Get()
	copy(p.Extend(6), "seeded")
	p.Anno.NextHop = netip.MustParseAddr("10.0.0.1")
	p.Anno.SliceID = 3
	f.Add(AppendWire(nil, p))
	p.Release()
	p = Get()
	p.Anno.NextHop = netip.MustParseAddr("fd00::1")
	f.Add(AppendWire(nil, p))
	p.Release()
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0})

	f.Fuzz(func(t *testing.T, b []byte) {
		before := Stats()
		q, err := DecodeWire(b)
		if err == nil {
			enc := AppendWire(nil, q)
			if !bytes.Equal(enc, b) {
				q.Release()
				t.Fatalf("accepted non-canonical encoding: %x re-encodes as %x", b, enc)
			}
			q.Release()
		}
		after := Stats()
		if after.Gets-before.Gets != after.Releases-before.Releases {
			t.Fatalf("decode leaked pool packets: %+v -> %+v", before, after)
		}
	})
}
