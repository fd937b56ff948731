package ospf

import (
	"net/netip"
	"reflect"
	"testing"
)

// FuzzOSPFDecode throws arbitrary bytes at the OSPF wire decoders the
// way Router.Receive does: common header first, then the body parser
// its type selects. No input may panic (every count and length comes
// from a neighbour), and a message that decodes must re-marshal to a
// packet that decodes to the same message, so what a router floods on
// is what it accepted.
func FuzzOSPFDecode(f *testing.F) {
	f.Add(MarshalHello(0x0a010001, Hello{HelloInterval: 5, DeadInterval: 10, Neighbors: []uint32{0x0a010002, 0x0a010003}}))
	f.Add(MarshalLSU(0x0a010001, LSU{LSAs: []LSA{{
		Origin: 0x0a010001, Seq: 7,
		Links: []LinkDesc{{NeighborID: 0x0a010002, Cost: 10}},
		Stubs: []StubDesc{{Prefix: netip.MustParsePrefix("10.1.0.1/32")}, {Prefix: netip.MustParsePrefix("10.1.128.0/30"), Cost: 10}},
	}}}))
	f.Add(MarshalLSAck(0x0a010001, LSAck{Keys: []Key{{Origin: 0x0a010002, Seq: 3}}}))
	f.Add(marshalHeader(TypeLSU, 1, []byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff}))
	f.Add(marshalHeader(TypeLSU, 1, []byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 10, 0, 0, 0, 33, 0, 0, 0, 0, 0, 0, 1}))

	f.Fuzz(func(t *testing.T, data []byte) {
		h, body, err := ParseHeader(data)
		if err != nil {
			return
		}
		var msg any
		var again []byte
		switch h.Type {
		case TypeHello:
			m, err := ParseHello(body)
			if err != nil {
				return
			}
			msg, again = m, MarshalHello(h.RouterID, m)
		case TypeLSU:
			m, err := ParseLSU(body)
			if err != nil {
				return
			}
			msg, again = m, MarshalLSU(h.RouterID, m)
		case TypeLSAck:
			m, err := ParseLSAck(body)
			if err != nil {
				return
			}
			msg, again = m, MarshalLSAck(h.RouterID, m)
		default:
			return
		}
		h2, body2, err := ParseHeader(again)
		if err != nil {
			t.Fatalf("re-marshaled %T does not parse: %v", msg, err)
		}
		if h2.Type != h.Type || h2.RouterID != h.RouterID {
			t.Fatalf("header changed in the round trip: %+v -> %+v", h, h2)
		}
		var msg2 any
		switch h.Type {
		case TypeHello:
			msg2, err = ParseHello(body2)
		case TypeLSU:
			msg2, err = ParseLSU(body2)
		case TypeLSAck:
			msg2, err = ParseLSAck(body2)
		}
		if err != nil || !reflect.DeepEqual(msg, msg2) {
			t.Fatalf("round trip changed the message (err %v):\n got %+v\nwant %+v", err, msg2, msg)
		}
	})
}
