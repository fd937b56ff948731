package ospf

import (
	"bytes"
	"net/netip"
	"reflect"
	"testing"
)

// rawPacket puts a valid header in front of an arbitrary body.
func rawPacket(typ uint8, routerID uint32, body []byte) []byte {
	return seal(append(begin(nil), body...), 0, typ, routerID)
}

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
	f.Add(appendLSAck(nil, 0x0a010001, []lsaKey{{Origin: 0x0a010002, Seq: 3}}))
	f.Add(rawPacket(typeLSU, 1, []byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff}))
	f.Add(rawPacket(typeLSU, 1, []byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 10, 0, 0, 0, 33, 0, 0, 0, 0, 0, 0, 1}))

	f.Fuzz(func(t *testing.T, data []byte) {
		h, body, err := parseHeader(data)
		if err != nil {
			return
		}
		var msg any
		var again []byte
		switch h.Type {
		case typeHello:
			m, err := new(decoder).hello(body)
			if err != nil {
				return
			}
			msg, again = m, MarshalHello(h.RouterID, m)
		case typeLSU:
			m, err := new(decoder).lsu(body)
			if err != nil {
				return
			}
			msg, again = m, MarshalLSU(h.RouterID, m)
		case typeLSAck:
			m, err := new(decoder).lsack(body)
			if err != nil {
				return
			}
			msg, again = m, appendLSAck(nil, h.RouterID, m.Keys)
		default:
			return
		}
		h2, body2, err := parseHeader(again)
		if err != nil {
			t.Fatalf("re-marshaled %T does not parse: %v", msg, err)
		}
		if h2.Type != h.Type || h2.RouterID != h.RouterID {
			t.Fatalf("header changed in the round trip: %+v -> %+v", h, h2)
		}
		var msg2 any
		switch h.Type {
		case typeHello:
			msg2, err = new(decoder).hello(body2)
		case typeLSU:
			msg2, err = new(decoder).lsu(body2)
		case typeLSAck:
			msg2, err = new(decoder).lsack(body2)
		}
		if err != nil || !reflect.DeepEqual(msg, msg2) {
			t.Fatalf("round trip changed the message (err %v):\n got %+v\nwant %+v", err, msg2, msg)
		}
		// The path Receive takes: decode into a router's reused storage,
		// copy out what is installed. The storage is dirtied first and
		// overwritten after, so the decode must neither read what an
		// earlier message left there nor keep the installed copy tied to
		// what a later one puts there.
		var d decoder
		d.lsu(dirt)
		d.hello(helloDirt)
		d.lsack(dirt)
		var viaStorage []byte
		var installed LSU
		switch h.Type {
		case typeHello:
			m, _ := d.hello(body)
			viaStorage = appendHello(nil, h.RouterID, m)
		case typeLSU:
			m, _ := d.lsu(body)
			viaStorage = appendLSU(nil, h.RouterID, m.LSAs)
			for _, l := range m.LSAs {
				installed.LSAs = append(installed.LSAs, l.clone())
			}
		case typeLSAck:
			m, _ := d.lsack(body)
			viaStorage = appendLSAck(nil, h.RouterID, m.Keys)
		}
		if !bytes.Equal(viaStorage, again) {
			t.Fatalf("decoding into used storage gave a different message:\n got %x\nwant %x", viaStorage, again)
		}
		d.lsu(dirt)
		if h.Type == typeLSU && !bytes.Equal(MarshalLSU(h.RouterID, installed), again) {
			t.Fatalf("an installed LSA still aliases the decoder: %+v", installed)
		}
	})
}

// dirt is an LSU body (which also parses as an ack of three keys), and
// helloDirt a hello body, that fill a decoder with values no seed uses.
var helloDirt = append([]byte{0, 5, 0, 10, 0, 40}, bytes.Repeat([]byte{0xde}, 4*40)...)

var dirt = func() []byte {
	l := LSA{Origin: 0xdededede, Seq: 0xdededede}
	for i := 0; i < 40; i++ {
		l.Links = append(l.Links, LinkDesc{NeighborID: 0xdededede, Cost: 0xdededede})
		l.Stubs = append(l.Stubs, StubDesc{Prefix: netip.MustParsePrefix("222.222.222.222/30"), Cost: 0xdededede})
	}
	return MarshalLSU(1, LSU{LSAs: []LSA{l, l, l}})[headerLen:]
}()
