// Package ospf implements the OSPF subset XORP provides to IIAS: hello
// protocol with configurable hello/dead intervals, point-to-point
// adjacencies, router-LSA origination, reliable flooding with
// acknowledgements and retransmission, and Dijkstra SPF feeding routes to
// the FEA. The Section 5.2 experiment — hello interval 5 s, router-dead
// interval 10 s, fail the Denver–Kansas City link, watch convergence — is
// driven entirely through this package.
package ospf

import (
	"encoding/binary"
	"fmt"
	"net/netip"

	"vini/internal/packet"
)

// Message types.
const (
	typeHello = 1
	typeLSU   = 4
	typeLSAck = 5
)

const headerLen = 16

// header is the common OSPF packet header (version 2, area 0 only).
type header struct {
	Type     uint8
	RouterID uint32
	Length   uint16
}

// LinkDesc is one point-to-point link in a router LSA.
type LinkDesc struct {
	NeighborID uint32
	Cost       uint32
}

// StubDesc is one stub prefix (a locally attached network) in a router
// LSA: the tap0 host route and the virtual interface subnets.
type StubDesc struct {
	Prefix netip.Prefix
	Cost   uint32
}

// LSA is a router LSA: the origin's view of its own adjacencies.
type LSA struct {
	Origin uint32
	Seq    uint32
	Links  []LinkDesc
	Stubs  []StubDesc
}

// lsaKey identifies the LSA instance for flooding/acks.
type lsaKey struct {
	Origin uint32
	Seq    uint32
}

// lsaKey returns the LSA's identity.
func (l LSA) key() lsaKey { return lsaKey{Origin: l.Origin, Seq: l.Seq} }

// Hello is the neighbor-discovery message.
type Hello struct {
	HelloInterval uint16 // seconds
	DeadInterval  uint16 // seconds
	Neighbors     []uint32
}

// LSU carries LSAs being flooded.
type LSU struct {
	LSAs []LSA
}

// lsAck acknowledges received LSAs.
type lsAck struct {
	Keys []lsaKey
}

// RouterIDFromAddr derives the 32-bit router ID from an IPv4 address
// (the node's tap0 address in IIAS).
func RouterIDFromAddr(a netip.Addr) uint32 {
	b := a.As4()
	return binary.BigEndian.Uint32(b[:])
}

// begin appends a blank common header to dst; seal fills it in once the
// body stands behind it. Every encoder is begin, body, seal on one
// buffer, so a message is encoded where it will be sent from.
func begin(dst []byte) []byte { return append(dst, make([]byte, headerLen)...) }

// seal completes the packet that starts at dst[start:].
func seal(dst []byte, start int, typ uint8, routerID uint32) []byte {
	pkt := dst[start:]
	pkt[0] = 2 // version
	pkt[1] = typ
	binary.BigEndian.PutUint16(pkt[2:4], uint16(len(pkt)))
	binary.BigEndian.PutUint32(pkt[4:8], routerID)
	// bytes 8-11: area 0; 12-13 the checksum, still zero here; 14-15 reserved
	binary.BigEndian.PutUint16(pkt[12:14], packet.Checksum(pkt))
	return dst
}

// parseHeader validates and decodes the common header, returning the body.
func parseHeader(b []byte) (header, []byte, error) {
	var h header
	if len(b) < headerLen {
		return h, nil, fmt.Errorf("ospf: packet too short (%d)", len(b))
	}
	if b[0] != 2 {
		return h, nil, fmt.Errorf("ospf: version %d", b[0])
	}
	length := binary.BigEndian.Uint16(b[2:4])
	if int(length) < headerLen || int(length) > len(b) {
		return h, nil, fmt.Errorf("ospf: bad length %d", length)
	}
	// RFC 1071 verification: the sum over the packet, checksum included,
	// is zero. It accepts either ones'-complement zero in the field.
	if packet.Checksum(b[:length]) != 0 {
		return h, nil, fmt.Errorf("ospf: checksum mismatch")
	}
	h.Type = b[1]
	h.RouterID = binary.BigEndian.Uint32(b[4:8])
	h.Length = length
	return h, b[headerLen:length], nil
}

// MarshalHello encodes a hello packet.
func MarshalHello(routerID uint32, h Hello) []byte { return appendHello(nil, routerID, h) }

func appendHello(dst []byte, routerID uint32, h Hello) []byte {
	start := len(dst)
	dst = begin(dst)
	dst = binary.BigEndian.AppendUint16(dst, h.HelloInterval)
	dst = binary.BigEndian.AppendUint16(dst, h.DeadInterval)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(h.Neighbors)))
	for _, n := range h.Neighbors {
		dst = binary.BigEndian.AppendUint32(dst, n)
	}
	return seal(dst, start, typeHello, routerID)
}

// decoder is the storage message bodies decode into. A Router keeps one
// and every Receive overwrites it, so a decoded message is only good
// until the next one arrives and whatever outlives that is copied out
// (LSA.clone).
type decoder struct {
	nbrs  []uint32
	lsas  []LSA
	links []LinkDesc
	stubs []StubDesc
	keys  []lsaKey
}

func (d *decoder) hello(body []byte) (Hello, error) {
	var h Hello
	if len(body) < 6 {
		return h, fmt.Errorf("ospf: hello too short")
	}
	h.HelloInterval = binary.BigEndian.Uint16(body[0:2])
	h.DeadInterval = binary.BigEndian.Uint16(body[2:4])
	n := int(binary.BigEndian.Uint16(body[4:6]))
	if len(body) < 6+4*n {
		return h, fmt.Errorf("ospf: hello neighbor list truncated")
	}
	d.nbrs = d.nbrs[:0]
	for i := 0; i < n; i++ {
		d.nbrs = append(d.nbrs, binary.BigEndian.Uint32(body[6+4*i:]))
	}
	h.Neighbors = d.nbrs
	return h, nil
}

func appendLSA(out []byte, l LSA) []byte {
	out = binary.BigEndian.AppendUint32(out, l.Origin)
	out = binary.BigEndian.AppendUint32(out, l.Seq)
	out = binary.BigEndian.AppendUint16(out, uint16(len(l.Links)))
	out = binary.BigEndian.AppendUint16(out, uint16(len(l.Stubs)))
	for _, ln := range l.Links {
		out = binary.BigEndian.AppendUint32(out, ln.NeighborID)
		out = binary.BigEndian.AppendUint32(out, ln.Cost)
	}
	for _, s := range l.Stubs {
		a := s.Prefix.Addr().As4()
		out = append(out, a[:]...)
		out = append(out, byte(s.Prefix.Bits()), 0, 0, 0)
		out = binary.BigEndian.AppendUint32(out, s.Cost)
	}
	return out
}

// lsa decodes one LSA from the front of b onto d.lsas, its links and
// stubs onto the shared d.links and d.stubs, and returns the rest of b.
func (d *decoder) lsa(b []byte) ([]byte, error) {
	if len(b) < 12 {
		return nil, fmt.Errorf("ospf: LSA truncated")
	}
	l := LSA{Origin: binary.BigEndian.Uint32(b[0:4]), Seq: binary.BigEndian.Uint32(b[4:8])}
	nl := int(binary.BigEndian.Uint16(b[8:10]))
	ns := int(binary.BigEndian.Uint16(b[10:12]))
	b = b[12:]
	if len(b) < 8*nl+12*ns {
		return nil, fmt.Errorf("ospf: LSA body truncated")
	}
	links, stubs := len(d.links), len(d.stubs)
	for i := 0; i < nl; i++ {
		d.links = append(d.links, LinkDesc{
			NeighborID: binary.BigEndian.Uint32(b[0:4]),
			Cost:       binary.BigEndian.Uint32(b[4:8]),
		})
		b = b[8:]
	}
	for i := 0; i < ns; i++ {
		addr := netip.AddrFrom4([4]byte(b[0:4]))
		bits := int(b[4])
		if bits > 32 {
			return nil, fmt.Errorf("ospf: bad stub prefix length %d", bits)
		}
		d.stubs = append(d.stubs, StubDesc{
			Prefix: netip.PrefixFrom(addr, bits),
			Cost:   binary.BigEndian.Uint32(b[8:12]),
		})
		b = b[12:]
	}
	// Full slice expressions: an append to one LSA's list can never run
	// into its neighbour's. A later growth of d.links moves the array but
	// leaves the lists already cut from the old one intact.
	l.Links = d.links[links:len(d.links):len(d.links)]
	l.Stubs = d.stubs[stubs:len(d.stubs):len(d.stubs)]
	d.lsas = append(d.lsas, l)
	return b, nil
}

// clone returns a copy of l that shares no storage with it (nil, not
// empty, lists for none, as a parse into fresh storage gives).
func (l LSA) clone() LSA {
	l.Links = append([]LinkDesc(nil), l.Links...)
	l.Stubs = append([]StubDesc(nil), l.Stubs...)
	return l
}

// MarshalLSU encodes a link-state update.
func MarshalLSU(routerID uint32, u LSU) []byte { return appendLSU(nil, routerID, u.LSAs) }

func appendLSU(dst []byte, routerID uint32, lsas []LSA) []byte {
	start := len(dst)
	dst = binary.BigEndian.AppendUint16(begin(dst), uint16(len(lsas)))
	for _, l := range lsas {
		dst = appendLSA(dst, l)
	}
	return seal(dst, start, typeLSU, routerID)
}

func (d *decoder) lsu(body []byte) (LSU, error) {
	if len(body) < 2 {
		return LSU{}, fmt.Errorf("ospf: LSU too short")
	}
	n := int(binary.BigEndian.Uint16(body[0:2]))
	b := body[2:]
	d.lsas, d.links, d.stubs = d.lsas[:0], d.links[:0], d.stubs[:0]
	for i := 0; i < n; i++ {
		var err error
		if b, err = d.lsa(b); err != nil {
			return LSU{}, err
		}
	}
	return LSU{LSAs: d.lsas}, nil
}

func appendLSAck(dst []byte, routerID uint32, keys []lsaKey) []byte {
	start := len(dst)
	dst = binary.BigEndian.AppendUint16(begin(dst), uint16(len(keys)))
	for _, k := range keys {
		dst = binary.BigEndian.AppendUint32(dst, k.Origin)
		dst = binary.BigEndian.AppendUint32(dst, k.Seq)
	}
	return seal(dst, start, typeLSAck, routerID)
}

func (d *decoder) lsack(body []byte) (lsAck, error) {
	if len(body) < 2 {
		return lsAck{}, fmt.Errorf("ospf: LSAck too short")
	}
	n := int(binary.BigEndian.Uint16(body[0:2]))
	if len(body) < 2+8*n {
		return lsAck{}, fmt.Errorf("ospf: LSAck truncated")
	}
	d.keys = d.keys[:0]
	for i := 0; i < n; i++ {
		d.keys = append(d.keys, lsaKey{
			Origin: binary.BigEndian.Uint32(body[2+8*i:]),
			Seq:    binary.BigEndian.Uint32(body[6+8*i:]),
		})
	}
	return lsAck{Keys: d.keys}, nil
}
