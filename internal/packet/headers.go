package packet

import (
	"encoding/binary"
	"net/netip"
)

// IPv4 is an IPv4 header without options (IHL=5), which is the only form
// IIAS emits; packets with options are accepted and options preserved via
// the HeaderLen field.
type IPv4 struct {
	TOS       uint8
	TotalLen  uint16
	ID        uint16
	Flags     uint8 // 3 bits: reserved, DF, MF
	FragOff   uint16
	TTL       uint8
	Proto     uint8
	Checksum  uint16
	Src, Dst  netip.Addr
	HeaderLen int // bytes, >= 20
}

// Parse decodes the header from b and returns the payload (bounded by
// TotalLen). The checksum is verified.
func (h *IPv4) Parse(b []byte) ([]byte, error) {
	if len(b) < IPv4HeaderLen {
		return nil, parseErr("ipv4", "header too short: %d bytes", len(b))
	}
	if v := b[0] >> 4; v != 4 {
		return nil, parseErr("ipv4", "version %d", v)
	}
	hl := int(b[0]&0xf) * 4
	if hl < IPv4HeaderLen || hl > len(b) {
		return nil, parseErr("ipv4", "header length %d", hl)
	}
	if Checksum(b[:hl]) != 0 {
		return nil, parseErr("ipv4", "checksum mismatch")
	}
	h.HeaderLen = hl
	h.TOS = b[1]
	h.TotalLen = binary.BigEndian.Uint16(b[2:4])
	h.ID = binary.BigEndian.Uint16(b[4:6])
	fo := binary.BigEndian.Uint16(b[6:8])
	h.Flags = uint8(fo >> 13)
	h.FragOff = fo & 0x1fff
	h.TTL = b[8]
	h.Proto = b[9]
	h.Checksum = binary.BigEndian.Uint16(b[10:12])
	h.Src = netip.AddrFrom4([4]byte(b[12:16]))
	h.Dst = netip.AddrFrom4([4]byte(b[16:20]))
	if int(h.TotalLen) < hl || int(h.TotalLen) > len(b) {
		return nil, parseErr("ipv4", "total length %d (buffer %d)", h.TotalLen, len(b))
	}
	return b[hl:h.TotalLen], nil
}

// Marshal serializes header+payload into a fresh datagram, computing
// TotalLen and Checksum. HeaderLen/Checksum fields in h are ignored.
func (h *IPv4) Marshal(payload []byte) []byte {
	b := make([]byte, IPv4HeaderLen+len(payload))
	copy(b[IPv4HeaderLen:], payload)
	h.put(b)
	return b
}

// put serializes the header (IHL=5) into the first IPv4HeaderLen bytes of
// dgram, which must already hold the payload at dgram[IPv4HeaderLen:].
// TotalLen covers all of dgram; the checksum is computed in place. This is
// the zero-allocation path behind Marshal and EncapIPv4.
func (h *IPv4) put(dgram []byte) {
	b := dgram[:IPv4HeaderLen]
	b[0] = 4<<4 | 5
	b[1] = h.TOS
	binary.BigEndian.PutUint16(b[2:4], uint16(len(dgram)))
	binary.BigEndian.PutUint16(b[4:6], h.ID)
	binary.BigEndian.PutUint16(b[6:8], uint16(h.Flags)<<13|h.FragOff&0x1fff)
	b[8] = h.TTL
	b[9] = h.Proto
	b[10], b[11] = 0, 0
	s, d := h.Src.As4(), h.Dst.As4()
	copy(b[12:16], s[:])
	copy(b[16:20], d[:])
	binary.BigEndian.PutUint16(b[10:12], Checksum(b))
}

// EncapIPv4 prepends an IPv4 header to p in place, using headroom when
// available. The packet's current contents become the payload.
func EncapIPv4(p *Packet, h *IPv4) {
	h.put(p.Extend(IPv4HeaderLen))
}

// SetTTL rewrites the TTL in a serialized IPv4 datagram in place and
// incrementally updates the checksum (RFC 1624), as Click's DecIPTTL does.
func SetTTL(dgram []byte, ttl uint8) {
	old := uint16(dgram[8]) << 8
	dgram[8] = ttl
	new_ := uint16(ttl) << 8
	UpdateChecksum16(dgram[10:12], old, new_)
}

// UpdateChecksum16 applies an incremental checksum update for a 16-bit
// field change per RFC 1624: HC' = ~(~HC + ~m + m'). csum is the two
// checksum bytes in place; old and new_ are the field's big-endian
// values before and after the rewrite. In-place header rewriting (TTL
// decrement, NAPT address/port translation) uses this instead of
// recomputing the full sum.
func UpdateChecksum16(csum []byte, old, new_ uint16) {
	hc := binary.BigEndian.Uint16(csum)
	sum := uint32(^hc) + uint32(^old) + uint32(new_)
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	binary.BigEndian.PutUint16(csum, ^uint16(sum))
}

// UDP is a UDP header.
type UDP struct {
	SrcPort, DstPort uint16
	Length           uint16
	Checksum         uint16
}

// Parse decodes from b (a UDP segment) and returns the payload.
func (h *UDP) Parse(b []byte) ([]byte, error) {
	if len(b) < UDPHeaderLen {
		return nil, parseErr("udp", "segment too short: %d bytes", len(b))
	}
	h.SrcPort = binary.BigEndian.Uint16(b[0:2])
	h.DstPort = binary.BigEndian.Uint16(b[2:4])
	h.Length = binary.BigEndian.Uint16(b[4:6])
	h.Checksum = binary.BigEndian.Uint16(b[6:8])
	if int(h.Length) < UDPHeaderLen || int(h.Length) > len(b) {
		return nil, parseErr("udp", "length %d (buffer %d)", h.Length, len(b))
	}
	return b[UDPHeaderLen:h.Length], nil
}

// Marshal serializes header+payload with a checksum computed against the
// pseudo-header for src/dst.
func (h *UDP) Marshal(src, dst netip.Addr, payload []byte) []byte {
	b := make([]byte, UDPHeaderLen+len(payload))
	copy(b[UDPHeaderLen:], payload)
	h.put(src, dst, b)
	return b
}

// put serializes the header into the first UDPHeaderLen bytes of seg,
// which must already hold the payload at seg[UDPHeaderLen:]. Length covers
// all of seg; the pseudo-header checksum is computed in place.
func (h *UDP) put(src, dst netip.Addr, seg []byte) {
	binary.BigEndian.PutUint16(seg[0:2], h.SrcPort)
	binary.BigEndian.PutUint16(seg[2:4], h.DstPort)
	binary.BigEndian.PutUint16(seg[4:6], uint16(len(seg)))
	seg[6], seg[7] = 0, 0
	ck := transportChecksum(src, dst, ProtoUDP, seg)
	if ck == 0 {
		ck = 0xffff
	}
	binary.BigEndian.PutUint16(seg[6:8], ck)
}

// EncapUDP prepends a UDP header to p in place; the current contents
// become the UDP payload. Wire bytes match UDP.Marshal exactly.
func EncapUDP(p *Packet, src, dst netip.Addr, sport, dport uint16) {
	h := UDP{SrcPort: sport, DstPort: dport}
	h.put(src, dst, p.Extend(UDPHeaderLen))
}

// VerifyChecksum checks a parsed UDP segment against the pseudo-header.
// A zero transmitted checksum means "not computed" and passes.
func (h *UDP) VerifyChecksum(src, dst netip.Addr, segment []byte) bool {
	if h.Checksum == 0 {
		return true
	}
	return transportChecksum(src, dst, ProtoUDP, segment) == 0
}

// TCP flag bits.
const (
	TCPFin = 1 << 0
	TCPSyn = 1 << 1
	TCPAck = 1 << 4
)

// TCP is a TCP header without options.
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
	Checksum         uint16
	DataOff          int // bytes
}

// Parse decodes from b (a TCP segment) and returns the payload.
func (h *TCP) Parse(b []byte) ([]byte, error) {
	if len(b) < TCPHeaderLen {
		return nil, parseErr("tcp", "segment too short: %d bytes", len(b))
	}
	h.SrcPort = binary.BigEndian.Uint16(b[0:2])
	h.DstPort = binary.BigEndian.Uint16(b[2:4])
	h.Seq = binary.BigEndian.Uint32(b[4:8])
	h.Ack = binary.BigEndian.Uint32(b[8:12])
	doff := int(b[12]>>4) * 4
	if doff < TCPHeaderLen || doff > len(b) {
		return nil, parseErr("tcp", "data offset %d", doff)
	}
	h.DataOff = doff
	h.Flags = b[13] & 0x3f
	h.Window = binary.BigEndian.Uint16(b[14:16])
	h.Checksum = binary.BigEndian.Uint16(b[16:18])
	return b[doff:], nil
}

// Marshal serializes header+payload with pseudo-header checksum.
func (h *TCP) Marshal(src, dst netip.Addr, payload []byte) []byte {
	b := make([]byte, TCPHeaderLen+len(payload))
	copy(b[TCPHeaderLen:], payload)
	h.put(src, dst, b)
	return b
}

// put serializes the header (no options) into the first TCPHeaderLen
// bytes of seg, which must already hold the payload at
// seg[TCPHeaderLen:]; the pseudo-header checksum is computed in place.
func (h *TCP) put(src, dst netip.Addr, seg []byte) {
	binary.BigEndian.PutUint16(seg[0:2], h.SrcPort)
	binary.BigEndian.PutUint16(seg[2:4], h.DstPort)
	binary.BigEndian.PutUint32(seg[4:8], h.Seq)
	binary.BigEndian.PutUint32(seg[8:12], h.Ack)
	seg[12] = 5 << 4
	seg[13] = h.Flags & 0x3f
	binary.BigEndian.PutUint16(seg[14:16], h.Window)
	seg[16], seg[17], seg[18], seg[19] = 0, 0, 0, 0
	binary.BigEndian.PutUint16(seg[16:18], transportChecksum(src, dst, ProtoTCP, seg))
}

// EncapTCP prepends a TCP header to p in place; the current contents
// become the segment payload. Wire bytes match TCP.Marshal exactly.
func EncapTCP(p *Packet, src, dst netip.Addr, h *TCP) {
	h.put(src, dst, p.Extend(TCPHeaderLen))
}

// ICMP message types used here.
const (
	ICMPEchoReply    = 0
	ICMPUnreachable  = 3
	ICMPEcho         = 8
	ICMPTimeExceeded = 11
)

// ICMP is an ICMP header (echo layout: ID and Seq valid for echo types).
type ICMP struct {
	Type, Code uint8
	Checksum   uint16
	ID, Seq    uint16
}

// Parse decodes from b (an ICMP message) and returns the payload. The
// checksum is verified over the whole message.
func (h *ICMP) Parse(b []byte) ([]byte, error) {
	if len(b) < ICMPHeaderLen {
		return nil, parseErr("icmp", "message too short: %d bytes", len(b))
	}
	if Checksum(b) != 0 {
		return nil, parseErr("icmp", "checksum mismatch")
	}
	h.Type = b[0]
	h.Code = b[1]
	h.Checksum = binary.BigEndian.Uint16(b[2:4])
	h.ID = binary.BigEndian.Uint16(b[4:6])
	h.Seq = binary.BigEndian.Uint16(b[6:8])
	return b[ICMPHeaderLen:], nil
}

// Marshal serializes header+payload, computing the checksum.
func (h *ICMP) Marshal(payload []byte) []byte {
	b := make([]byte, ICMPHeaderLen+len(payload))
	copy(b[ICMPHeaderLen:], payload)
	h.put(b)
	return b
}

// put serializes the header into the first ICMPHeaderLen bytes of msg,
// which must already hold the body at msg[ICMPHeaderLen:], and computes
// the checksum over all of msg in place.
func (h *ICMP) put(msg []byte) {
	msg[0] = h.Type
	msg[1] = h.Code
	msg[2], msg[3] = 0, 0
	binary.BigEndian.PutUint16(msg[4:6], h.ID)
	binary.BigEndian.PutUint16(msg[6:8], h.Seq)
	binary.BigEndian.PutUint16(msg[2:4], Checksum(msg))
}

// EncapICMP prepends an ICMP header to p in place, using headroom when
// available. The packet's current contents become the message body.
func EncapICMP(p *Packet, h *ICMP) {
	h.put(p.Extend(ICMPHeaderLen))
}
