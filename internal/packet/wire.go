package packet

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"time"
)

// Wire codec for a packet and its annotations. Nothing in the simulator
// ships packets between processes; the codec is kept only because the
// benchmark's packet.wire_roundtrip_ns probe times it, and it goes when
// that probe does (ROADMAP.md item 3(d)). The encoding is canonical — for
// any packet p, DecodeWire(AppendWire(nil, p)) produces a packet that
// re-encodes to the identical bytes.
//
// Layout (little-endian):
//
//	u32 dataLen | data | i64 Timestamp | i64 InPort | i64 SliceID |
//	i64 Paint | i64 Hops | u8 flags | u8 addrKind | addr bytes
//
// flags bit 0 carries the MigClone annotation; the remaining bits must
// be zero (decoders reject them, keeping the encoding canonical).
// addrKind is 0 (no NextHop), 4 (IPv4), or 16 (IPv6); the address bytes
// follow in netip.Addr.As4/As16 order. Zone-qualified IPv6 addresses are
// not representable (the simulator never produces them).

const maxWirePacket = 1 << 24 // 16 MiB: far above any simulated MTU

// AppendWire appends the canonical encoding of p to dst and returns the
// extended slice.
func AppendWire(dst []byte, p *Packet) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(p.Data)))
	dst = append(dst, p.Data...)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(p.Anno.Timestamp))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(p.Anno.InPort))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(p.Anno.SliceID))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(p.Anno.Paint))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(p.Anno.Hops))
	var flags byte
	if p.Anno.MigClone {
		flags |= 1
	}
	dst = append(dst, flags)
	switch {
	case !p.Anno.NextHop.IsValid():
		dst = append(dst, 0)
	case p.Anno.NextHop.Is4():
		a4 := p.Anno.NextHop.As4()
		dst = append(dst, 4)
		dst = append(dst, a4[:]...)
	default:
		a16 := p.Anno.NextHop.As16()
		dst = append(dst, 16)
		dst = append(dst, a16[:]...)
	}
	return dst
}

// DecodeWire decodes one packet from b, which must contain exactly one
// encoded packet (trailing bytes are an error). The result is a pooled
// packet with fresh defaultHeadroom; the caller owns it and must Release
// it back to the pool.
func DecodeWire(b []byte) (*Packet, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("packet wire: truncated length prefix (%d bytes)", len(b))
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n > maxWirePacket {
		return nil, fmt.Errorf("packet wire: data length %d exceeds limit", n)
	}
	b = b[4:]
	if len(b) < n+42 { // data + 5×u64 + flags + addrKind
		return nil, fmt.Errorf("packet wire: body truncated (%d bytes, need %d)", len(b), n+42)
	}
	data, rest := b[:n], b[n:]

	q := Get()
	q.Append(data)

	q.Anno.Timestamp = time.Duration(binary.LittleEndian.Uint64(rest[0:]))
	q.Anno.InPort = int(int64(binary.LittleEndian.Uint64(rest[8:])))
	q.Anno.SliceID = int(int64(binary.LittleEndian.Uint64(rest[16:])))
	q.Anno.Paint = int(int64(binary.LittleEndian.Uint64(rest[24:])))
	q.Anno.Hops = int(int64(binary.LittleEndian.Uint64(rest[32:])))
	flags := rest[40]
	if flags&^1 != 0 {
		q.Release()
		return nil, fmt.Errorf("packet wire: unknown flag bits %#x", flags&^1)
	}
	q.Anno.MigClone = flags&1 != 0
	kind, rest := rest[41], rest[42:]
	switch kind {
	case 0:
		q.Anno.NextHop = netip.Addr{}
	case 4:
		if len(rest) < 4 {
			q.Release()
			return nil, fmt.Errorf("packet wire: truncated IPv4 next hop")
		}
		q.Anno.NextHop = netip.AddrFrom4([4]byte(rest[:4]))
		rest = rest[4:]
	case 16:
		if len(rest) < 16 {
			q.Release()
			return nil, fmt.Errorf("packet wire: truncated IPv6 next hop")
		}
		q.Anno.NextHop = netip.AddrFrom16([16]byte(rest[:16]))
		rest = rest[16:]
	default:
		q.Release()
		return nil, fmt.Errorf("packet wire: unknown next-hop kind %d", kind)
	}
	if len(rest) != 0 {
		q.Release()
		return nil, fmt.Errorf("packet wire: %d trailing bytes", len(rest))
	}
	return q, nil
}
