// Package nat implements the Network Address and Port Translation the
// IIAS egress performs (Section 4.2.3): packets leaving the overlay for
// hosts that have not opted in get their source rewritten to the egress
// node's public address and a fresh local port; return traffic matching a
// binding is rewritten back and re-enters the overlay.
package nat

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"time"

	"vini/internal/packet"
)

// binding is one NAPT session.
type binding struct {
	Inside   packet.Flow // original 5-tuple (overlay side)
	External uint16      // allocated public port (or ICMP ID)
	LastUsed time.Duration
}

// Config controls the translator.
type Config struct {
	// External is the public address of the egress node.
	External netip.Addr
	// PortLow/PortHigh bound the allocated port range.
	PortLow, PortHigh uint16
	// Timeout expires idle bindings; zero means never.
	Timeout time.Duration
}

// Table is a NAPT translator. It is not safe for concurrent use; the
// owning Click element serializes access.
type Table struct {
	cfg      Config
	now      func() time.Duration
	out      map[packet.Flow]*binding // inside flow -> binding
	back     map[uint16]*binding      // external port -> binding
	nextPort uint16
}

// New returns a translator. now supplies the current time for timeouts.
func New(cfg Config, now func() time.Duration) *Table {
	if cfg.PortLow == 0 {
		cfg.PortLow = 1024
	}
	if cfg.PortHigh == 0 {
		cfg.PortHigh = 65535
	}
	if now == nil {
		now = func() time.Duration { return 0 }
	}
	return &Table{
		cfg:      cfg,
		now:      now,
		out:      make(map[packet.Flow]*binding),
		back:     make(map[uint16]*binding),
		nextPort: cfg.PortLow,
	}
}

// Len reports the number of active bindings.
func (t *Table) Len() int { return len(t.out) }

func (t *Table) allocPort() (uint16, error) {
	span := int(t.cfg.PortHigh) - int(t.cfg.PortLow) + 1
	for i := 0; i < span; i++ {
		p := t.nextPort
		t.nextPort++
		if t.nextPort > t.cfg.PortHigh || t.nextPort < t.cfg.PortLow {
			t.nextPort = t.cfg.PortLow
		}
		if _, used := t.back[p]; !used {
			return p, nil
		}
	}
	return 0, fmt.Errorf("nat: port range %d-%d exhausted", t.cfg.PortLow, t.cfg.PortHigh)
}

// expire drops idle bindings.
func (t *Table) expire() {
	if t.cfg.Timeout == 0 {
		return
	}
	now := t.now()
	for f, b := range t.out {
		if now-b.LastUsed > t.cfg.Timeout {
			delete(t.out, f)
			delete(t.back, b.External)
		}
	}
}

// bindOutbound finds or creates the binding for an outbound flow.
func (t *Table) bindOutbound(flow packet.Flow) (*binding, error) {
	b := t.out[flow]
	if b == nil {
		port, err := t.allocPort()
		if err != nil {
			return nil, err
		}
		b = &binding{Inside: flow, External: port}
		t.out[flow] = b
		t.back[port] = b
	}
	b.LastUsed = t.now()
	return b, nil
}

// matchInbound returns the binding for a return flow, or nil.
func (t *Table) matchInbound(flow packet.Flow) *binding {
	// For return traffic the external port is the destination port,
	// except ICMP echo replies where it is the echo ID (in SrcPort).
	key := flow.DstPort
	if flow.Proto == packet.ProtoICMP {
		key = flow.SrcPort
	}
	b := t.back[key]
	if b == nil || flow.Src != b.Inside.Dst {
		return nil
	}
	b.LastUsed = t.now()
	return b
}

// outbound translates a datagram leaving the overlay: it returns a new
// serialized datagram with source address/port rewritten, creating a
// binding if needed. This is the allocating reference implementation
// the in-place TranslateOutbound is differentially tested against.
func (t *Table) outbound(dgram []byte) ([]byte, error) {
	t.expire()
	flow, ok := packet.FlowOf(dgram)
	if !ok {
		return nil, fmt.Errorf("nat: cannot extract flow")
	}
	b, err := t.bindOutbound(flow)
	if err != nil {
		return nil, err
	}
	return rewrite(dgram, true, t.cfg.External, b.External)
}

// inbound translates a datagram returning from the external Internet. It
// returns the datagram rewritten back to the inside flow, or ok=false if
// no binding matches (the packet is not ours; Click drops it).
func (t *Table) inbound(dgram []byte) ([]byte, bool, error) {
	t.expire()
	flow, ok := packet.FlowOf(dgram)
	if !ok {
		return nil, false, fmt.Errorf("nat: cannot extract flow")
	}
	b := t.matchInbound(flow)
	if b == nil {
		return nil, false, nil
	}
	out, err := rewriteBack(dgram, b.Inside)
	return out, err == nil, err
}

// TranslateOutbound rewrites an outbound datagram in place with
// incremental checksum updates (RFC 1624): source address, source
// port/ICMP ID, IP header checksum, and transport checksum are patched
// without re-serializing, so the NAPT egress path does not allocate.
func (t *Table) TranslateOutbound(dgram []byte) error {
	t.expire()
	flow, ok := packet.FlowOf(dgram)
	if !ok {
		return fmt.Errorf("nat: cannot extract flow")
	}
	b, err := t.bindOutbound(flow)
	if err != nil {
		return err
	}
	return translate(dgram, true, t.cfg.External, b.External)
}

// TranslateInbound rewrites a return datagram in place back to its
// inside flow. ok=false means no binding matches (not ours; drop).
func (t *Table) TranslateInbound(dgram []byte) (bool, error) {
	t.expire()
	flow, ok := packet.FlowOf(dgram)
	if !ok {
		return false, fmt.Errorf("nat: cannot extract flow")
	}
	b := t.matchInbound(flow)
	if b == nil {
		return false, nil
	}
	return true, translate(dgram, false, b.Inside.Src, b.Inside.SrcPort)
}

// rewrite changes the source (outbound=true) address and port of dgram,
// re-serializing with correct checksums.
func rewrite(dgram []byte, _ bool, newAddr netip.Addr, newPort uint16) ([]byte, error) {
	var ip packet.IPv4
	payload, err := ip.Parse(dgram)
	if err != nil {
		return nil, err
	}
	ip.Src = newAddr
	return reserialize(ip, payload, func(proto uint8, seg []byte) {
		switch proto {
		case packet.ProtoUDP, packet.ProtoTCP:
			binary.BigEndian.PutUint16(seg[0:2], newPort)
		case packet.ProtoICMP:
			binary.BigEndian.PutUint16(seg[4:6], newPort)
		}
	})
}

// rewriteBack restores the inside destination on a return packet.
func rewriteBack(dgram []byte, inside packet.Flow) ([]byte, error) {
	var ip packet.IPv4
	payload, err := ip.Parse(dgram)
	if err != nil {
		return nil, err
	}
	ip.Dst = inside.Src
	return reserialize(ip, payload, func(proto uint8, seg []byte) {
		switch proto {
		case packet.ProtoUDP, packet.ProtoTCP:
			binary.BigEndian.PutUint16(seg[2:4], inside.SrcPort)
		case packet.ProtoICMP:
			binary.BigEndian.PutUint16(seg[4:6], inside.SrcPort)
		}
	})
}

// translate patches dgram in place: outbound (out=true) rewrites the
// source address and source port (ICMP: echo ID), inbound the
// destination address and destination port. The IP header checksum and
// the transport checksum (whose pseudo-header covers the rewritten
// address) are updated incrementally per RFC 1624, so the fast path
// neither copies nor re-serializes. A UDP datagram sent without a
// checksum (field zero) keeps none.
func translate(dgram []byte, out bool, addr netip.Addr, port uint16) error {
	var ip packet.IPv4
	seg, err := ip.Parse(dgram)
	if err != nil {
		return err
	}
	addrOff := 12 // source address
	if !out {
		addrOff = 16 // destination address
	}
	oldHi := binary.BigEndian.Uint16(dgram[addrOff : addrOff+2])
	oldLo := binary.BigEndian.Uint16(dgram[addrOff+2 : addrOff+4])
	a4 := addr.As4()
	newHi := binary.BigEndian.Uint16(a4[0:2])
	newLo := binary.BigEndian.Uint16(a4[2:4])
	packet.UpdateChecksum16(dgram[10:12], oldHi, newHi)
	packet.UpdateChecksum16(dgram[10:12], oldLo, newLo)
	copy(dgram[addrOff:addrOff+4], a4[:])

	switch ip.Proto {
	case packet.ProtoUDP, packet.ProtoTCP:
		portOff := 0 // source port
		if !out {
			portOff = 2 // destination port
		}
		var csum []byte
		switch {
		case ip.Proto == packet.ProtoUDP && len(seg) >= packet.UDPHeaderLen:
			if binary.BigEndian.Uint16(seg[6:8]) != 0 {
				csum = seg[6:8]
			}
		case ip.Proto == packet.ProtoTCP && len(seg) >= packet.TCPHeaderLen:
			csum = seg[16:18]
		default:
			return fmt.Errorf("nat: transport header truncated")
		}
		oldPort := binary.BigEndian.Uint16(seg[portOff : portOff+2])
		if csum != nil {
			packet.UpdateChecksum16(csum, oldHi, newHi)
			packet.UpdateChecksum16(csum, oldLo, newLo)
			packet.UpdateChecksum16(csum, oldPort, port)
			if ip.Proto == packet.ProtoUDP && binary.BigEndian.Uint16(csum) == 0 {
				// 0 would mean "no checksum"; 0xffff is the same
				// ones-complement value.
				binary.BigEndian.PutUint16(csum, 0xffff)
			}
		}
		binary.BigEndian.PutUint16(seg[portOff:portOff+2], port)
	case packet.ProtoICMP:
		if len(seg) < packet.ICMPHeaderLen {
			return fmt.Errorf("nat: ICMP header truncated")
		}
		// The address does not enter the ICMP checksum (no pseudo-header);
		// only the rewritten echo ID does.
		oldID := binary.BigEndian.Uint16(seg[4:6])
		packet.UpdateChecksum16(seg[2:4], oldID, port)
		binary.BigEndian.PutUint16(seg[4:6], port)
	}
	return nil
}

// reserialize rebuilds the datagram after mutate edits the transport
// header, recomputing transport and IP checksums.
func reserialize(ip packet.IPv4, payload []byte, mutate func(proto uint8, seg []byte)) ([]byte, error) {
	seg := append([]byte(nil), payload...)
	mutate(ip.Proto, seg)
	switch ip.Proto {
	case packet.ProtoUDP:
		if len(seg) >= packet.UDPHeaderLen {
			var u packet.UDP
			if _, err := u.Parse(seg); err != nil {
				return nil, err
			}
			u.SrcPort = binary.BigEndian.Uint16(seg[0:2])
			u.DstPort = binary.BigEndian.Uint16(seg[2:4])
			noCsum := binary.BigEndian.Uint16(seg[6:8]) == 0
			seg = u.Marshal(ip.Src, ip.Dst, seg[packet.UDPHeaderLen:])
			if noCsum {
				// RFC 768 zero means "no checksum"; a translator
				// preserves that rather than inventing one (RFC 3022).
				seg[6], seg[7] = 0, 0
			}
		}
	case packet.ProtoTCP:
		if len(seg) >= packet.TCPHeaderLen {
			var th packet.TCP
			body, err := th.Parse(seg)
			if err != nil {
				return nil, err
			}
			th.SrcPort = binary.BigEndian.Uint16(seg[0:2])
			th.DstPort = binary.BigEndian.Uint16(seg[2:4])
			seg = th.Marshal(ip.Src, ip.Dst, body)
		}
	case packet.ProtoICMP:
		if len(seg) >= packet.ICMPHeaderLen {
			// Parse the pre-mutation bytes (ICMP.Parse verifies the
			// checksum, which the mutation has already invalidated in
			// seg), then adopt the rewritten ID and re-marshal.
			var ic packet.ICMP
			body, err := ic.Parse(payload)
			if err != nil {
				return nil, err
			}
			ic.ID = binary.BigEndian.Uint16(seg[4:6])
			seg = ic.Marshal(body)
		}
	}
	hdr := packet.IPv4{TOS: ip.TOS, ID: ip.ID, Flags: ip.Flags, FragOff: ip.FragOff,
		TTL: ip.TTL, Proto: ip.Proto, Src: ip.Src, Dst: ip.Dst}
	return hdr.Marshal(seg), nil
}
