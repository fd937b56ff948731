package packet

import (
	"fmt"
	"net/netip"
)

// Flow is a hashable 5-tuple in the gopacket Flow/Endpoint spirit: fixed
// size, usable as a map key (NAT bindings, VNET demux, TCP demux).
type Flow struct {
	Proto    uint8
	Src, Dst netip.Addr
	SrcPort  uint16
	DstPort  uint16
}

// String renders "proto src:sport>dst:dport".
func (f Flow) String() string {
	return fmt.Sprintf("%d %s:%d>%s:%d", f.Proto, f.Src, f.SrcPort, f.Dst, f.DstPort)
}

// FlowOf extracts the 5-tuple from a serialized IPv4 datagram. For ICMP,
// the echo ID is reported in SrcPort so NAT can bind echo sessions the way
// Linux netfilter does. ok is false for malformed or fragmented packets.
func FlowOf(dgram []byte) (f Flow, ok bool) {
	var ip IPv4
	payload, err := ip.Parse(dgram)
	if err != nil {
		return f, false
	}
	if ip.FragOff != 0 {
		return f, false
	}
	f.Proto = ip.Proto
	f.Src, f.Dst = ip.Src, ip.Dst
	switch ip.Proto {
	case ProtoUDP:
		var u UDP
		if _, err := u.Parse(payload); err != nil {
			return f, false
		}
		f.SrcPort, f.DstPort = u.SrcPort, u.DstPort
	case ProtoTCP:
		var t TCP
		if _, err := t.Parse(payload); err != nil {
			return f, false
		}
		f.SrcPort, f.DstPort = t.SrcPort, t.DstPort
	case ProtoICMP:
		var ic ICMP
		if _, err := ic.Parse(payload); err != nil {
			return f, false
		}
		f.SrcPort = ic.ID
	}
	return f, true
}

// BuildUDP builds a complete IPv4/UDP datagram.
func BuildUDP(src, dst netip.Addr, sport, dport uint16, ttl uint8, payload []byte) []byte {
	u := UDP{SrcPort: sport, DstPort: dport}
	seg := u.Marshal(src, dst, payload)
	ip := IPv4{TTL: ttl, Proto: ProtoUDP, Src: src, Dst: dst}
	return ip.Marshal(seg)
}

// BuildTCP builds a complete IPv4/TCP datagram.
func BuildTCP(src, dst netip.Addr, hdr TCP, ttl uint8, payload []byte) []byte {
	seg := hdr.Marshal(src, dst, payload)
	ip := IPv4{TTL: ttl, Proto: ProtoTCP, Src: src, Dst: dst}
	return ip.Marshal(seg)
}

// BuildICMPEcho builds an IPv4/ICMP echo request (or reply) datagram.
func BuildICMPEcho(src, dst netip.Addr, reply bool, id, seq uint16, ttl uint8, payload []byte) []byte {
	typ := uint8(ICMPEcho)
	if reply {
		typ = ICMPEchoReply
	}
	ic := ICMP{Type: typ, ID: id, Seq: seq}
	msg := ic.Marshal(payload)
	ip := IPv4{TTL: ttl, Proto: ProtoICMP, Src: src, Dst: dst}
	return ip.Marshal(msg)
}

// BuildICMPError builds the ICMP error (time exceeded / unreachable) a
// router emits about an offending datagram, quoting its IP header plus the
// first 8 payload bytes per RFC 792.
func BuildICMPError(routerAddr netip.Addr, icmpType, code uint8, offending []byte) []byte {
	var oip IPv4
	if _, err := oip.Parse(offending); err != nil {
		return nil
	}
	quote := offending
	if max := oip.HeaderLen + 8; len(quote) > max {
		quote = quote[:max]
	}
	ic := ICMP{Type: icmpType, Code: code}
	msg := ic.Marshal(quote)
	ip := IPv4{TTL: 64, Proto: ProtoICMP, Src: routerAddr, Dst: oip.Src}
	return ip.Marshal(msg)
}
