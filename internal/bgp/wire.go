// Package bgp implements the BGP speaker IIAS experiments use to exchange
// reachability with neighboring domains, and the BGP multiplexer of
// Section 6.1 that lets many experiments share a single routing
// adjacency with an external network: the mux owns the one external
// session, ensures each experiment announces only its own address space,
// and rate-limits the update stream each experiment may send upstream.
package bgp

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// Message types.
const (
	msgOpen         = 1
	msgUpdate       = 2
	msgNotification = 3
	msgKeepalive    = 4
)

// openMsg announces speaker identity when a session starts.
type openMsg struct {
	ASN      uint32
	RouterID uint32
	HoldTime uint16 // seconds
}

// PathAttrs carries the attributes of an announcement.
type PathAttrs struct {
	ASPath    []uint32
	NextHop   netip.Addr
	LocalPref uint32
	MED       uint32
}

// updateMsg announces and withdraws prefixes.
type updateMsg struct {
	Withdrawn []netip.Prefix
	Attrs     PathAttrs
	NLRI      []netip.Prefix
}

// notification reports a fatal session error.
type notification struct {
	Code uint8
}

// noteHoldExpired is the notification code of a hold-timer expiry.
const noteHoldExpired = 4

// Marshal encodes a message with the 19-byte-style header (marker
// omitted; 3-byte length + type as in RFC 4271, simplified).
func marshal(typ byte, body []byte) []byte {
	out := make([]byte, 4+len(body))
	binary.BigEndian.PutUint16(out[0:2], uint16(len(out)))
	out[2] = 0 // reserved
	out[3] = typ
	copy(out[4:], body)
	return out
}

// parseType splits a raw message into type and body.
func parseType(b []byte) (byte, []byte, error) {
	if len(b) < 4 {
		return 0, nil, fmt.Errorf("bgp: message too short")
	}
	l := int(binary.BigEndian.Uint16(b[0:2]))
	if l < 4 || l > len(b) {
		return 0, nil, fmt.Errorf("bgp: bad length %d", l)
	}
	return b[3], b[4:l], nil
}

// marshalOpen encodes an OPEN.
func marshalOpen(o openMsg) []byte {
	body := make([]byte, 10)
	binary.BigEndian.PutUint32(body[0:4], o.ASN)
	binary.BigEndian.PutUint32(body[4:8], o.RouterID)
	binary.BigEndian.PutUint16(body[8:10], o.HoldTime)
	return marshal(msgOpen, body)
}

// parseOpen decodes an OPEN body.
func parseOpen(body []byte) (openMsg, error) {
	var o openMsg
	if len(body) < 10 {
		return o, fmt.Errorf("bgp: OPEN too short")
	}
	o.ASN = binary.BigEndian.Uint32(body[0:4])
	o.RouterID = binary.BigEndian.Uint32(body[4:8])
	o.HoldTime = binary.BigEndian.Uint16(body[8:10])
	return o, nil
}

// marshalKeepalive encodes a KEEPALIVE.
func marshalKeepalive() []byte { return marshal(msgKeepalive, nil) }

// marshalNotification encodes a NOTIFICATION.
func marshalNotification(n notification) []byte {
	return marshal(msgNotification, []byte{n.Code})
}

// parseNotification decodes a NOTIFICATION body.
func parseNotification(body []byte) (notification, error) {
	if len(body) < 1 {
		return notification{}, fmt.Errorf("bgp: NOTIFICATION too short")
	}
	return notification{Code: body[0]}, nil
}

func appendPrefix(out []byte, p netip.Prefix) []byte {
	a := p.Addr().As4()
	out = append(out, byte(p.Bits()))
	return append(out, a[:]...)
}

func parsePrefix(b []byte) (netip.Prefix, []byte, error) {
	if len(b) < 5 {
		return netip.Prefix{}, nil, fmt.Errorf("bgp: prefix truncated")
	}
	bits := int(b[0])
	if bits > 32 {
		return netip.Prefix{}, nil, fmt.Errorf("bgp: bad prefix bits %d", bits)
	}
	addr := netip.AddrFrom4([4]byte(b[1:5]))
	return netip.PrefixFrom(addr, bits), b[5:], nil
}

// marshalUpdate encodes an UPDATE.
func marshalUpdate(u updateMsg) []byte {
	var body []byte
	body = binary.BigEndian.AppendUint16(body, uint16(len(u.Withdrawn)))
	for _, p := range u.Withdrawn {
		body = appendPrefix(body, p)
	}
	// Attributes.
	body = binary.BigEndian.AppendUint16(body, uint16(len(u.Attrs.ASPath)))
	for _, a := range u.Attrs.ASPath {
		body = binary.BigEndian.AppendUint32(body, a)
	}
	nh := u.Attrs.NextHop
	if !nh.IsValid() {
		nh = netip.AddrFrom4([4]byte{})
	}
	na := nh.As4()
	body = append(body, na[:]...)
	body = binary.BigEndian.AppendUint32(body, u.Attrs.LocalPref)
	body = binary.BigEndian.AppendUint32(body, u.Attrs.MED)
	// NLRI.
	body = binary.BigEndian.AppendUint16(body, uint16(len(u.NLRI)))
	for _, p := range u.NLRI {
		body = appendPrefix(body, p)
	}
	return marshal(msgUpdate, body)
}

// parseUpdate decodes an UPDATE body.
func parseUpdate(body []byte) (updateMsg, error) {
	var u updateMsg
	if len(body) < 2 {
		return u, fmt.Errorf("bgp: UPDATE too short")
	}
	nw := int(binary.BigEndian.Uint16(body[0:2]))
	b := body[2:]
	var err error
	var p netip.Prefix
	for i := 0; i < nw; i++ {
		p, b, err = parsePrefix(b)
		if err != nil {
			return u, err
		}
		u.Withdrawn = append(u.Withdrawn, p)
	}
	if len(b) < 2 {
		return u, fmt.Errorf("bgp: UPDATE attrs truncated")
	}
	np := int(binary.BigEndian.Uint16(b[0:2]))
	b = b[2:]
	if len(b) < 4*np+12 {
		return u, fmt.Errorf("bgp: AS path truncated")
	}
	for i := 0; i < np; i++ {
		u.Attrs.ASPath = append(u.Attrs.ASPath, binary.BigEndian.Uint32(b[4*i:]))
	}
	b = b[4*np:]
	u.Attrs.NextHop = netip.AddrFrom4([4]byte(b[0:4]))
	u.Attrs.LocalPref = binary.BigEndian.Uint32(b[4:8])
	u.Attrs.MED = binary.BigEndian.Uint32(b[8:12])
	b = b[12:]
	if len(b) < 2 {
		return u, fmt.Errorf("bgp: NLRI count truncated")
	}
	nn := int(binary.BigEndian.Uint16(b[0:2]))
	b = b[2:]
	for i := 0; i < nn; i++ {
		p, b, err = parsePrefix(b)
		if err != nil {
			return u, err
		}
		u.NLRI = append(u.NLRI, p)
	}
	return u, nil
}
