package bgp

import (
	"net/netip"
	"reflect"
	"testing"
)

// FuzzWireDecode throws arbitrary bytes at the BGP wire decoders. Two
// properties: no decoder may panic on any input (every length is
// attacker-controlled — the mux parses frames from experiment slices),
// and any message that decodes must survive a marshal/parse round trip
// unchanged, so the mux can re-originate what it accepted byte-exactly.
func FuzzWireDecode(f *testing.F) {
	f.Add(marshalOpen(openMsg{ASN: 64512, RouterID: 0x0a000001, HoldTime: 90}))
	f.Add(marshalKeepalive())
	f.Add(marshalNotification(notification{Code: 7}))
	f.Add(marshalUpdate(updateMsg{
		Withdrawn: []netip.Prefix{netip.MustParsePrefix("10.2.0.0/16")},
		Attrs: PathAttrs{
			ASPath:    []uint32{64512, 64513},
			NextHop:   netip.MustParseAddr("198.32.154.40"),
			LocalPref: 100,
			MED:       7,
		},
		NLRI: []netip.Prefix{netip.MustParsePrefix("10.1.0.0/16"), netip.MustParsePrefix("10.3.3.0/24")},
	}))
	f.Add([]byte{0, 4, 0, msgUpdate})
	f.Add([]byte{0, 9, 0, msgUpdate, 0, 1, 33, 1, 2})

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, body, err := parseType(data)
		if err != nil {
			return
		}
		switch typ {
		case msgOpen:
			o, err := parseOpen(body)
			if err != nil {
				return
			}
			roundTrip(t, marshalOpen(o), func(b2 []byte) (any, error) { return parseOpen(b2) }, o)
		case msgUpdate:
			u, err := parseUpdate(body)
			if err != nil {
				return
			}
			if len(u.Withdrawn)*5+len(u.Attrs.ASPath)*4+len(u.NLRI)*5+22 > 0xffff {
				// The 2-byte frame length cannot carry the re-encoding;
				// such a message cannot originate from marshalUpdate.
				return
			}
			roundTrip(t, marshalUpdate(u), func(b2 []byte) (any, error) { return parseUpdate(b2) }, u)
		case msgNotification:
			n, err := parseNotification(body)
			if err != nil {
				return
			}
			roundTrip(t, marshalNotification(n), func(b2 []byte) (any, error) { return parseNotification(b2) }, n)
		}
	})
}

// roundTrip re-frames an accepted message and demands it decodes back to
// the identical value.
func roundTrip(t *testing.T, reenc []byte, parse func([]byte) (any, error), want any) {
	t.Helper()
	_, body, err := parseType(reenc)
	if err != nil {
		t.Fatalf("re-encoded frame rejected: %v", err)
	}
	got, err := parse(body)
	if err != nil {
		t.Fatalf("re-encoded body rejected: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed message:\n got %+v\nwant %+v", got, want)
	}
}
