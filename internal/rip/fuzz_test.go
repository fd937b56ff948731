package rip

import (
	"net/netip"
	"reflect"
	"testing"
)

// FuzzRIPUpdate throws arbitrary bytes at parseUpdate, which reads the
// entry count from the neighbour's packet: no input may panic, and an
// update that decodes must re-marshal to one that decodes the same.
func FuzzRIPUpdate(f *testing.F) {
	f.Add(marshalUpdate([]advert{
		{prefix: netip.MustParsePrefix("10.1.0.1/32"), metric: 1},
		{prefix: netip.MustParsePrefix("10.1.128.0/30"), metric: infinity},
	}))
	f.Add(marshalUpdate(nil))
	f.Add([]byte{2, 2, 0xff, 0xff, 10, 0, 0, 0, 33})
	f.Add([]byte{2, 2, 0, 1, 10, 0, 0, 0, 33, 0, 0, 0, 0, 0, 0, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		ads, err := parseUpdate(data)
		if err != nil {
			return
		}
		again, err := parseUpdate(marshalUpdate(ads))
		if err != nil || !reflect.DeepEqual(ads, again) {
			t.Fatalf("round trip changed the update (err %v):\n got %+v\nwant %+v", err, again, ads)
		}
	})
}
