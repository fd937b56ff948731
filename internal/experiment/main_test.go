package experiment

import (
	"os"
	"testing"

	"vini/internal/ospf"
	"vini/internal/packet"
)

// TestMain runs the Table 2 / Figure 8 goldens (and everything else
// here) with released packet buffers poisoned, so they double as a
// check that no consumer keeps a borrowed slice past its call — and,
// with OSPF's encode buffer poisoned after every send, that no
// transport keeps a lent routing message either.
func TestMain(m *testing.M) {
	packet.PoisonOnReleaseForTest(true)
	ospf.PoisonAfterSendForTest(true)
	os.Exit(m.Run())
}
