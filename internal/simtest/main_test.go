package simtest

import (
	"os"
	"testing"

	"vini/internal/ospf"
	"vini/internal/packet"
)

// TestMain runs every regime, parity and golden test in this package
// with released packet buffers poisoned: a stack handler, routing
// process or tap consumer that kept a borrowed slice past its call would
// read 0xDE and move a digest. The same goes the other way for routing
// messages: every OSPF router's encode buffer is poisoned the moment
// SendRouting returns, so a transport that kept the lent payload would
// deliver a message its receiver's checksum rejects.
func TestMain(m *testing.M) {
	packet.PoisonOnReleaseForTest(true)
	ospf.PoisonAfterSendForTest(true)
	os.Exit(m.Run())
}
