package core

import (
	"os"
	"testing"

	"vini/internal/ospf"
	"vini/internal/packet"
)

// TestMain runs the package's tests with released packet buffers and
// sent routing messages poisoned (as simtest and experiment do): a
// tunnel sink, stack handler or routing process on the simulated side of
// the one control-send path that kept a lent slice would read 0xDE.
func TestMain(m *testing.M) {
	packet.PoisonOnReleaseForTest(true)
	ospf.PoisonAfterSendForTest(true)
	os.Exit(m.Run())
}
