package overlay

import (
	"os"
	"testing"

	"vini/internal/ospf"
	"vini/internal/packet"
)

// TestMain runs the package's tests with released packet buffers and
// sent routing messages poisoned (as simtest and experiment do): the
// live sinks and the socket reader sit on the same control-send path as
// the simulator's, and keeping a lent slice there would put 0xDE on the
// wire.
func TestMain(m *testing.M) {
	packet.PoisonOnReleaseForTest(true)
	ospf.PoisonAfterSendForTest(true)
	os.Exit(m.Run())
}
