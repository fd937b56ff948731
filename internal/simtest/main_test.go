package simtest

import (
	"os"
	"testing"

	"vini/internal/packet"
)

// TestMain runs every regime, parity and golden test in this package
// with released packet buffers poisoned: a stack handler, routing
// process or tap consumer that kept a borrowed slice past its call would
// read 0xDE and move a digest.
func TestMain(m *testing.M) {
	packet.PoisonOnReleaseForTest(true)
	os.Exit(m.Run())
}
