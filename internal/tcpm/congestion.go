package tcpm

// reno is the classic Reno controller, the window-based half of the
// workload runtime's rate control (the datagram half is the CBR
// sender's rate): it owns the congestion window and ssthresh,
// and the Sender drives it with the ACK/loss events of the Reno state
// machine. The window is float64 state whose every update is a fixed
// sequence of IEEE-754 ops on values derived from the simulation, so the
// same event sequence reproduces the same window bit-for-bit.
type reno struct {
	mss      float64
	initial  float64
	cwnd     float64
	ssthresh float64
}

// newReno builds the controller. mss and initial stay fields, so every
// product and sum of them rounds at run time as it always did.
func newReno() *reno {
	return &reno{mss: mss, initial: initialSsthresh}
}

// open resets the window for a new connection.
func (c *reno) open() {
	c.cwnd = 2 * c.mss
	c.ssthresh = c.initial
}

// window returns the congestion window in bytes.
func (c *reno) window() float64 { return c.cwnd }

// onNewAck grows the window for a new cumulative ACK outside recovery
// (slow start below ssthresh, congestion avoidance above).
func (c *reno) onNewAck() {
	if c.cwnd < c.ssthresh {
		c.cwnd += c.mss // slow start
	} else {
		c.cwnd += c.mss * c.mss / c.cwnd
	}
}

// onDupAckInRecovery inflates the window by one segment while fast
// recovery is in progress.
func (c *reno) onDupAckInRecovery() { c.cwnd += c.mss }

// enterRecovery reacts to a triple duplicate ACK: halve ssthresh against
// the bytes in flight and set the inflated recovery window.
func (c *reno) enterRecovery(inflight float64) {
	c.ssthresh = max64(inflight/2, 2*c.mss)
	c.cwnd = c.ssthresh + float64(3*c.mss) // rounded: no fused multiply-add
}

// onPartialAck deflates the window by the newly-acked bytes during
// recovery (the sender retransmits the next hole itself).
func (c *reno) onPartialAck(acked float64) {
	c.cwnd -= acked
	if c.cwnd < c.mss {
		c.cwnd = c.mss
	}
}

// exitRecovery deflates the window back to ssthresh.
func (c *reno) exitRecovery() { c.cwnd = c.ssthresh }

// onTimeout reacts to an RTO: halve ssthresh against the bytes in flight
// and collapse the window to one segment.
func (c *reno) onTimeout(inflight float64) {
	c.ssthresh = max64(inflight/2, 2*c.mss)
	c.cwnd = c.mss
}

// onIdleRestart applies slow-start restart after an idle period.
func (c *reno) onIdleRestart() { c.cwnd = 2 * c.mss }
