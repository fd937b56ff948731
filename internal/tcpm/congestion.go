package tcpm

// Reno is the classic Reno controller, the window-based half of the
// workload runtime's rate seam (the datagram half is
// traffic.RateController): it owns the congestion window and ssthresh,
// and the Sender drives it with the ACK/loss events of the Reno state
// machine. The window is float64 state whose every update is a fixed
// sequence of IEEE-754 ops on values derived from the simulation, so the
// same event sequence reproduces the same window bit-for-bit.
type Reno struct {
	mss      float64
	initial  float64
	cwnd     float64
	ssthresh float64
}

// NewReno builds the controller from an endpoint config (defaults
// already applied).
func NewReno(cfg Config) *Reno {
	return &Reno{mss: float64(cfg.MSS), initial: float64(cfg.InitialSsthresh)}
}

// Open resets the window for a new connection.
func (c *Reno) Open() {
	c.cwnd = 2 * c.mss
	c.ssthresh = c.initial
}

// Window returns the congestion window in bytes.
func (c *Reno) Window() float64 { return c.cwnd }

// OnNewAck grows the window for a new cumulative ACK outside recovery
// (slow start below ssthresh, congestion avoidance above).
func (c *Reno) OnNewAck() {
	if c.cwnd < c.ssthresh {
		c.cwnd += c.mss // slow start
	} else {
		c.cwnd += c.mss * c.mss / c.cwnd
	}
}

// OnDupAckInRecovery inflates the window by one segment while fast
// recovery is in progress.
func (c *Reno) OnDupAckInRecovery() { c.cwnd += c.mss }

// EnterRecovery reacts to a triple duplicate ACK: halve ssthresh against
// the bytes in flight and set the inflated recovery window.
func (c *Reno) EnterRecovery(inflight float64) {
	c.ssthresh = max64(inflight/2, 2*c.mss)
	c.cwnd = c.ssthresh + 3*c.mss
}

// OnPartialAck deflates the window by the newly-acked bytes during
// recovery (the sender retransmits the next hole itself).
func (c *Reno) OnPartialAck(acked float64) {
	c.cwnd -= acked
	if c.cwnd < c.mss {
		c.cwnd = c.mss
	}
}

// ExitRecovery deflates the window back to ssthresh.
func (c *Reno) ExitRecovery() { c.cwnd = c.ssthresh }

// OnTimeout reacts to an RTO: halve ssthresh against the bytes in flight
// and collapse the window to one segment.
func (c *Reno) OnTimeout(inflight float64) {
	c.ssthresh = max64(inflight/2, 2*c.mss)
	c.cwnd = c.mss
}

// OnIdleRestart applies slow-start restart after an idle period.
func (c *Reno) OnIdleRestart() { c.cwnd = 2 * c.mss }
