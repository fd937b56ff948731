package traffic

// Adaptive is the rate-adaptive workload: a delay-gradient bandwidth
// estimator in the style of congestion-responsive media stacks
// (GCC/BWE). The receiver
// measures each datagram's one-way delay from the common frame
// timestamp, smooths the per-packet delay gradient, and aggregates the
// delays per feedback window: the window mean above a sliding base
// delay is the standing queueing delay, and the window-to-window mean
// delta is the delay gradient the detector classifies on (robust to
// the per-packet jitter competing flows cause at a shared FIFO). The
// verdict drives an AIMD update on the bandwidth estimate
// (multiplicative decrease toward the measured delivery rate on
// over-use or heavy loss, additive increase when the queue is empty
// and the gradient flat). The estimate rides back to the sender in periodic
// feedback datagrams; the sender paces at the clamped estimate and
// decays multiplicatively when feedback stops arriving (reroute,
// blackout, paused overlay).
//
// Determinism: all controller state is float64, but every update is a
// fixed sequence of IEEE-754 double ops on values derived purely from
// simulated time and packet sizes, so the same event schedule
// reproduces the same floats bit-for-bit on any worker count. The
// telemetry projections (gauges, EvRate flight events, the Trace) round
// to int64 only at publication, never feeding back into the controller.

import (
	"encoding/binary"
	"math"
	"net/netip"
	"time"

	"vini/internal/netem"
	"vini/internal/packet"
	"vini/internal/sim"
	"vini/internal/telemetry"
)

// AdaptiveConfig parameterizes an adaptive flow.
type AdaptiveConfig struct {
	// Port is the server data port (default 5201). Feedback returns to
	// the sender's source port, Port+1000, on the client node.
	Port uint16
	// InitBps is the starting rate (default 200 kb/s).
	InitBps float64
	// SrcAddr/DstAddr override node primary addresses (tap0 for overlay).
	SrcAddr, DstAddr netip.Addr
	// Telemetry, when set, publishes the estimate-vs-actual and gradient
	// series (registry gauges under the "adaptive" slice label, EvRate
	// flight events).
	Telemetry *telemetry.Telemetry
	// DisableOveruse turns the over-use detector off — a sabotage hook
	// for mutation tests, which must see the convergence invariant trip.
	DisableOveruse bool
}

// The controller's constants.
const (
	// adaptivePayload is the UDP payload size in bytes.
	adaptivePayload = 1000
	// minBps and maxBps clamp the estimate.
	minBps, maxBps = 64_000, 100_000_000
	// incBps is the additive-increase step per feedback interval.
	incBps = 50_000
	// beta is the multiplicative-decrease factor applied to the measured
	// delivery rate on over-use.
	beta = 0.85
	// gradientThreshold classifies the windowed one-way-delay gradient
	// (this feedback window's mean OWD minus the previous window's):
	// above it the queue is building, below its negative it is draining.
	gradientThreshold = 2 * time.Millisecond
	// queueLow and queueHigh bound the standing queueing delay (window
	// mean OWD above the sliding base delay). Below queueLow the path is
	// under-utilized and the rate may grow; above queueHigh it is
	// over-used.
	queueLow, queueHigh = 15 * time.Millisecond, 40 * time.Millisecond
	// feedbackInterval is the receiver's report cadence.
	feedbackInterval = 100 * time.Millisecond
	// adaptiveSlice labels the telemetry series.
	adaptiveSlice = "adaptive"
)

func (c *AdaptiveConfig) setDefaults() {
	if c.Port == 0 {
		c.Port = 5201
	}
	if c.InitBps <= 0 {
		c.InitBps = 200_000
	}
}

// RatePoint is one sender-side controller sample, appended on every
// feedback application and every no-feedback decay — the
// estimate-vs-actual trace the adaptive figure plots.
type RatePoint struct {
	At time.Duration `json:"at_ns"`
	// EstimateBps is the rate the sender paces at after this update.
	EstimateBps float64 `json:"estimate_bps"`
	// ActualBps is the sender's measured send rate since the previous
	// point (0 on the first point and on decays during blackouts).
	ActualBps float64 `json:"actual_bps"`
	// DeliveredBps is the receiver-measured delivery rate carried in the
	// feedback (0 on decay points).
	DeliveredBps float64 `json:"delivered_bps"`
	// GradientNs is the receiver's windowed delay gradient (ns/window).
	GradientNs float64 `json:"gradient_ns"`
	// Decay marks a no-feedback timeout update.
	Decay bool `json:"decay,omitempty"`
}

// feedback wire format: estimate, delivered rate, windowed delay
// gradient (float64 bits each), then a state byte (0 normal /
// 1 overuse / 2 underuse).
const feedbackLen = 25

// baseWindows is how many feedback-window delay minima the sliding
// base-delay tracker keeps. The base adapts to a longer path (reroute)
// within baseWindows feedback intervals.
const baseWindows = 10

// Adaptive is a running adaptive flow.
type Adaptive struct {
	send sim.Clock // client domain
	recv sim.Clock // server domain
	cfg  AdaptiveConfig

	client   *netem.Node
	server   *netem.Node
	clientEP *endpoint
	serverEP *endpoint
	src, dst netip.Addr
	dataPort uint16
	fbPort   uint16

	active bool
	closed bool

	// ---- sender state (client domain only) ----
	rate       float64 // current pacing rate, bits/s
	seq        uint32
	sentBytes  uint64
	tickTimer  sim.Timer
	onTick     func() // a.tick bound once (no method value per datagram)
	watchTimer sim.Timer
	lastFB     time.Duration // sim time feedback was last applied
	lastPoint  time.Duration // sim time of the previous trace point
	lastSent   uint64        // sentBytes at the previous trace point
	// Trace is the estimate-vs-actual series; read it at a barrier.
	Trace []RatePoint
	// FeedbackRx and Decays count controller updates.
	FeedbackRx, Decays uint64

	// ---- receiver state (server domain only) ----
	rxCount   uint64 // datagrams this feedback window
	rxBytes   uint64 // payload+header bits source for delivery rate
	rxMaxSeq  uint32
	rxLastMax uint32
	havePrev  bool
	prevOWD   time.Duration
	gradNs    float64 // EWMA of per-packet OWD gradient, ns
	// Windowed delay statistics: the detector classifies on the window
	// mean OWD relative to a sliding base (min of the last baseWindows
	// window-minima) and on the window-to-window mean gradient, which
	// averages out the per-packet interleaving noise competing flows
	// cause at the bottleneck FIFO.
	winOWDSum   float64
	winOWDMin   time.Duration
	prevAvg     float64
	havePrevAvg bool
	baseRing    [baseWindows]time.Duration
	baseLen     int
	baseIdx     int
	est         float64 // receiver-side bandwidth estimate, bits/s
	state       uint8   // last detector verdict
	fbTimer     sim.Timer
	// Overuses and Underuses count detector verdicts (receiver side).
	Overuses, Underuses uint64
	// RxPackets counts data arrivals.
	RxPackets uint64

	// telemetry handles (nil-safe), registered at construction.
	tel        *telemetry.Telemetry
	gEstimate  *telemetry.Gauge
	gActual    *telemetry.Gauge
	gGradient  *telemetry.Gauge
	gDelivered *telemetry.Gauge
	cOveruse   *telemetry.Counter
	cUnderuse  *telemetry.Counter
	cFeedback  *telemetry.Counter
	cDecay     *telemetry.Counter
}

// StartAdaptive launches an adaptive flow from client to server. Stop
// halts both loops; Close also releases the data and feedback
// listeners.
func StartAdaptive(w *netem.Network, client, server *netem.Node, cfg AdaptiveConfig) (*Adaptive, error) {
	cfg.setDefaults()
	a := &Adaptive{
		send: client.Clock(), recv: server.Clock(), cfg: cfg,
		client: client, server: server,
		clientEP: newEndpoint(client), serverEP: newEndpoint(server),
		src: client.Addr(), dst: server.Addr(),
		dataPort: cfg.Port, fbPort: cfg.Port + 1000,
		rate: cfg.InitBps, est: cfg.InitBps,
		tel: cfg.Telemetry,
	}
	a.onTick = a.tick
	if cfg.SrcAddr.IsValid() {
		a.src = cfg.SrcAddr
	}
	if cfg.DstAddr.IsValid() {
		a.dst = cfg.DstAddr
	}
	if a.tel != nil {
		cs := a.tel.Reg.Scope(adaptiveSlice, client.Name()).With("adaptive/")
		ss := a.tel.Reg.Scope(adaptiveSlice, server.Name()).With("adaptive/")
		a.gEstimate = cs.Gauge("estimate_bps")
		a.gActual = cs.Gauge("actual_bps")
		a.cFeedback = cs.Counter("feedback_rx")
		a.cDecay = cs.Counter("decays")
		a.gGradient = ss.Gauge("gradient_ns")
		a.gDelivered = ss.Gauge("delivered_bps")
		a.cOveruse = ss.Counter("overuse")
		a.cUnderuse = ss.Counter("underuse")
	}
	if err := a.serverEP.listenUDP(a.dataPort, a.receiveData); err != nil {
		return nil, err
	}
	if err := a.clientEP.listenUDP(a.fbPort, a.receiveFeedback); err != nil {
		a.serverEP.close()
		return nil, err
	}
	a.start()
	return a, nil
}

// start begins (or resumes) the paced sender, the receiver's feedback
// loop, and the sender's no-feedback watchdog.
func (a *Adaptive) start() {
	if a.active || a.closed {
		return
	}
	a.active = true
	a.lastFB = a.send.Now()
	a.lastPoint = a.send.Now()
	a.lastSent = a.sentBytes
	a.tick()
	a.fbTimer = a.recv.Schedule(feedbackInterval, a.feedbackTick)
	a.watchTimer = a.send.Schedule(4*feedbackInterval, a.watchdog)
}

// Stop halts both loops, cancelling every pending timer.
func (a *Adaptive) Stop() {
	a.active = false
	for _, t := range []*sim.Timer{&a.tickTimer, &a.watchTimer, &a.fbTimer} {
		if !t.IsZero() {
			t.Stop()
			*t = sim.Timer{}
		}
	}
}

// Close stops the flow and releases both nodes' listeners.
func (a *Adaptive) Close() {
	a.Stop()
	if !a.closed {
		a.closed = true
		a.clientEP.close()
		a.serverEP.close()
	}
}

// EstimateBps returns the receiver's current bandwidth estimate.
func (a *Adaptive) EstimateBps() float64 { return a.est }

// GradientNs returns the receiver's smoothed delay gradient (ns/packet).
func (a *Adaptive) GradientNs() float64 { return a.gradNs }

// Sent returns the datagrams emitted.
func (a *Adaptive) Sent() uint32 { return a.seq }

// Received returns the datagrams delivered.
func (a *Adaptive) Received() uint64 { return a.RxPackets }

// ---- sender side (client domain) ----

func (a *Adaptive) tick() {
	if !a.active {
		return
	}
	sendFrame(a.client, a.src, a.dst, a.fbPort, a.dataPort,
		adaptivePayload, a.seq, a.send.Now())
	a.seq++
	wire := adaptivePayload + packet.UDPHeaderLen + packet.IPv4HeaderLen
	a.sentBytes += uint64(wire)
	a.tickTimer = a.send.Schedule(paceInterval(wire, a.rate), a.onTick)
}

// receiveFeedback applies a receiver report (client domain).
func (a *Adaptive) receiveFeedback(dgram []byte) {
	var ip packet.IPv4
	seg, err := ip.Parse(dgram)
	if err != nil {
		return
	}
	var u packet.UDP
	body, err := u.Parse(seg)
	if err != nil || len(body) < feedbackLen {
		return
	}
	est := f64frombits(body[0:8])
	delivered := f64frombits(body[8:16])
	grad := f64frombits(body[16:24])
	now := a.send.Now()
	a.FeedbackRx++
	a.cFeedback.Inc()
	a.lastFB = now
	a.rate = clamp(est, minBps, maxBps)
	a.point(now, delivered, grad, false)
}

// watchdog decays the rate multiplicatively while no feedback arrives —
// the sender must never run away open-loop (reroute, blackout, paused
// overlay).
func (a *Adaptive) watchdog() {
	if !a.active {
		return
	}
	now := a.send.Now()
	if now-a.lastFB >= 4*feedbackInterval {
		a.rate = clamp(a.rate*0.5, minBps, maxBps)
		a.Decays++
		a.cDecay.Inc()
		a.point(now, 0, 0, true)
	}
	a.watchTimer = a.send.Schedule(4*feedbackInterval, a.watchdog)
}

// point appends a trace sample and publishes the sender-side series.
func (a *Adaptive) point(now time.Duration, delivered, grad float64, decay bool) {
	actual := 0.0
	if dt := (now - a.lastPoint).Seconds(); dt > 0 {
		actual = float64(a.sentBytes-a.lastSent) * 8 / dt
	}
	a.lastPoint = now
	a.lastSent = a.sentBytes
	a.Trace = append(a.Trace, RatePoint{At: now, EstimateBps: a.rate,
		ActualBps: actual, DeliveredBps: delivered, GradientNs: grad, Decay: decay})
	a.gEstimate.Set(int64(a.rate))
	a.gActual.Set(int64(actual))
	if a.tel != nil {
		detail := "estimate"
		if decay {
			detail = "decay"
		}
		a.tel.Rec.Record(a.client.Domain(), telemetry.Event{
			Kind: telemetry.EvRate, Slice: adaptiveSlice, Node: a.client.Name(),
			Elem: "adaptive", Detail: detail, Value: int64(a.rate)})
	}
}

// ---- receiver side (server domain) ----

func (a *Adaptive) receiveData(dgram []byte) {
	var ip packet.IPv4
	seg, err := ip.Parse(dgram)
	if err != nil {
		return
	}
	var u packet.UDP
	body, err := u.Parse(seg)
	if err != nil {
		return
	}
	seq, sentAt, ok := parseFrame(body)
	if !ok {
		return
	}
	owd := a.recv.Now() - sentAt
	if a.havePrev {
		// EWMA of the per-packet one-way-delay gradient: the queueing
		// slope, positive while the bottleneck queue builds. Published
		// as telemetry; the detector itself classifies on windowed
		// statistics, which are robust to cross-traffic interleaving.
		// The division compiles to a multiply by 1/8; the conversion
		// rounds it so no architecture fuses it with the addition.
		g := float64(owd - a.prevOWD)
		a.gradNs += float64((g - a.gradNs) / 8)
	}
	a.havePrev = true
	a.prevOWD = owd
	a.RxPackets++
	a.rxCount++
	a.winOWDSum += float64(owd)
	if a.rxCount == 1 || owd < a.winOWDMin {
		a.winOWDMin = owd
	}
	a.rxBytes += uint64(len(body) + packet.UDPHeaderLen + packet.IPv4HeaderLen)
	if seq > a.rxMaxSeq {
		a.rxMaxSeq = seq
	}
}

// feedbackTick classifies the window and reports to the sender (server
// domain). Windows with no arrivals send nothing: the sender's watchdog
// owns the blackout response.
func (a *Adaptive) feedbackTick() {
	if !a.active {
		return
	}
	defer func() {
		a.fbTimer = a.recv.Schedule(feedbackInterval, a.feedbackTick)
	}()
	if a.rxCount == 0 {
		a.havePrev = false    // per-packet gradient baseline is stale
		a.havePrevAvg = false // so is the window-mean gradient
		return
	}
	delivered := float64(a.rxBytes) * 8 / feedbackInterval.Seconds()
	// Loss inside the window: sequence span vs. arrivals.
	span := a.rxMaxSeq - a.rxLastMax
	loss := 0.0
	if span > 0 {
		loss = 1 - float64(a.rxCount)/float64(span)
	}
	// Windowed delay statistics: the mean OWD over this window, the
	// sliding base delay (min of the last baseWindows window-minima, so
	// the base re-learns a longer path within a second), the standing
	// queueing delay above that base, and the window-to-window mean
	// gradient.
	avg := a.winOWDSum / float64(a.rxCount)
	a.baseRing[a.baseIdx] = a.winOWDMin
	a.baseIdx = (a.baseIdx + 1) % baseWindows
	if a.baseLen < baseWindows {
		a.baseLen++
	}
	base := a.baseRing[0]
	for i := 1; i < a.baseLen; i++ {
		if a.baseRing[i] < base {
			base = a.baseRing[i]
		}
	}
	q := avg - float64(base)
	wg := 0.0
	if a.havePrevAvg {
		wg = avg - a.prevAvg
	}
	a.prevAvg = avg
	a.havePrevAvg = true
	a.rxLastMax = a.rxMaxSeq
	a.rxCount = 0
	a.rxBytes = 0
	a.winOWDSum = 0
	a.winOWDMin = 0

	thresh := float64(gradientThreshold)
	qlo := float64(queueLow)
	qhi := float64(queueHigh)
	switch {
	case a.cfg.DisableOveruse:
		// Sabotage hook: with the detector off there is no over-use
		// verdict and no delivery-rate tether, so the estimate climbs
		// open-loop — the convergence and no-runaway invariants must
		// catch this.
		a.state = 0
		a.est = clamp(a.est+incBps, minBps, maxBps)
	case q > qhi || loss > 0.1 || (wg > thresh && q > qlo):
		// Over-use: a standing queue (or heavy loss) — multiplicative
		// decrease toward the measured delivery rate, floored at half
		// the current estimate so one noisy window cannot collapse the
		// flow to the minimum.
		a.state = 1
		a.Overuses++
		a.cOveruse.Inc()
		dec := beta * delivered
		if half := 0.5 * a.est; dec < half {
			dec = half
		}
		a.est = clamp(dec, minBps, maxBps)
	case q > qlo || wg < -thresh:
		// Under-use: the queue is draining (or still standing above the
		// low mark); hold until it flattens.
		a.state = 2
		a.Underuses++
		a.cUnderuse.Inc()
	default:
		// Normal: additive increase, capped against the measured
		// delivery rate so the estimate cannot detach from reality.
		a.state = 0
		a.est = clamp(min2(a.est+incBps, float64(1.25*delivered)+incBps),
			minBps, maxBps)
	}
	a.gGradient.Set(int64(wg))
	a.gDelivered.Set(int64(delivered))
	if a.tel != nil && a.state == 1 {
		a.tel.Rec.Record(a.server.Domain(), telemetry.Event{
			Kind: telemetry.EvRate, Slice: adaptiveSlice, Node: a.server.Name(),
			Elem: "adaptive", Detail: "overuse", Value: int64(a.est)})
	}

	body := make([]byte, feedbackLen)
	putF64bits(body[0:8], a.est)
	putF64bits(body[8:16], delivered)
	putF64bits(body[16:24], wg)
	body[24] = a.state
	a.server.StackSend(packet.BuildUDP(a.dst, a.src, a.dataPort, a.fbPort, 64, body))
}

// Feedback carries float64 state as raw IEEE-754 bits: the sender
// adopts the receiver's exact doubles, keeping the whole control loop's
// float state digest-stable across worker counts.
func putF64bits(b []byte, v float64) { binary.BigEndian.PutUint64(b, math.Float64bits(v)) }
func f64frombits(b []byte) float64   { return math.Float64frombits(binary.BigEndian.Uint64(b)) }

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func min2(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
