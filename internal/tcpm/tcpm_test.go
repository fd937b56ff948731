package tcpm

import (
	"net/netip"
	"testing"
	"time"

	"vini/internal/packet"
	"vini/internal/sim"
)

var (
	clientA = netip.MustParseAddr("10.0.0.1")
	serverA = netip.MustParseAddr("10.0.0.2")
)

// channel is a minimal network: one-way delay, optional bandwidth limit,
// and a programmable drop decision.
type channel struct {
	loop  *sim.Loop
	delay time.Duration
	bps   float64 // 0 = infinite
	drop  func(dir int, dgram []byte) bool
	busy  [2]time.Duration
	snd   *Sender
	rcv   *Receiver
}

func (c *channel) send(dir int, dgram []byte) {
	if c.drop != nil && c.drop(dir, dgram) {
		return
	}
	now := c.loop.Now()
	at := c.delay
	if c.bps > 0 {
		wire := time.Duration(float64(len(dgram)*8) / c.bps * float64(time.Second))
		if c.busy[dir] < now {
			c.busy[dir] = now
		}
		c.busy[dir] += wire
		at = c.busy[dir] - now + c.delay
	}
	buf := append([]byte(nil), dgram...)
	c.loop.Schedule(at, func() {
		if dir == 0 {
			c.rcv.Deliver(buf)
		} else {
			c.snd.Deliver(buf)
		}
	})
}

func newPair(loop *sim.Loop, cfg Config, delay time.Duration, bps float64) (*Sender, *Receiver, *channel) {
	ch := &channel{loop: loop, delay: delay, bps: bps}
	snd := NewSender(loop, cfg, clientA, 5001, serverA, 5002,
		func(p *packet.Packet) { ch.send(0, p.Data); p.Release() })
	rcv := NewReceiver(loop, cfg, serverA, 5002,
		func(p *packet.Packet) { ch.send(1, p.Data); p.Release() })
	ch.snd, ch.rcv = snd, rcv
	return snd, rcv, ch
}

func TestBulkTransferCompletes(t *testing.T) {
	loop := sim.NewLoop(1)
	snd, rcv, _ := newPair(loop, Config{}, 5*time.Millisecond, 0)
	snd.Start(1 << 20)
	loop.Run(60 * time.Second)
	if snd.state != "done" {
		t.Fatalf("transfer incomplete: acked=%d", snd.acked())
	}
	if rcv.Bytes != 1<<20 {
		t.Fatalf("receiver got %d bytes, want %d", rcv.Bytes, 1<<20)
	}
	if snd.Retransmits != 0 || snd.Timeouts != 0 {
		t.Fatalf("lossless path had retransmits=%d timeouts=%d", snd.Retransmits, snd.Timeouts)
	}
}

// TestWindowLimitedThroughput checks the Figure 9 premise: a 16 KB
// receive window over a 76 ms RTT caps throughput near rwnd/RTT.
func TestWindowLimitedThroughput(t *testing.T) {
	loop := sim.NewLoop(1)
	snd, _, _ := newPair(loop, Config{RcvWnd: 16 << 10}, 38*time.Millisecond, 0)
	snd.Start(0)
	start := loop.Now()
	loop.Run(20 * time.Second)
	elapsed := (loop.Now() - start).Seconds()
	mbps := float64(snd.acked()) * 8 / elapsed / 1e6
	// rwnd/RTT = 16384*8/0.076 = 1.72 Mb/s; allow slack for slow start
	// and delayed-ACK interactions.
	if mbps < 1.0 || mbps > 2.0 {
		t.Fatalf("window-limited throughput = %.2f Mb/s, want ~1.7", mbps)
	}
}

func TestBandwidthLimitedThroughput(t *testing.T) {
	loop := sim.NewLoop(1)
	// Big window, 10 Mb/s bottleneck, short RTT: the link is the cap.
	snd, _, _ := newPair(loop, Config{RcvWnd: 1 << 20}, time.Millisecond, 10e6)
	snd.Start(0)
	loop.Run(10 * time.Second)
	mbps := float64(snd.acked()) * 8 / 10 / 1e6
	if mbps < 8.5 || mbps > 10.1 {
		t.Fatalf("throughput = %.2f Mb/s, want ~9.6 (link-limited)", mbps)
	}
}

func TestFastRetransmitWithoutTimeout(t *testing.T) {
	loop := sim.NewLoop(1)
	dropped := false
	snd, rcv, ch := newPair(loop, Config{RcvWnd: 64 << 10}, 5*time.Millisecond, 0)
	ch.drop = func(dir int, dgram []byte) bool {
		// Drop exactly one mid-stream data segment.
		if dir != 0 || dropped {
			return false
		}
		var ip packet.IPv4
		seg, err := ip.Parse(dgram)
		if err != nil {
			return false
		}
		var th packet.TCP
		payload, err := th.Parse(seg)
		if err != nil || len(payload) == 0 {
			return false
		}
		if th.Seq > 100000 {
			dropped = true
			return true
		}
		return false
	}
	snd.Start(1 << 20)
	loop.Run(60 * time.Second)
	if snd.state != "done" || rcv.Bytes != 1<<20 {
		t.Fatalf("transfer incomplete: state=%s bytes=%d", snd.state, rcv.Bytes)
	}
	if !dropped {
		t.Fatal("test never dropped a segment")
	}
	if snd.Retransmits == 0 {
		t.Fatal("no retransmission recorded")
	}
	if snd.Timeouts != 0 {
		t.Fatalf("recovery used %d timeouts; fast retransmit expected", snd.Timeouts)
	}
}

func TestRandomLossRecovers(t *testing.T) {
	loop := sim.NewLoop(77)
	rng := loop.RNG().Fork()
	snd, rcv, ch := newPair(loop, Config{RcvWnd: 64 << 10}, 5*time.Millisecond, 0)
	ch.drop = func(dir int, dgram []byte) bool {
		return dir == 0 && len(dgram) > 100 && rng.Bool(0.02)
	}
	snd.Start(2 << 20)
	loop.Run(10 * time.Minute)
	if snd.state != "done" {
		t.Fatalf("transfer under 2%% loss incomplete: acked=%d retr=%d to=%d",
			snd.acked(), snd.Retransmits, snd.Timeouts)
	}
	if rcv.Bytes != 2<<20 {
		t.Fatalf("receiver bytes = %d", rcv.Bytes)
	}
	if snd.Retransmits == 0 {
		t.Fatal("no retransmissions under loss")
	}
}

// TestOutageStallAndSlowStartRestart reproduces the Figure 9 shape: a
// total outage stalls the stream; when the path heals the sender resumes
// from a slow-start window.
func TestOutageStallAndSlowStartRestart(t *testing.T) {
	loop := sim.NewLoop(1)
	outage := false
	snd, rcv, ch := newPair(loop, Config{RcvWnd: 16 << 10}, 38*time.Millisecond, 0)
	ch.drop = func(dir int, dgram []byte) bool { return outage }
	snd.Start(0)
	loop.Run(10 * time.Second)
	preBytes := rcv.Bytes
	if preBytes == 0 {
		t.Fatal("no progress before outage")
	}
	outage = true
	loop.Run(18 * time.Second)
	duringBytes := rcv.Bytes
	// Nothing (or almost nothing in flight) delivered during the outage.
	if duringBytes-preBytes > 64<<10 {
		t.Fatalf("%d bytes crossed a dead path", duringBytes-preBytes)
	}
	outage = false
	loop.Run(19 * time.Second)
	if int(snd.cc.window()) > 8*1448 {
		t.Fatalf("cwnd = %d right after restart, want slow-start-sized", int(snd.cc.window()))
	}
	loop.Run(30 * time.Second)
	if rcv.Bytes <= duringBytes {
		t.Fatal("stream did not resume after outage")
	}
	if snd.Timeouts == 0 {
		t.Fatal("outage should force RTO")
	}
	// The arrival log must show the gap: no arrivals in (10s, 18s).
	for _, a := range rcv.Arrivals {
		if a.At > 10500*time.Millisecond && a.At < 17800*time.Millisecond {
			t.Fatalf("arrival at %v during outage", a.At)
		}
	}
}

func TestArrivalLogMatchesByteStream(t *testing.T) {
	loop := sim.NewLoop(1)
	snd, rcv, _ := newPair(loop, Config{}, 2*time.Millisecond, 0)
	snd.Start(200 << 10)
	loop.Run(time.Minute)
	if len(rcv.Arrivals) == 0 {
		t.Fatal("no arrivals logged")
	}
	seen := uint32(0)
	for _, a := range rcv.Arrivals {
		if a.Offset+a.Len > seen {
			seen = a.Offset + a.Len
		}
	}
	if uint64(seen) != 200<<10 {
		t.Fatalf("arrival log covers %d bytes, want %d", seen, 200<<10)
	}
}

func TestStopAbandonsTransfer(t *testing.T) {
	loop := sim.NewLoop(1)
	snd, _, _ := newPair(loop, Config{}, 5*time.Millisecond, 0)
	snd.Start(0)
	loop.Run(time.Second)
	snd.Stop()
	acked := snd.acked()
	loop.Run(5 * time.Second)
	if snd.acked() != acked {
		t.Fatal("sender kept transmitting after Stop")
	}
}

func TestHandshakeRetriesUnderLoss(t *testing.T) {
	loop := sim.NewLoop(5)
	first := true
	snd, _, ch := newPair(loop, Config{}, 5*time.Millisecond, 0)
	ch.drop = func(dir int, dgram []byte) bool {
		if dir == 0 && first {
			first = false
			return true // drop the first SYN
		}
		return false
	}
	snd.Start(10 << 10)
	loop.Run(30 * time.Second)
	if snd.state != "done" {
		t.Fatal("transfer never completed after SYN loss")
	}
	if snd.Timeouts == 0 {
		t.Fatal("SYN loss must be recovered by timeout")
	}
}
