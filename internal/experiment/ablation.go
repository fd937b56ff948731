package experiment

import (
	"fmt"
	"net/netip"
	"time"

	"vini/internal/bgp"
	"vini/internal/core"
	"vini/internal/netem"
	"vini/internal/sim"
	"vini/internal/traffic"
)

// The ablations isolate the design choices DESIGN.md calls out: which
// of PL-VINI's two scheduler knobs buys what (Section 4.1.2), how the
// socket buffer sets Figure 6's loss knee, how per-packet cost scales
// with size (the Table 2 cost model), and what the Section 6.1 BGP
// multiplexer saves the external network.

// IsolationRow is one CPU-isolation configuration's outcome.
type IsolationRow struct {
	Name     string
	Mbps     float64
	PingMdev float64
	PingMax  float64
}

// CPUIsolationAblation decomposes PL-VINI's gain over the default share
// into its two mechanisms: the 25% CPU reservation (capacity) and
// real-time priority (latency). The paper's Section 5.1.2 asserts the
// reservation buys throughput while the priority boost buys scheduling
// latency; the four rows verify each knob in isolation.
func CPUIsolationAblation(seed int64, duration time.Duration, pings int) ([]IsolationRow, error) {
	configs := []struct {
		name  string
		share float64
		rt    bool
	}{
		{"default share", 1.0 / 40, false},
		{"reservation only", 0.25, false},
		{"RT priority only", 1.0 / 40, true},
		{"reservation + RT (PL-VINI)", 0.25, true},
	}
	var out []IsolationRow
	for _, cfg := range configs {
		slice := &core.SliceConfig{Name: "iias", CPUShare: cfg.share, RT: cfg.rt}
		// Throughput leg.
		tb, err := planetlab(seed, netem.PlanetLabProfile(), slice)
		if err != nil {
			return nil, err
		}
		test, err := traffic.StartIperfTCP(tb.v.Net, tb.src, tb.dst, traffic.IperfTCPConfig{
			Streams: 20, Window: 16 << 10, SrcAddr: tb.srcA, DstAddr: tb.dstA})
		if err != nil {
			return nil, err
		}
		tb.v.Run(tb.v.Loop().Now() + duration)
		test.Stop()
		// Latency leg (fresh deployment so the iperf load does not skew it).
		if tb, err = planetlab(seed+1, netem.PlanetLabProfile(), slice); err != nil {
			return nil, err
		}
		p := tb.ping(cfg.name, 20*time.Millisecond, pings, 5*time.Second)
		out = append(out, IsolationRow{Name: cfg.name, Mbps: test.Mbps(), PingMdev: p.Mdev, PingMax: p.Max})
	}
	return out, nil
}

// BufferRow is one socket-buffer size's Figure-6 loss.
type BufferRow struct {
	BufferKB int
	LossPct  float64
}

// SocketBufferAblation sweeps the forwarder's UDP receive buffer at a
// fixed 45 Mb/s CBR under the default share: the buffer's time depth
// (bytes ÷ rate) against the scheduling-latency tail sets the Figure 6
// loss knee.
func SocketBufferAblation(seed int64, bufsKB []int, duration time.Duration) ([]BufferRow, error) {
	var out []BufferRow
	for i, kb := range bufsKB {
		prof := netem.PlanetLabProfile()
		prof.SocketBuf = kb << 10
		tb, err := planetlab(seed+int64(i)*13, prof, &core.SliceConfig{Name: "iias", CPUShare: 1.0 / 40})
		if err != nil {
			return nil, err
		}
		c, err := tb.cbr(traffic.UDPCBRConfig{RateBps: 45e6}, duration, 2*time.Second)
		if err != nil {
			return nil, err
		}
		out = append(out, BufferRow{BufferKB: kb, LossPct: 100 * c.LossRate()})
	}
	return out, nil
}

// PacketSizeRow is one payload size's forwarding capacity.
type PacketSizeRow struct {
	PayloadBytes int
	Mbps         float64
	KppsMeasured float64
}

// PacketSizeAblation measures the user-space forwarder's capacity as a
// function of packet size on dedicated hardware: small packets are
// syscall-bound (flat packets/s), large packets add per-byte copy cost —
// the two terms of the Table 2 cost model.
func PacketSizeAblation(seed int64, payloads []int, duration time.Duration) ([]PacketSizeRow, error) {
	var out []PacketSizeRow
	for i, size := range payloads {
		tb, err := deter(seed+int64(i)*7, true)
		if err != nil {
			return nil, err
		}
		// Offered load far above capacity so the forwarder saturates.
		c, err := tb.cbr(traffic.UDPCBRConfig{RateBps: 900e6, Payload: size}, duration, time.Second)
		if err != nil {
			return nil, err
		}
		secs := duration.Seconds()
		mbps := float64(c.Received()) * float64(size+28) * 8 / secs / 1e6
		out = append(out, PacketSizeRow{
			PayloadBytes: size,
			Mbps:         mbps,
			KppsMeasured: float64(c.Received()) / secs / 1e3,
		})
	}
	return out, nil
}

// MuxRow compares external-session load with and without the mux.
type MuxRow struct {
	Experiments       int
	SessionsWithMux   int
	SessionsWithout   int
	RejectedHijacks   uint64
	RateLimitedFloods uint64
}

// BGPMuxAblation quantifies Section 6.1's argument: with N experiments,
// the external router maintains one session through the mux instead of
// N, and the mux absorbs hijacks and update floods before they reach
// the real Internet.
func BGPMuxAblation(nExperiments int) (MuxRow, error) {
	loop := sim.NewLoop(1)
	mux := bgp.NewMux(loop, bgp.MuxConfig{ASN: 64600, RouterID: 1,
		NextHopSelf: netip.MustParseAddr("198.32.154.1"), HoldTime: 30 * time.Second})
	for i := 0; i < nExperiments; i++ {
		block := netip.PrefixFrom(netip.AddrFrom4([4]byte{198, 32, byte(i * 16), 0}), 20)
		if err := mux.Register(fmt.Sprintf("exp%d", i), block, 1, 2); err != nil {
			return MuxRow{}, err
		}
	}
	// Every experiment announces its block; one tries a hijack; one floods.
	for i := 0; i < nExperiments; i++ {
		block := netip.PrefixFrom(netip.AddrFrom4([4]byte{198, 32, byte(i * 16), 0}), 24)
		mux.Announce(fmt.Sprintf("exp%d", i), block, bgp.PathAttrs{})
	}
	mux.Announce("exp0", netip.MustParsePrefix("0.0.0.0/0"), bgp.PathAttrs{}) // hijack attempt
	for i := 0; i < 20; i++ {                                                 // update flood
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{198, 32, 1, 0}), 24)
		mux.Announce("exp0", p, bgp.PathAttrs{})
	}
	return MuxRow{
		Experiments:       nExperiments,
		SessionsWithMux:   1,
		SessionsWithout:   nExperiments,
		RejectedHijacks:   mux.Rejected,
		RateLimitedFloods: mux.RateDropped,
	}, nil
}
