package traffic

import (
	"net/netip"
	"time"

	"vini/internal/netem"
	"vini/internal/sim"
	"vini/internal/tcpm"
)

// IperfTCPConfig parameterizes a TCP throughput test (iperf -c ... -P n).
type IperfTCPConfig struct {
	// Streams is the number of parallel connections (the paper uses 20).
	Streams int
	// Window is the per-stream receive window (iperf default 16 KB).
	Window int
	// BasePort is the first server port; stream i uses BasePort+i.
	BasePort uint16
	// SrcAddr/DstAddr override the node primary addresses (set them to
	// the tap0 addresses to run over an IIAS overlay).
	SrcAddr, DstAddr netip.Addr
}

// IperfTCP is a running TCP test.
type IperfTCP struct {
	loop      *sim.Loop
	senders   []*tcpm.Sender
	receivers []*tcpm.Receiver
	clientEP  *endpoint
	serverEP  *endpoint
	running   bool
	closed    bool
	started   time.Duration
	stoppedAt time.Duration
}

// StartIperfTCP attaches stream endpoints to the client and server nodes
// and starts unbounded transfers; call Stop then Mbps after running the
// loop for the measurement duration.
func StartIperfTCP(w *netem.Network, client, server *netem.Node, cfg IperfTCPConfig) (*IperfTCP, error) {
	if cfg.Streams <= 0 {
		cfg.Streams = 1
	}
	if cfg.BasePort == 0 {
		cfg.BasePort = 5001
	}
	src := client.Addr()
	if cfg.SrcAddr.IsValid() {
		src = cfg.SrcAddr
	}
	dst := server.Addr()
	if cfg.DstAddr.IsValid() {
		dst = cfg.DstAddr
	}
	loop := w.Loop()
	t := &IperfTCP{loop: loop, started: loop.Now(),
		clientEP: newEndpoint(client), serverEP: newEndpoint(server)}
	tcpCfg := tcpm.Config{RcvWnd: cfg.Window}
	for i := 0; i < cfg.Streams; i++ {
		sport := cfg.BasePort + uint16(i) + 1000
		dport := cfg.BasePort + uint16(i)
		// Each endpoint's protocol machine runs on its own node's
		// domain clock.
		rcv := tcpm.NewReceiver(server.Clock(), tcpCfg, dst, dport, server.StackSendPacket)
		if err := t.serverEP.listenTCP(dport, rcv.Deliver); err != nil {
			t.Close()
			return nil, err
		}
		snd := tcpm.NewSender(client.Clock(), tcpCfg, src, sport, dst, dport, client.StackSendPacket)
		if err := t.clientEP.listenTCP(sport, snd.Deliver); err != nil {
			t.Close()
			return nil, err
		}
		t.senders = append(t.senders, snd)
		t.receivers = append(t.receivers, rcv)
		snd.Start(0)
	}
	t.running = true
	return t, nil
}

// Stop ends the test (senders stop transmitting).
func (t *IperfTCP) Stop() {
	if !t.running {
		return
	}
	t.running = false
	t.stoppedAt = t.loop.Now()
	for _, s := range t.senders {
		s.Stop()
	}
}

// Close stops the test, cancels the receivers' pending delayed-ACK
// timers, and releases every stream's port registration.
func (t *IperfTCP) Close() {
	t.Stop()
	if t.closed {
		return
	}
	t.closed = true
	for _, r := range t.receivers {
		r.Close()
	}
	t.clientEP.close()
	t.serverEP.close()
}

// Mbps returns aggregate goodput over the test interval.
func (t *IperfTCP) Mbps() float64 {
	end := t.stoppedAt
	if end == 0 {
		end = t.loop.Now()
	}
	elapsed := (end - t.started).Seconds()
	if elapsed <= 0 {
		return 0
	}
	var bytes uint64
	for _, r := range t.receivers {
		bytes += r.Bytes
	}
	return float64(bytes) * 8 / elapsed / 1e6
}

// Retransmits totals sender retransmissions across streams.
func (t *IperfTCP) Retransmits() uint64 {
	var n uint64
	for _, s := range t.senders {
		n += s.Retransmits
	}
	return n
}

// Receivers exposes the stream receivers (arrival logs for Figure 9).
func (t *IperfTCP) Receivers() []*tcpm.Receiver { return t.receivers }
