package traffic

// Demand-driven traffic: a REPETITA demand matrix becomes a set of UDP
// CBR flows, one per origin-destination pair, each running at the
// matrix rate (optionally scaled). The caller maps topology node names
// to concrete endpoints — for overlay experiments that is the slice's
// virtual node taps, for substrate experiments the physical nodes
// themselves — so the generator stays ignorant of slice structure.

import (
	"fmt"
	"net/netip"

	"vini/internal/netem"
	"vini/internal/topology"
)

// DemandEndpoint resolves a demand-matrix node name to the physical
// node that hosts the sender/receiver and the address traffic should
// use (a slice tap address for overlay flows). ok=false skips the
// demand, which the result counts.
type DemandEndpoint func(name string) (node *netem.Node, addr netip.Addr, ok bool)

// DemandConfig tunes the flow set.
type DemandConfig struct {
	// Scale multiplies every matrix rate (default 1.0). Scenarios with
	// hundreds of concurrent flows scale down to keep event counts
	// tractable.
	Scale float64
	// Payload is the UDP payload size (default 256: scale runs favor
	// many small flows over the paper's 1430-byte iperf default).
	Payload int
	// basePort is the first receiver port; flow i listens on basePort+i.
	// Ports must be globally unique because a physical node may host
	// many receivers. The default 20001 keeps the whole span below the
	// slice tunnel-port space; only a test moves it.
	basePort uint16
}

// minDemandBps floors each flow's scaled rate so a tiny demand cannot
// produce near-zero packet rates with pathological interarrival times.
const minDemandBps = 8000

// DemandFlows is a running flow set.
type DemandFlows struct {
	Flows []*UDPCBR
	// OfferedBps is the total scaled offered load.
	OfferedBps float64
	// Skipped counts demands whose endpoints did not resolve.
	Skipped int
}

// StartDemands launches one CBR flow per demand. The flow order (and
// so port assignment) follows the matrix order, keeping runs
// deterministic.
func StartDemands(w *netem.Network, m *topology.DemandMatrix, ep DemandEndpoint, cfg DemandConfig) (*DemandFlows, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 1.0
	}
	if cfg.basePort == 0 {
		cfg.basePort = 20001
	}
	if cfg.Payload == 0 {
		cfg.Payload = 256
	}
	if int(cfg.basePort)+len(m.Demands) > 32768 {
		return nil, fmt.Errorf("traffic: %d demands from port %d overrun the flow port space",
			len(m.Demands), cfg.basePort)
	}
	out := &DemandFlows{Flows: make([]*UDPCBR, 0, len(m.Demands))}
	for i, d := range m.Demands {
		srcNode, srcAddr, ok := ep(d.Src)
		if !ok {
			out.Skipped++
			continue
		}
		dstNode, dstAddr, ok := ep(d.Dst)
		if !ok {
			out.Skipped++
			continue
		}
		rate := d.RateBps * cfg.Scale
		if rate < minDemandBps {
			rate = minDemandBps
		}
		f, err := StartUDPCBR(w, srcNode, dstNode, UDPCBRConfig{
			RateBps: rate, Payload: cfg.Payload,
			Port:    cfg.basePort + uint16(i),
			SrcAddr: srcAddr, DstAddr: dstAddr,
		})
		if err != nil {
			return nil, fmt.Errorf("traffic: demand %d (%s->%s): %w", i, d.Src, d.Dst, err)
		}
		out.OfferedBps += rate
		out.Flows = append(out.Flows, f)
	}
	return out, nil
}

// Stop halts every sender.
func (s *DemandFlows) Stop() {
	for _, f := range s.Flows {
		f.Stop()
	}
}

// Close halts every sender and releases every receiver registration.
func (s *DemandFlows) Close() {
	for _, f := range s.Flows {
		f.Close()
	}
}

// Sent sums datagrams emitted across the flow set.
func (s *DemandFlows) Sent() uint64 {
	var n uint64
	for _, f := range s.Flows {
		n += uint64(f.Sent())
	}
	return n
}

// Delivered sums datagrams received across the flow set.
func (s *DemandFlows) Delivered() uint64 {
	var n uint64
	for _, f := range s.Flows {
		n += uint64(f.Received())
	}
	return n
}
