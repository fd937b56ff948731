package experiment

import (
	"fmt"
	"net/netip"
	"sort"
	"strconv"
	"strings"
	"time"

	"vini/internal/core"
	"vini/internal/netem"
	"vini/internal/topology"
	"vini/internal/traffic"
)

// Spec is a parsed experiment specification — the ns-like description
// language Section 6.2 calls for, covering topology, routing
// configuration, traffic, and scheduled events:
//
//	# Mirror Abilene and fail Denver-Kansas City.
//	topology abilene
//	slice iias reservation 0.25 rt
//	ospf hello 5s dead 10s
//	ping washington seattle interval 200ms
//	iperf-tcp washington seattle window 16384
//	udp-cbr washington seattle rate 10M
//	adaptive washington seattle rate 200k
//	at 12s rate washington seattle 4M
//	at 10s fail-virtual denver kansas-city
//	at 34s restore-virtual denver kansas-city
//	at 20s fail-physical denver kansas-city
//	at 25s reembed
//	at 28s migrate denver sunnyvale
//	at 30s pause
//	at 35s resume
//	at 45s teardown
//	duration 50s
type Spec struct {
	Topology string // "abilene" or "line <n1> <n2> ..."
	LineVia  []string
	// Spares are topology nodes left out of the slice embedding — free
	// substrate capacity available as live-migration targets.
	Spares []string
	Slice  core.SliceConfig
	// Protocol is "ospf" or "rip".
	Protocol    string
	Hello, Dead time.Duration
	RIPUpdate   time.Duration
	Events      []Event
	Traffic     []TrafficSpec
	Duration    time.Duration
	Warmup      time.Duration
	Seed        int64
}

// Event is one scheduled action.
type Event struct {
	At time.Duration
	// Action is a link action (fail-virtual, restore-virtual,
	// fail-physical, restore-physical) with A and B set, a live
	// migration (migrate, A = vnode, B = target physical node), a
	// slice lifecycle action (pause, resume, teardown, reembed)
	// without endpoints, or a traffic retarget (rate, A/B name a
	// udp-cbr flow's endpoints and Rate is the new bits/s).
	Action string
	A, B   string
	// Rate is the new target for a rate action, bits/s.
	Rate float64
}

// TrafficSpec is one measurement flow.
type TrafficSpec struct {
	Kind     string // ping, iperf-tcp, udp-cbr, adaptive
	Src, Dst string
	Interval time.Duration
	Window   int
	RateBps  float64
	Streams  int
}

// ParseSpec reads a specification.
func ParseSpec(text string) (*Spec, error) {
	sp := &Spec{
		Protocol: "ospf",
		Hello:    5 * time.Second, Dead: 10 * time.Second,
		RIPUpdate: 30 * time.Second,
		Duration:  50 * time.Second,
		Warmup:    60 * time.Second,
		Seed:      1,
		Slice:     core.SliceConfig{Name: "experiment", CPUShare: 0.25, RT: true},
	}
	for lineNo, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		fail := func(format string, args ...any) error {
			return fmt.Errorf("spec: line %d: %s", lineNo+1, fmt.Sprintf(format, args...))
		}
		switch f[0] {
		case "topology":
			if len(f) < 2 {
				return nil, fail("topology needs a name")
			}
			sp.Topology = f[1]
			switch f[1] {
			case "line", "ring":
				if len(f) < 4 {
					return nil, fail("%s topology needs at least two nodes", f[1])
				}
				sp.LineVia = f[2:]
			case "star":
				if len(f) < 4 {
					return nil, fail("star topology needs a hub and at least one leaf")
				}
				sp.LineVia = f[2:] // hub first
			case "abilene":
			default:
				return nil, fail("unknown topology %q", f[1])
			}
		case "slice":
			if len(f) < 2 {
				return nil, fail("slice needs a name")
			}
			sp.Slice.Name = f[1]
			for i := 2; i < len(f); i++ {
				switch f[i] {
				case "rt":
					sp.Slice.RT = true
				case "share", "reservation":
					if i+1 >= len(f) {
						return nil, fail("%s needs a value", f[i])
					}
					v, err := strconv.ParseFloat(f[i+1], 64)
					if err != nil || v <= 0 || v > 1 {
						return nil, fail("bad CPU share %q", f[i+1])
					}
					sp.Slice.CPUShare = v
					i++
				case "expose-failures":
					sp.Slice.ExposePhysicalFailures = true
				default:
					return nil, fail("unknown slice option %q", f[i])
				}
			}
		case "ospf":
			sp.Protocol = "ospf"
			if err := parseKVDurations(f[1:], map[string]*time.Duration{
				"hello": &sp.Hello, "dead": &sp.Dead}); err != nil {
				return nil, fail("%v", err)
			}
		case "rip":
			sp.Protocol = "rip"
			if err := parseKVDurations(f[1:], map[string]*time.Duration{
				"update": &sp.RIPUpdate}); err != nil {
				return nil, fail("%v", err)
			}
		case "ping", "iperf-tcp", "udp-cbr", "adaptive":
			if len(f) < 3 {
				return nil, fail("%s needs src and dst", f[0])
			}
			ts := TrafficSpec{Kind: f[0], Src: f[1], Dst: f[2],
				Interval: 200 * time.Millisecond, Window: 16 << 10,
				RateBps: 1e6, Streams: 1}
			for i := 3; i < len(f); i += 2 {
				if i+1 == len(f) {
					return nil, fail("%s option %q needs a value", f[0], f[i])
				}
				switch f[i] {
				case "interval":
					d, err := time.ParseDuration(f[i+1])
					if err != nil {
						return nil, fail("bad interval %q", f[i+1])
					}
					ts.Interval = d
				case "window":
					n, err := strconv.Atoi(f[i+1])
					if err != nil || n <= 0 {
						return nil, fail("bad window %q", f[i+1])
					}
					ts.Window = n
				case "streams":
					n, err := strconv.Atoi(f[i+1])
					if err != nil || n <= 0 {
						return nil, fail("bad streams %q", f[i+1])
					}
					ts.Streams = n
				case "rate":
					r, err := parseRate(f[i+1])
					if err != nil {
						return nil, fail("bad rate %q", f[i+1])
					}
					ts.RateBps = r
				default:
					return nil, fail("unknown traffic option %q", f[i])
				}
			}
			sp.Traffic = append(sp.Traffic, ts)
		case "at":
			if len(f) < 3 || len(f) > 6 {
				return nil, fail("at <time> <action> [<a> <b> [<rate>]]")
			}
			d, err := time.ParseDuration(f[1])
			if err != nil {
				return nil, fail("bad time %q", f[1])
			}
			ev := Event{At: d, Action: f[2]}
			switch f[2] {
			case "rate":
				if len(f) != 6 {
					return nil, fail("rate needs <src> <dst> <rate>")
				}
				ev.A, ev.B = f[3], f[4]
				r, err := parseRate(f[5])
				if err != nil {
					return nil, fail("bad rate %q", f[5])
				}
				ev.Rate = r
			case "fail-virtual", "restore-virtual", "fail-physical", "restore-physical":
				if len(f) != 5 {
					return nil, fail("%s needs <a> <b>", f[2])
				}
				ev.A, ev.B = f[3], f[4]
			case "migrate":
				if len(f) != 5 {
					return nil, fail("migrate needs <vnode> <target>")
				}
				ev.A, ev.B = f[3], f[4]
			case "pause", "resume", "teardown", "reembed":
				// Slice lifecycle actions take no endpoints.
				if len(f) != 3 {
					return nil, fail("%s takes no arguments", f[2])
				}
			default:
				return nil, fail("unknown action %q", f[2])
			}
			sp.Events = append(sp.Events, ev)
		case "spare":
			if len(f) < 2 {
				return nil, fail("spare needs at least one node")
			}
			sp.Spares = append(sp.Spares, f[1:]...)
		case "duration":
			if len(f) < 2 {
				return nil, fail("duration needs a value")
			}
			d, err := time.ParseDuration(f[1])
			if err != nil || d <= 0 {
				return nil, fail("bad duration %q", f[1])
			}
			sp.Duration = d
		case "warmup":
			if len(f) < 2 {
				return nil, fail("warmup needs a value")
			}
			d, err := time.ParseDuration(f[1])
			if err != nil || d <= 0 {
				return nil, fail("bad warmup %q", f[1])
			}
			sp.Warmup = d
		case "seed":
			if len(f) < 2 {
				return nil, fail("seed needs a value")
			}
			n, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				return nil, fail("bad seed %q", f[1])
			}
			sp.Seed = n
		default:
			return nil, fail("unknown directive %q", f[0])
		}
	}
	if sp.Topology == "" {
		return nil, fmt.Errorf("spec: no topology directive")
	}
	return sp, nil
}

func parseKVDurations(fields []string, keys map[string]*time.Duration) error {
	for i := 0; i < len(fields); i += 2 {
		if i+1 == len(fields) {
			return fmt.Errorf("option %q needs a value", fields[i])
		}
		dst, ok := keys[fields[i]]
		if !ok {
			return fmt.Errorf("unknown option %q", fields[i])
		}
		d, err := time.ParseDuration(fields[i+1])
		if err != nil || d <= 0 {
			return fmt.Errorf("bad duration %q", fields[i+1])
		}
		*dst = d
	}
	return nil
}

// parseRate accepts "10M", "500k", "1G", or plain bits/s.
func parseRate(s string) (float64, error) {
	mult := 1.0
	switch {
	case strings.HasSuffix(s, "G"):
		mult, s = 1e9, strings.TrimSuffix(s, "G")
	case strings.HasSuffix(s, "M"):
		mult, s = 1e6, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "k"), strings.HasSuffix(s, "K"):
		mult, s = 1e3, s[:len(s)-1]
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || v <= 0 {
		return 0, fmt.Errorf("bad rate")
	}
	return v * mult, nil
}

// Result collects a run's measurements.
type Result struct {
	Pings     []PingRun
	TCPs      []TCPRun
	CBRs      []CBRRun
	Adaptives []AdaptiveRun
	// Log records event applications.
	Log []string
}

// PingRun is the outcome of one ping flow.
type PingRun struct {
	Src, Dst                     string
	Timeline                     []RTTPoint
	Min, Avg, Max, Mdev, LossPct float64
}

// TCPRun is the outcome of one TCP flow.
type TCPRun struct {
	Src, Dst string
	Mbps     float64
	Arrivals []ArrivalPoint
}

// CBRRun is the outcome of one CBR flow.
type CBRRun struct {
	Src, Dst string
	LossPct  float64
	JitterMs float64
	Sent     uint32
	Received uint32
}

// AdaptiveRun is the outcome of one adaptive flow: the final bandwidth
// estimate and the estimate-vs-actual controller trace.
type AdaptiveRun struct {
	Src, Dst    string
	EstimateBps float64
	Sent        uint32
	Received    uint64
	Trace       []RateTracePoint
}

// RateTracePoint is one controller update, relative to traffic start.
type RateTracePoint struct {
	T           float64 // seconds since traffic start
	EstimateBps float64
	ActualBps   float64
}

// nodeAddr is the public address of the i-th substrate node: an Abilene
// PoP's published one, 198.51.100.<i+1> for any other name.
func nodeAddr(i int, name string) netip.Addr {
	addr, ok := topology.AbilenePublicAddr(name)
	if !ok {
		addr = fmt.Sprintf("198.51.100.%d", i+1)
	}
	return netip.MustParseAddr(addr)
}

// Run executes the specification and returns its measurements.
func (sp *Spec) Run() (*Result, error) {
	v := core.New(sp.Seed)
	var g *topology.Graph
	switch sp.Topology {
	case "abilene":
		g = topology.Abilene()
	case "line", "ring":
		g = topology.New()
		for i := 0; i+1 < len(sp.LineVia); i++ {
			g.AddLink(topology.Link{A: sp.LineVia[i], B: sp.LineVia[i+1],
				CostAB: 1, Delay: 5 * time.Millisecond, Bandwidth: 1e9})
		}
		if sp.Topology == "ring" && len(sp.LineVia) > 2 {
			g.AddLink(topology.Link{A: sp.LineVia[len(sp.LineVia)-1], B: sp.LineVia[0],
				CostAB: 1, Delay: 5 * time.Millisecond, Bandwidth: 1e9})
		}
	case "star":
		g = topology.New()
		hub := sp.LineVia[0]
		for _, leaf := range sp.LineVia[1:] {
			g.AddLink(topology.Link{A: hub, B: leaf,
				CostAB: 1, Delay: 5 * time.Millisecond, Bandwidth: 1e9})
		}
	default:
		return nil, fmt.Errorf("spec: unknown topology %q", sp.Topology)
	}
	nodes, links := g.Nodes(), g.Links()
	if err := v.AddTopology(nodes, links, netem.PlanetLabProfile(), nodeAddr); err != nil {
		return nil, err
	}
	s, err := v.CreateSlice(sp.Slice)
	if err != nil {
		return nil, err
	}
	// Spare nodes stay out of the embedding: free substrate capacity
	// that scheduled migrate actions can move vnodes onto.
	spare := map[string]bool{}
	for _, n := range sp.Spares {
		spare[n] = true
	}
	if err := s.Mirror(nodes, links, spare); err != nil {
		return nil, err
	}
	switch sp.Protocol {
	case "ospf":
		s.StartOSPF(sp.Hello, sp.Dead)
	case "rip":
		s.StartRIP(sp.RIPUpdate)
	}
	v.Run(sp.Warmup)
	t0 := v.Loop().Now()
	res := &Result{}
	// rateTargets lets scheduled rate actions retune a udp-cbr flow's
	// rate at runtime; populated when traffic starts (before any
	// event can fire).
	rateTargets := map[string]*traffic.UDPCBR{}
	// Schedule events.
	for _, ev := range sp.Events {
		ev := ev
		v.Loop().Schedule(ev.At, func() {
			res.Log = append(res.Log, strings.TrimSpace(fmt.Sprintf("t=%s %s %s %s",
				ev.At, ev.Action, ev.A, ev.B)))
			switch ev.Action {
			case "fail-virtual", "restore-virtual":
				if vl, ok := s.FindVirtualLink(ev.A, ev.B); ok {
					vl.SetFailed(ev.Action == "fail-virtual")
				}
			case "fail-physical":
				v.FailLink(ev.A, ev.B, 100*time.Millisecond)
			case "restore-physical":
				v.RestoreLink(ev.A, ev.B, 100*time.Millisecond)
			case "pause":
				if err := s.Pause(); err != nil {
					res.Log = append(res.Log, "pause: "+err.Error())
				}
			case "resume":
				if err := s.Resume(); err != nil {
					res.Log = append(res.Log, "resume: "+err.Error())
				}
			case "teardown":
				if err := s.Destroy(); err != nil {
					res.Log = append(res.Log, "teardown: "+err.Error())
				}
			case "reembed":
				if n, err := s.ReEmbed(); err != nil {
					res.Log = append(res.Log, "reembed: "+err.Error())
				} else {
					res.Log = append(res.Log, fmt.Sprintf("reembed moved %d links", n))
				}
			case "migrate":
				if m, err := s.Migrate(ev.A, ev.B, core.MigrateOptions{}); err != nil {
					res.Log = append(res.Log, "migrate: "+err.Error())
				} else {
					res.Log = append(res.Log, fmt.Sprintf("migrate %s -> %s window opened", m.From(), m.To()))
				}
			case "rate":
				if c, ok := rateTargets[ev.A+" "+ev.B]; ok {
					c.SetRate(ev.Rate)
				} else {
					res.Log = append(res.Log, fmt.Sprintf("rate: no udp-cbr flow %s -> %s", ev.A, ev.B))
				}
			}
		})
	}
	// Start traffic.
	type pingHandle struct {
		ts TrafficSpec
		p  *traffic.Ping
	}
	type tcpHandle struct {
		ts TrafficSpec
		t  *traffic.IperfTCP
	}
	type cbrHandle struct {
		ts TrafficSpec
		c  *traffic.UDPCBR
	}
	type adaptiveHandle struct {
		ts TrafficSpec
		a  *traffic.Adaptive
	}
	var pings []pingHandle
	var tcps []tcpHandle
	var cbrs []cbrHandle
	var adaptives []adaptiveHandle
	hosts := map[string]*traffic.ICMPHost{}
	hostFor := func(n *netem.Node) *traffic.ICMPHost {
		if h, ok := hosts[n.Name()]; ok {
			return h
		}
		h := traffic.NewICMPHost(n)
		hosts[n.Name()] = h
		return h
	}
	for _, ts := range sp.Traffic {
		src, ok := s.VirtualNode(ts.Src)
		if !ok {
			return nil, fmt.Errorf("spec: traffic source %q not in topology", ts.Src)
		}
		dst, ok := s.VirtualNode(ts.Dst)
		if !ok {
			return nil, fmt.Errorf("spec: traffic destination %q not in topology", ts.Dst)
		}
		switch ts.Kind {
		case "ping":
			hostFor(dst.Phys())
			h := hostFor(src.Phys())
			p := h.StartPing(traffic.PingConfig{
				Src: src.TapAddr, Dst: dst.TapAddr, Interval: ts.Interval,
				Count: int(sp.Duration/ts.Interval) + 1})
			pings = append(pings, pingHandle{ts, p})
		case "iperf-tcp":
			t, err := traffic.StartIperfTCP(v.Net, src.Phys(), dst.Phys(), traffic.IperfTCPConfig{
				Streams: ts.Streams, Window: ts.Window,
				SrcAddr: src.TapAddr, DstAddr: dst.TapAddr,
				BasePort: uint16(5001 + 100*len(tcps))})
			if err != nil {
				return nil, err
			}
			tcps = append(tcps, tcpHandle{ts, t})
		case "udp-cbr":
			c, err := traffic.StartUDPCBR(v.Net, src.Phys(), dst.Phys(), traffic.UDPCBRConfig{
				RateBps: ts.RateBps, SrcAddr: src.TapAddr, DstAddr: dst.TapAddr,
				Port: uint16(6001 + 100*len(cbrs))})
			if err != nil {
				return nil, err
			}
			rateTargets[ts.Src+" "+ts.Dst] = c
			cbrs = append(cbrs, cbrHandle{ts, c})
		case "adaptive":
			a, err := traffic.StartAdaptive(v.Net, src.Phys(), dst.Phys(), traffic.AdaptiveConfig{
				InitBps: ts.RateBps, SrcAddr: src.TapAddr, DstAddr: dst.TapAddr,
				Port:      uint16(7001 + 100*len(adaptives)),
				Telemetry: v.Telemetry()})
			if err != nil {
				return nil, err
			}
			adaptives = append(adaptives, adaptiveHandle{ts, a})
		}
	}
	v.Run(t0 + sp.Duration)
	for _, h := range tcps {
		h.t.Stop()
	}
	for _, h := range cbrs {
		h.c.Stop()
	}
	for _, h := range adaptives {
		h.a.Stop()
	}
	v.Run(t0 + sp.Duration + 3*time.Second)
	// Collect.
	for _, h := range pings {
		pr := PingRun{Src: h.ts.Src, Dst: h.ts.Dst,
			Min: h.p.RTTs.Min(), Avg: h.p.RTTs.Mean(), Max: h.p.RTTs.Max(),
			Mdev: h.p.RTTs.Mdev(), LossPct: 100 * h.p.LossRate()}
		for _, smp := range h.p.Timeline {
			pr.Timeline = append(pr.Timeline, RTTPoint{
				T:     (smp.At - t0).Seconds(),
				RTTms: float64(smp.RTT) / float64(time.Millisecond),
				Lost:  smp.Lost})
		}
		sort.Slice(pr.Timeline, func(i, j int) bool { return pr.Timeline[i].T < pr.Timeline[j].T })
		res.Pings = append(res.Pings, pr)
	}
	for _, h := range tcps {
		tr := TCPRun{Src: h.ts.Src, Dst: h.ts.Dst, Mbps: h.t.Mbps()}
		var cum float64
		for _, a := range h.t.Receivers()[0].Arrivals {
			cum += float64(a.Len)
			tr.Arrivals = append(tr.Arrivals, ArrivalPoint{T: (a.At - t0).Seconds(), MB: cum / 1e6})
		}
		res.TCPs = append(res.TCPs, tr)
	}
	for _, h := range cbrs {
		res.CBRs = append(res.CBRs, CBRRun{Src: h.ts.Src, Dst: h.ts.Dst,
			LossPct: 100 * h.c.LossRate(), JitterMs: h.c.Jitter(),
			Sent: h.c.Sent(), Received: h.c.Received()})
	}
	for _, h := range adaptives {
		ar := AdaptiveRun{Src: h.ts.Src, Dst: h.ts.Dst,
			EstimateBps: h.a.EstimateBps(), Sent: h.a.Sent(), Received: h.a.Received()}
		for _, pt := range h.a.Trace {
			ar.Trace = append(ar.Trace, RateTracePoint{
				T: (pt.At - t0).Seconds(), EstimateBps: pt.EstimateBps, ActualBps: pt.ActualBps})
		}
		res.Adaptives = append(res.Adaptives, ar)
	}
	return res, nil
}
