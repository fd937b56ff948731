// Package rcc plays the role rcc (the router configuration checker)
// plays in PL-VINI (Sections 4 and 6.2): it parses router configuration
// files from an operational network, statically checks them for faults,
// extracts the topology and OSPF weights, and drives the generation of
// the matching VINI experiment — "PL-VINI's current machinery for
// mirroring the Abilene topology automatically generates the necessary
// XORP and Click configurations ... from the actual Abilene routing
// configuration".
//
// The accepted configuration dialect is a compact IOS-like format:
//
//	hostname dnvr
//	!
//	interface so-0/0/0
//	 description "to kscy"
//	 ip address 10.9.1.1/30
//	 ip ospf cost 639
//	 delay 5.5ms
//	!
//	router ospf
//	 hello-interval 5
//	 dead-interval 10
//
// The non-standard "delay" line carries the measured propagation delay a
// VINI embedding needs; real configurations omit it.
package rcc

import (
	"fmt"
	"net/netip"
	"sort"
	"strconv"
	"strings"
	"time"

	"vini/internal/topology"
)

// InterfaceConfig is one parsed interface stanza.
type InterfaceConfig struct {
	Name        string
	Description string
	Addr        netip.Addr
	Prefix      netip.Prefix
	OSPFCost    uint32
	Delay       time.Duration
	Bandwidth   float64
}

// RouterConfig is one parsed router configuration file.
type RouterConfig struct {
	Hostname   string
	Interfaces []InterfaceConfig
	// HelloInterval/DeadInterval are the router's OSPF timers in seconds.
	HelloInterval, DeadInterval int
}

// Parse reads one router configuration.
func Parse(text string) (*RouterConfig, error) {
	rc := &RouterConfig{}
	var curIf *InterfaceConfig
	inOSPF := false
	flush := func() {
		if curIf != nil {
			rc.Interfaces = append(rc.Interfaces, *curIf)
			curIf = nil
		}
	}
	for lineNo, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "!") || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		fail := func(format string, args ...any) error {
			return fmt.Errorf("rcc: line %d: %s", lineNo+1, fmt.Sprintf(format, args...))
		}
		switch {
		case fields[0] == "hostname" && len(fields) == 2:
			flush()
			inOSPF = false
			rc.Hostname = fields[1]
		case fields[0] == "interface" && len(fields) == 2:
			flush()
			inOSPF = false
			curIf = &InterfaceConfig{Name: fields[1]}
		case fields[0] == "router" && len(fields) == 2 && fields[1] == "ospf":
			flush()
			inOSPF = true
		case fields[0] == "description":
			if curIf == nil {
				return nil, fail("description outside interface")
			}
			curIf.Description = strings.Trim(strings.TrimSpace(strings.TrimPrefix(line, "description")), `"`)
		case fields[0] == "ip" && len(fields) >= 3 && fields[1] == "address":
			if curIf == nil {
				return nil, fail("ip address outside interface")
			}
			p, err := netip.ParsePrefix(fields[2])
			if err != nil {
				return nil, fail("bad address %q", fields[2])
			}
			curIf.Addr = p.Addr()
			curIf.Prefix = p.Masked()
		case fields[0] == "ip" && len(fields) == 4 && fields[1] == "ospf" && fields[2] == "cost":
			if curIf == nil {
				return nil, fail("ospf cost outside interface")
			}
			c, err := strconv.ParseUint(fields[3], 10, 32)
			if err != nil || c == 0 {
				return nil, fail("bad cost %q", fields[3])
			}
			curIf.OSPFCost = uint32(c)
		case fields[0] == "delay" && len(fields) == 2:
			if curIf == nil {
				return nil, fail("delay outside interface")
			}
			d, err := time.ParseDuration(fields[1])
			if err != nil || d < 0 {
				return nil, fail("bad delay %q", fields[1])
			}
			curIf.Delay = d
		case fields[0] == "bandwidth" && len(fields) == 2:
			if curIf == nil {
				return nil, fail("bandwidth outside interface")
			}
			b, err := strconv.ParseFloat(fields[1], 64)
			if err != nil || b <= 0 {
				return nil, fail("bad bandwidth %q", fields[1])
			}
			curIf.Bandwidth = b
		case inOSPF && fields[0] == "hello-interval" && len(fields) == 2:
			v, err := strconv.Atoi(fields[1])
			if err != nil || v <= 0 {
				return nil, fail("bad hello-interval %q", fields[1])
			}
			rc.HelloInterval = v
		case inOSPF && fields[0] == "dead-interval" && len(fields) == 2:
			v, err := strconv.Atoi(fields[1])
			if err != nil || v <= 0 {
				return nil, fail("bad dead-interval %q", fields[1])
			}
			rc.DeadInterval = v
		default:
			return nil, fail("unrecognized statement %q", line)
		}
	}
	flush()
	if rc.Hostname == "" {
		return nil, fmt.Errorf("rcc: configuration has no hostname")
	}
	return rc, nil
}

// Problem is one fault found by static analysis, in rcc's two classes:
// route-validity and visibility faults reduce here to link-level
// inconsistencies between the two ends of each subnet.
type Problem struct {
	Router string
	Iface  string
	Msg    string
}

func (p Problem) String() string {
	return fmt.Sprintf("%s %s: %s", p.Router, p.Iface, p.Msg)
}

// Check statically analyses a set of router configurations.
func Check(configs []*RouterConfig) []Problem {
	var out []Problem
	type end struct {
		router, iface string
		cfg           InterfaceConfig
	}
	bySubnet := map[netip.Prefix][]end{}
	seenAddr := map[netip.Addr]string{}
	for _, rc := range configs {
		for _, ifc := range rc.Interfaces {
			if !ifc.Addr.IsValid() {
				out = append(out, Problem{rc.Hostname, ifc.Name, "no ip address"})
				continue
			}
			if prev, dup := seenAddr[ifc.Addr]; dup {
				out = append(out, Problem{rc.Hostname, ifc.Name,
					fmt.Sprintf("address %v also configured on %s", ifc.Addr, prev)})
			}
			seenAddr[ifc.Addr] = rc.Hostname
			bySubnet[ifc.Prefix] = append(bySubnet[ifc.Prefix], end{rc.Hostname, ifc.Name, ifc})
		}
	}
	subnets := make([]netip.Prefix, 0, len(bySubnet))
	for p := range bySubnet {
		subnets = append(subnets, p)
	}
	sort.Slice(subnets, func(i, j int) bool { return subnets[i].String() < subnets[j].String() })
	for _, p := range subnets {
		ends := bySubnet[p]
		switch {
		case len(ends) == 1:
			out = append(out, Problem{ends[0].router, ends[0].iface,
				fmt.Sprintf("subnet %v has no far end (dangling link)", p)})
		case len(ends) == 2:
			if ends[0].cfg.OSPFCost != ends[1].cfg.OSPFCost {
				out = append(out, Problem{ends[0].router, ends[0].iface,
					fmt.Sprintf("asymmetric OSPF cost %d vs %d on %s",
						ends[0].cfg.OSPFCost, ends[1].cfg.OSPFCost, ends[1].router)})
			}
		default:
			out = append(out, Problem{ends[0].router, ends[0].iface,
				fmt.Sprintf("subnet %v has %d ends (point-to-point expected)", p, len(ends))})
		}
	}
	return out
}

// BuildTopology assembles a topology graph by matching interfaces that
// share a /30, carrying OSPF costs and measured delays onto the links.
func BuildTopology(configs []*RouterConfig) (*topology.Graph, error) {
	if probs := Check(configs); len(probs) > 0 {
		return nil, fmt.Errorf("rcc: configuration faults: %v", probs[0])
	}
	g := topology.New()
	type end struct {
		router string
		cfg    InterfaceConfig
	}
	bySubnet := map[netip.Prefix][]end{}
	for _, rc := range configs {
		g.AddNode(rc.Hostname)
		for _, ifc := range rc.Interfaces {
			bySubnet[ifc.Prefix] = append(bySubnet[ifc.Prefix], end{rc.Hostname, ifc})
		}
	}
	subnets := make([]netip.Prefix, 0, len(bySubnet))
	for p := range bySubnet {
		subnets = append(subnets, p)
	}
	sort.Slice(subnets, func(i, j int) bool { return subnets[i].String() < subnets[j].String() })
	for _, p := range subnets {
		ends := bySubnet[p]
		if len(ends) != 2 {
			continue // Check guarantees this cannot happen
		}
		bw := ends[0].cfg.Bandwidth
		if bw == 0 {
			bw = 10e9
		}
		if err := g.AddLink(topology.Link{
			A: ends[0].router, B: ends[1].router,
			CostAB: ends[0].cfg.OSPFCost, CostBA: ends[1].cfg.OSPFCost,
			Delay: max(ends[0].cfg.Delay, ends[1].cfg.Delay), Bandwidth: bw,
		}); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Timers extracts the (consistent) OSPF timers across the configs,
// defaulting to the paper's 5/10 seconds.
func Timers(configs []*RouterConfig) (hello, dead time.Duration, err error) {
	h, d := 0, 0
	for _, rc := range configs {
		if rc.HelloInterval != 0 {
			if h != 0 && h != rc.HelloInterval {
				return 0, 0, fmt.Errorf("rcc: inconsistent hello-interval (%d vs %d)", h, rc.HelloInterval)
			}
			h = rc.HelloInterval
		}
		if rc.DeadInterval != 0 {
			if d != 0 && d != rc.DeadInterval {
				return 0, 0, fmt.Errorf("rcc: inconsistent dead-interval (%d vs %d)", d, rc.DeadInterval)
			}
			d = rc.DeadInterval
		}
	}
	if h == 0 {
		h = 5
	}
	if d == 0 {
		d = 10
	}
	return time.Duration(h) * time.Second, time.Duration(d) * time.Second, nil
}
