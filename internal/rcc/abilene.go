package rcc

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"vini/internal/topology"
)

// AbileneConfigs renders the eleven Abilene router configurations (one
// per PoP, keyed by router code) from the published topology — the
// "configuration state of the eleven Abilene routers" the paper extracts
// to drive its Section 5.2 experiment. Parsing them back through this
// package reproduces topology.Abilene() exactly, which is what the rcc
// tests assert.
func AbileneConfigs() map[string]string {
	g := topology.Abilene()
	// Assign one /30 per link out of 10.9.0.0/16 in a stable order.
	links := g.Links()
	sort.Slice(links, func(i, j int) bool {
		if links[i].A != links[j].A {
			return links[i].A < links[j].A
		}
		return links[i].B < links[j].B
	})
	type ifaceLine struct {
		peer  string
		addr  string
		cost  uint32
		delay time.Duration
		bw    float64
	}
	byRouter := map[string][]ifaceLine{}
	for i, l := range links {
		subnet := i * 4
		aAddr := fmt.Sprintf("10.9.%d.%d/30", subnet/256, subnet%256+1)
		bAddr := fmt.Sprintf("10.9.%d.%d/30", subnet/256, subnet%256+2)
		byRouter[l.A] = append(byRouter[l.A], ifaceLine{peer: l.B, addr: aAddr,
			cost: l.CostAB, delay: l.Delay, bw: l.Bandwidth})
		byRouter[l.B] = append(byRouter[l.B], ifaceLine{peer: l.A, addr: bAddr,
			cost: l.CostBA, delay: l.Delay, bw: l.Bandwidth})
	}
	out := make(map[string]string, len(g.Nodes()))
	for _, pop := range g.Nodes() {
		code := topology.AbileneRouterCode[pop]
		var b strings.Builder
		fmt.Fprintf(&b, "hostname %s\n", code)
		for i, ifc := range byRouter[pop] {
			peerCode := topology.AbileneRouterCode[ifc.peer]
			fmt.Fprintf(&b, "!\ninterface so-0/%d/0\n", i)
			fmt.Fprintf(&b, " description \"to %s\"\n", peerCode)
			fmt.Fprintf(&b, " ip address %s\n", ifc.addr)
			fmt.Fprintf(&b, " ip ospf cost %d\n", ifc.cost)
			fmt.Fprintf(&b, " delay %s\n", ifc.delay)
			fmt.Fprintf(&b, " bandwidth %.0f\n", ifc.bw)
		}
		b.WriteString("!\nrouter ospf\n hello-interval 5\n dead-interval 10\n")
		out[code] = b.String()
	}
	return out
}

// ParseAbilene parses the AbileneConfigs in sorted router-code order.
// The order is part of the result: BuildTopology numbers nodes (and so
// the executor numbers domains) in config order, and map iteration order
// would make same-seed runs diverge.
func ParseAbilene() ([]*RouterConfig, error) {
	files := AbileneConfigs()
	codes := make([]string, 0, len(files))
	for code := range files {
		codes = append(codes, code)
	}
	sort.Strings(codes)
	configs := make([]*RouterConfig, 0, len(codes))
	for _, code := range codes {
		rc, err := Parse(files[code])
		if err != nil {
			return nil, fmt.Errorf("config %s: %w", code, err)
		}
		configs = append(configs, rc)
	}
	return configs, nil
}

// PopForCode inverts topology.AbileneRouterCode.
func PopForCode(code string) (string, bool) {
	for pop, c := range topology.AbileneRouterCode {
		if c == code {
			return pop, true
		}
	}
	return "", false
}
