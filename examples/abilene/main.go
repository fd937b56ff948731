// Abilene mirror: the paper's Section 5.2 experiment end to end. The
// Abilene router configurations are parsed with the rcc machinery, the
// topology and OSPF weights drive a slice that mirrors the backbone, the
// Denver–Kansas City virtual link is failed inside Click at t=10 s and
// restored at t=34 s, and ping between Washington D.C. and Seattle shows
// OSPF convergence — Figure 8 as a program.
package main

import (
	"fmt"
	"strings"
	"time"

	"vini/internal/experiment"
	"vini/internal/topology"
	"vini/internal/traffic"
)

func main() {
	fmt.Println("building VINI from the Abilene router configurations (rcc)...")
	e, err := experiment.NewAbilene(2)
	if err != nil {
		panic(err)
	}
	fmt.Printf("overlay converged; OSPF hello %s, dead %s\n", e.Hello, e.Dead)
	fmt.Println("pinging washington -> seattle every 200 ms;")
	fmt.Println("failing denver--kansas-city inside Click at t=10 s, restoring at t=34 s")
	pts, err := e.Figure8()
	if err != nil {
		panic(err)
	}
	// Render an ASCII Figure 8: one row per second.
	const width = 50
	scale := func(rtt float64) int {
		// 70 ms..120 ms mapped onto the row.
		pos := int((rtt - 70) / 50 * width)
		if pos < 0 {
			pos = 0
		}
		if pos >= width {
			pos = width - 1
		}
		return pos
	}
	fmt.Printf("%6s  %-*s  %s\n", "t(s)", width, "70ms"+strings.Repeat(" ", width-9)+"120ms", "rtt")
	for sec := 0; sec < 50; sec += 1 {
		var rtts []float64
		lost := 0
		for _, p := range pts {
			if int(p.T) != sec {
				continue
			}
			if p.Lost {
				lost++
			} else {
				rtts = append(rtts, p.RTTms)
			}
		}
		row := []byte(strings.Repeat(".", width))
		label := ""
		for _, r := range rtts {
			row[scale(r)] = '*'
		}
		if len(rtts) > 0 {
			label = fmt.Sprintf("%.1f ms", rtts[len(rtts)-1])
		}
		if lost > 0 {
			label += fmt.Sprintf("  (%d lost)", lost)
		}
		fmt.Printf("%6d  %s  %s\n", sec, row, label)
	}
	fmt.Println("\npaper: 76 ms default path via New York/Chicago/Indianapolis/Kansas City/Denver;")
	fmt.Println("       93 ms failover via Atlanta/Houston/Los Angeles/Sunnyvale;")
	fmt.Println("       transient mixed paths appear briefly at each transition.")

	// Read the recovered default path back out hop by hop: each transit
	// Click's ICMPError element answers the TTL-limited probes.
	fmt.Println("\ntraceroute washington -> seattle (after restoration):")
	wash, _ := e.Slice.VirtualNode(topology.Washington)
	sea, _ := e.Slice.VirtualNode(topology.Seattle)
	h := traffic.NewICMPHost(wash.Phys())
	tr := h.StartTraceroute(traffic.TracerouteConfig{
		Src: wash.TapAddr, Dst: sea.TapAddr})
	e.V.Run(e.V.Loop().Now() + 60*time.Second)
	for _, hop := range tr.Hops {
		name := "?"
		for _, n := range e.Slice.VirtualNodes() {
			if vn, _ := e.Slice.VirtualNode(n); vn.TapAddr == hop.Addr {
				name = n
			}
		}
		fmt.Printf("  %2d  %-15v %-14s %.1f ms\n", hop.TTL, hop.Addr, name,
			float64(hop.RTT)/float64(time.Millisecond))
	}
}
