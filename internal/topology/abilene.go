package topology

import (
	"strconv"
	"time"
)

// Abilene PoP names as used in the paper's Figure 7.
const (
	Seattle      = "seattle"
	Sunnyvale    = "sunnyvale"
	LosAngeles   = "los-angeles"
	Denver       = "denver"
	KansasCity   = "kansas-city"
	Houston      = "houston"
	Indianapolis = "indianapolis"
	Chicago      = "chicago"
	Atlanta      = "atlanta"
	Washington   = "washington"
	NewYork      = "new-york"
)

// AbileneRouterCode maps PoP names to the Abilene router codes that appear
// in the router configurations internal/rcc parses.
var AbileneRouterCode = map[string]string{
	Seattle:      "sttl",
	Sunnyvale:    "snva",
	LosAngeles:   "losa",
	Denver:       "dnvr",
	KansasCity:   "kscy",
	Houston:      "hstn",
	Indianapolis: "ipls",
	Chicago:      "chin",
	Atlanta:      "atla",
	Washington:   "wash",
	NewYork:      "nycm",
}

// Abilene returns the 11-PoP Abilene (Internet2) backbone of 2006 with its
// published IS-IS/OSPF link metrics. One-way propagation delays are
// calibrated so the paper's Section 5 numbers emerge:
//
//   - Washington–Seattle via New York, Chicago, Indianapolis, Kansas City,
//     Denver sums to 38 ms one-way (the paper's 76 ms default-path RTT);
//   - the post-failure path via Atlanta, Houston, Los Angeles, Sunnyvale
//     sums to 46.5 ms (93 ms RTT);
//   - the Chicago–New York and New York–Washington segments carry the
//     20.2 ms and 4.5 ms RTTs of the paper's Figure 5.
//
// With these metrics Dijkstra selects exactly the default and post-failure
// paths reported in the paper, and the transient mixed paths during
// convergence land near the observed 110 ms and 87 ms RTTs.
func Abilene() *Graph {
	g := New()
	ms := func(f float64) time.Duration { return time.Duration(f * float64(time.Millisecond)) }
	const gbps10 = 10e9 // OC-192 backbone
	links := []Link{
		{A: Chicago, B: Indianapolis, CostAB: 260, Delay: ms(2.5), Bandwidth: gbps10},
		{A: Chicago, B: NewYork, CostAB: 700, Delay: ms(10.1), Bandwidth: gbps10},
		{A: Denver, B: KansasCity, CostAB: 639, Delay: ms(5.5), Bandwidth: gbps10},
		{A: Denver, B: Sunnyvale, CostAB: 1295, Delay: ms(11.0), Bandwidth: gbps10},
		{A: Denver, B: Seattle, CostAB: 2095, Delay: ms(12.65), Bandwidth: gbps10},
		{A: Houston, B: Atlanta, CostAB: 1045, Delay: ms(10.0), Bandwidth: gbps10},
		{A: Houston, B: KansasCity, CostAB: 817, Delay: ms(8.0), Bandwidth: gbps10},
		{A: Houston, B: LosAngeles, CostAB: 1893, Delay: ms(17.0), Bandwidth: gbps10},
		{A: Indianapolis, B: Atlanta, CostAB: 714, Delay: ms(6.0), Bandwidth: gbps10},
		{A: Indianapolis, B: KansasCity, CostAB: 548, Delay: ms(5.0), Bandwidth: gbps10},
		{A: LosAngeles, B: Sunnyvale, CostAB: 366, Delay: ms(4.0), Bandwidth: gbps10},
		{A: NewYork, B: Washington, CostAB: 233, Delay: ms(2.25), Bandwidth: gbps10},
		{A: Atlanta, B: Washington, CostAB: 846, Delay: ms(7.5), Bandwidth: gbps10},
		{A: Sunnyvale, B: Seattle, CostAB: 861, Delay: ms(8.0), Bandwidth: gbps10},
	}
	for _, l := range links {
		if err := g.AddLink(l); err != nil {
			panic(err) // static data; cannot fail
		}
	}
	return g
}

// AbilenePublicAddr returns the public (tunnel-endpoint) IPv4 address
// assigned to the PlanetLab node co-located at the given Abilene PoP, in
// the 198.32.154/24 block the paper's Figure 2 uses.
func AbilenePublicAddr(pop string) (string, bool) {
	idx := map[string]int{
		Seattle:      41,
		Sunnyvale:    42,
		LosAngeles:   43,
		Denver:       44,
		KansasCity:   45,
		Houston:      46,
		Indianapolis: 47,
		Chicago:      48,
		Atlanta:      49,
		Washington:   50,
		NewYork:      51,
	}
	i, ok := idx[pop]
	if !ok {
		return "", false
	}
	return "198.32.154." + strconv.Itoa(i), true
}
