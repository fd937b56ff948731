package simtest

import (
	"fmt"
	"time"

	"vini/internal/core"
	"vini/internal/sim"
)

// genTopology draws a random connected virtual topology: a uniform
// random spanning tree over n nodes plus a few extra edges, every
// choice taken from the scenario RNG so the whole shape replays from
// the seed.
type genLink struct {
	a, b int
	cost uint32
}

func genTopology(rng *sim.RNG, n int) []genLink {
	var links []genLink
	seen := make(map[[2]int]bool)
	add := func(a, b int, cost uint32) bool {
		if a == b {
			return false
		}
		if a > b {
			a, b = b, a
		}
		k := [2]int{a, b}
		if seen[k] {
			return false
		}
		seen[k] = true
		links = append(links, genLink{a: a, b: b, cost: cost})
		return true
	}
	// Random attachment tree keeps every node reachable.
	for i := 1; i < n; i++ {
		add(i, rng.Intn(i), 1+uint32(rng.Intn(10)))
	}
	// Extra edges create the alternate paths failures reroute onto.
	extra := rng.Intn(n)
	for i := 0; i < extra; i++ {
		add(rng.Intn(n), rng.Intn(n), 1+uint32(rng.Intn(10)))
	}
	return links
}

// scenario is one generated world: substrate, the slice mirrored on
// it, and per-node delivery counters for the traffic probes.
type scenario struct {
	*world
	*overlay
	rng   *sim.RNG
	nodes []string
	// crashed marks nodes whose every incident link is failed.
	crashed []bool
	// withRIP runs RIP alongside OSPF, enabling route-flip events.
	withRIP bool
	// delivered counts probe datagrams that reached each node's stack.
	delivered []int
	// probeSent sequences probe source ports so every probe is distinct.
	probeSent int
}

// buildScenario constructs the world for a seed. Every random draw
// comes from a single RNG stream, so construction order is the replay
// discipline: never reorder these calls without a compatibility note.
func buildScenario(opts baseOptions) (*scenario, error) {
	if opts.minNodes == 0 {
		opts.minNodes = 3
	}
	if opts.maxNodes == 0 {
		opts.maxNodes = 8
	}
	if opts.maxNodes < opts.minNodes {
		return nil, fmt.Errorf("simtest: maxNodes %d < minNodes %d", opts.maxNodes, opts.minNodes)
	}
	rng := sim.NewRNG(opts.seed)
	n := opts.minNodes + rng.Intn(opts.maxNodes-opts.minNodes+1)
	sc := &scenario{
		world:     newWorld("base", &Outcome{}, opts.seed, opts.workers),
		rng:       rng,
		crashed:   make([]bool, n),
		delivered: make([]int, n),
	}
	links := genTopology(rng, n)
	nodes, err := sc.genSubstrate(rng, n, links, 1, 10)
	if err != nil {
		return nil, err
	}
	sc.nodes = nodes
	if sc.overlay, err = sc.embed(core.SliceConfig{Name: "simtest", CPUShare: 1.0}, nodes, links); err != nil {
		return nil, err
	}
	// Every node listens for probe datagrams on its kernel stack.
	for i, vn := range sc.vnode {
		if err := vn.Phys().StackListenUDP(probePort, func([]byte) { sc.delivered[i]++ }); err != nil {
			return nil, err
		}
	}
	sc.withRIP = rng.Bool(0.4)
	sc.slice.StartOSPF(time.Second, 3*time.Second)
	if sc.withRIP {
		sc.slice.StartRIP(5 * time.Second)
	}
	sc.baseline()
	return sc, nil
}

// event kinds drawn by the failure/recovery schedule.
const (
	evFailLink = iota
	evRestoreLink
	evCrashNode
	evRestoreNode
	evRouteFlip
	evKinds
)

// nextEvent mutates the world with one random failure/recovery step and
// returns its log line. It retries draws that are no-ops in the current
// state (e.g. restoring when nothing is failed).
func (sc *scenario) nextEvent() string {
	for attempt := 0; attempt < 16; attempt++ {
		switch sc.rng.Intn(evKinds) {
		case evFailLink:
			i := sc.rng.Intn(len(sc.vls))
			if sc.vls[i].Failed() {
				continue
			}
			sc.vls[i].SetFailed(true)
			return fmt.Sprintf("fail-link %s-%s", sc.nodes[sc.links[i].a], sc.nodes[sc.links[i].b])
		case evRestoreLink:
			i := sc.rng.Intn(len(sc.vls))
			l := sc.links[i]
			// Links into a crashed node stay down until the node restores.
			if !sc.vls[i].Failed() || sc.crashed[l.a] || sc.crashed[l.b] {
				continue
			}
			sc.vls[i].SetFailed(false)
			return fmt.Sprintf("restore-link %s-%s", sc.nodes[l.a], sc.nodes[l.b])
		case evCrashNode:
			i := sc.rng.Intn(len(sc.nodes))
			if sc.crashed[i] {
				continue
			}
			sc.crashed[i] = true
			for j, l := range sc.links {
				if l.a == i || l.b == i {
					sc.vls[j].SetFailed(true)
				}
			}
			return fmt.Sprintf("crash-node %s", sc.nodes[i])
		case evRestoreNode:
			i := sc.rng.Intn(len(sc.nodes))
			if !sc.crashed[i] {
				continue
			}
			sc.crashed[i] = false
			for j, l := range sc.links {
				if l.a == i || l.b == i {
					// The far end may itself be crashed.
					if sc.crashed[l.a] || sc.crashed[l.b] {
						continue
					}
					sc.vls[j].SetFailed(false)
				}
			}
			return fmt.Sprintf("restore-node %s", sc.nodes[i])
		case evRouteFlip:
			if !sc.withRIP {
				continue
			}
			proto := "rip"
			if sc.rng.Bool(0.5) {
				proto = "ospf"
			}
			sc.slice.SwitchProtocol(proto)
			return fmt.Sprintf("route-flip %s", proto)
		}
	}
	return "no-op"
}
