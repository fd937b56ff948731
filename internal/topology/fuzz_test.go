package topology

import (
	"math"
	"testing"
)

// FuzzRepetitaParse feeds arbitrary bytes to the .graph parser: it must
// error on malformed input (truncated sections, bad indices, NaN
// fields) and never panic; accepted input must yield a structurally
// sound graph.
func FuzzRepetitaParse(f *testing.F) {
	f.Add(sampleGraph)
	f.Add("NODES 1\nlabel x y\nA 0 0\nEDGES 0\nlabel src dest weight bw delay\n")
	f.Add("NODES 2\nlabel x y\nA 0 0\nB 1 1\nEDGES 1\nlabel src dest weight bw delay\ne 0 1 1 100 250\n")
	f.Add("NODES 2\nlabel x y\nA NaN 0\n")
	f.Add("NODES -3\nlabel x y\n")
	f.Add("EDGES 1\n")
	g64, _ := SynthRepetita(8, 4, 1)
	f.Add(g64)
	f.Fuzz(func(t *testing.T, text string) {
		g, names, err := ParseRepetita(text)
		if err != nil {
			return
		}
		if g == nil {
			t.Fatal("nil graph without error")
		}
		seen := make(map[string]bool, len(names))
		for _, n := range names {
			if !g.nodes[n] {
				t.Fatalf("name %q not in graph", n)
			}
			if seen[n] {
				t.Fatalf("duplicate node %q accepted", n)
			}
			seen[n] = true
		}
		for _, l := range g.Links() {
			if l.A == l.B {
				t.Fatalf("self-loop %q accepted", l.A)
			}
			if math.IsNaN(l.Bandwidth) || math.IsInf(l.Bandwidth, 0) || l.Bandwidth < 0 {
				t.Fatalf("non-finite bandwidth %v accepted", l.Bandwidth)
			}
			if l.Delay < 0 {
				t.Fatalf("negative delay %v accepted", l.Delay)
			}
		}
	})
}

// FuzzRepetitaDemands does the same for the .demands parser against a
// fixed node table.
func FuzzRepetitaDemands(f *testing.F) {
	f.Add(sampleDemands)
	f.Add("DEMANDS 1\nlabel src dest bw\nd 0 1 10\n")
	f.Add("DEMANDS 1\nlabel src dest bw\nd 0 1 NaN\n")
	f.Add("DEMANDS 2\nlabel src dest bw\nd 0 1 10\n")
	f.Add("DEMANDS 1\nlabel src dest bw\nd 7 0 10\n")
	_, d := SynthRepetita(8, 16, 1)
	f.Add(d)
	names := []string{"n0", "n1", "n2", "n3", "n4", "n5", "n6", "n7"}
	valid := make(map[string]bool, len(names))
	for _, n := range names {
		valid[n] = true
	}
	f.Fuzz(func(t *testing.T, text string) {
		m, err := ParseRepetitaDemands(text, names)
		if err != nil {
			return
		}
		for _, d := range m.Demands {
			if !valid[d.Src] || !valid[d.Dst] || d.Src == d.Dst {
				t.Fatalf("bad endpoints %+v accepted", d)
			}
			if math.IsNaN(d.RateBps) || math.IsInf(d.RateBps, 0) || d.RateBps < 0 {
				t.Fatalf("non-finite rate %v accepted", d.RateBps)
			}
		}
	})
}
