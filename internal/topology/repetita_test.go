package topology

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

const sampleGraph = `NODES 4
label x y
Vienna 16.37 48.22
Paris 2.35 48.85
Rome 12.49 41.90
Bern 7.44 46.95

EDGES 8
label src dest weight bw delay
edge_0 0 1 10 40000 1500
edge_1 1 0 20 40000 1500
edge_2 1 2 5 10000 2250
edge_3 2 1 5 10000 2250
edge_4 2 3 1 10000 1000
edge_5 3 2 1 10000 1000
edge_6 3 0 7 40000 1750
edge_7 0 3 7 40000 1750
`

const sampleDemands = `DEMANDS 3
label src dest bw
demand_0 0 2 128
demand_1 1 3 256
demand_2 3 0 64
`

func TestParseRepetita(t *testing.T) {
	g, names, err := ParseRepetita(sampleGraph)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"Vienna", "Paris", "Rome", "Bern"}
	if len(names) != 4 {
		t.Fatalf("names = %v", names)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("names[%d] = %q, want %q", i, names[i], n)
		}
	}
	if got := len(g.Links()); got != 4 {
		t.Fatalf("%d undirected links, want 4 (8 directed halves)", got)
	}
	l, ok := g.findLink("Vienna", "Paris")
	if !ok {
		t.Fatal("Vienna-Paris missing")
	}
	// Asymmetric weights survive the fold, oriented by the first-seen
	// direction.
	costs := [2]uint32{l.CostAB, l.CostBA}
	if l.A == "Paris" {
		costs[0], costs[1] = costs[1], costs[0]
	}
	if costs != [2]uint32{10, 20} {
		t.Fatalf("Vienna->Paris/Paris->Vienna = %v, want {10 20}", costs)
	}
	if l.Bandwidth != 40000*1000 {
		t.Fatalf("bandwidth %v bps, want 40 Mbps (input is kbps)", l.Bandwidth)
	}
	if l.Delay != 1500*time.Microsecond {
		t.Fatalf("delay %v, want 1.5ms (input is usec)", l.Delay)
	}
	if !g.Connected(nil) {
		t.Fatal("sample graph not connected")
	}

	m, err := ParseRepetitaDemands(sampleDemands, names)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Demands) != 3 {
		t.Fatalf("%d demands, want 3", len(m.Demands))
	}
	if d := m.Demands[0]; d.Src != "Vienna" || d.Dst != "Rome" || d.RateBps != 128000 {
		t.Fatalf("demand 0 = %+v", d)
	}
	if got, want := totalBps(m), float64((128+256+64)*1000); got != want {
		t.Fatalf("total = %v b/s, want %v", got, want)
	}
}

func TestParseRepetitaErrors(t *testing.T) {
	cases := []struct{ name, text string }{
		{"empty", ""},
		{"bad header", "EDGES 3\n"},
		{"bad count", "NODES x\nlabel x y\n"},
		{"negative count", "NODES -1\nlabel x y\n"},
		{"huge count", "NODES 999999999\nlabel x y\n"},
		{"missing labels", "NODES 1\nVienna 1 2\n"},
		{"truncated nodes", "NODES 2\nlabel x y\nVienna 1 2\n"},
		{"short node row", "NODES 1\nlabel x y\nVienna 1\n"},
		{"nan coord", "NODES 1\nlabel x y\nVienna NaN 2\n"},
		{"dup node", "NODES 2\nlabel x y\nA 1 1\nA 2 2\n"},
		{"no edges", "NODES 1\nlabel x y\nA 1 1\n"},
		{"self loop", "NODES 2\nlabel x y\nA 1 1\nB 2 2\nEDGES 1\nlabel src dest weight bw delay\ne 0 0 1 1 1\n"},
		{"edge index", "NODES 2\nlabel x y\nA 1 1\nB 2 2\nEDGES 1\nlabel src dest weight bw delay\ne 0 5 1 1 1\n"},
		{"dup edge", "NODES 2\nlabel x y\nA 1 1\nB 2 2\nEDGES 2\nlabel src dest weight bw delay\ne 0 1 1 1 1\ne 0 1 2 1 1\n"},
		{"neg bw", "NODES 2\nlabel x y\nA 1 1\nB 2 2\nEDGES 1\nlabel src dest weight bw delay\ne 0 1 1 -5 1\n"},
		{"inf delay", "NODES 2\nlabel x y\nA 1 1\nB 2 2\nEDGES 1\nlabel src dest weight bw delay\ne 0 1 1 1 +Inf\n"},
	}
	for _, c := range cases {
		if _, _, err := ParseRepetita(c.text); err == nil {
			t.Errorf("%s: parsed without error", c.name)
		}
	}
	names := []string{"A", "B"}
	demandCases := []struct{ name, text string }{
		{"empty", ""},
		{"truncated", "DEMANDS 2\nlabel src dest bw\nd 0 1 5\n"},
		{"bad index", "DEMANDS 1\nlabel src dest bw\nd 0 9 5\n"},
		{"nan rate", "DEMANDS 1\nlabel src dest bw\nd 0 1 NaN\n"},
		{"neg rate", "DEMANDS 1\nlabel src dest bw\nd 0 1 -3\n"},
		{"loop", "DEMANDS 1\nlabel src dest bw\nd 1 1 5\n"},
	}
	for _, c := range demandCases {
		if _, err := ParseRepetitaDemands(c.text, names); err == nil {
			t.Errorf("demands %s: parsed without error", c.name)
		}
	}
}

// TestSynthRepetitaGolden pins the generator's output byte-for-byte
// against committed testdata: the synthetic scale topology is part of
// the determinism surface (simtest digests and BENCH_scale.json are
// produced on it).
func TestSynthRepetitaGolden(t *testing.T) {
	graph, demands := SynthRepetita(64, 512, 64)
	for _, c := range []struct{ file, got string }{
		{"synth64.graph", graph},
		{"synth64.demands", demands},
	} {
		path := filepath.Join("testdata", c.file)
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s missing (regenerate with SynthRepetita(64, 512, 64)): %v", path, err)
		}
		if string(want) != c.got {
			t.Errorf("%s drifted from SynthRepetita output", path)
		}
	}
}

// TestSynthRepetitaParses round-trips generator output through the
// parsers across sizes.
func TestSynthRepetitaParses(t *testing.T) {
	for _, n := range []int{3, 16, 64, 100} {
		graph, demandText := SynthRepetita(n, 4*n, int64(n))
		g, names, err := ParseRepetita(graph)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(names) != n {
			t.Fatalf("n=%d: %d names", n, len(names))
		}
		if !g.Connected(nil) {
			t.Fatalf("n=%d: not connected", n)
		}
		m, err := ParseRepetitaDemands(demandText, names)
		if err != nil {
			t.Fatalf("n=%d demands: %v", n, err)
		}
		if len(m.Demands) != 4*n {
			t.Fatalf("n=%d: %d demands", n, len(m.Demands))
		}
		for _, d := range m.Demands {
			if d.Src == d.Dst || !g.nodes[d.Src] || !g.nodes[d.Dst] {
				t.Fatalf("n=%d: bad demand %+v", n, d)
			}
		}
	}
}
