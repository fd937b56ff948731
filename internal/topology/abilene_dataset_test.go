package topology

import (
	"os"
	"path/filepath"
	"testing"
)

// TestAbileneDataset pins the committed REPETITA serialization of the
// Abilene backbone (testdata/abilene.graph + .demands — the dataset
// EXPERIMENTS.md feeds to vinibench -exp scale) against the canonical
// Abilene() graph: same links, metrics, delays, and bandwidths, so the
// shortest paths the paper's Section 5 depends on are identical
// whichever way the topology is loaded.
func TestAbileneDataset(t *testing.T) {
	gb, err := os.ReadFile(filepath.Join("testdata", "abilene.graph"))
	if err != nil {
		t.Fatal(err)
	}
	g, names, err := ParseRepetita(string(gb))
	if err != nil {
		t.Fatal(err)
	}
	want := Abilene()
	if len(names) != len(want.Nodes()) {
		t.Fatalf("dataset has %d nodes, canonical %d", len(names), len(want.Nodes()))
	}
	wl := want.Links()
	gl := g.Links()
	if len(gl) != len(wl) {
		t.Fatalf("dataset has %d links, canonical %d", len(gl), len(wl))
	}
	for _, l := range wl {
		got, ok := g.findLink(l.A, l.B)
		if !ok {
			t.Fatalf("dataset missing link %s-%s", l.A, l.B)
		}
		// The REPETITA file stores each direction explicitly with the
		// same published IS-IS metric.
		sameCosts := (got.CostAB == l.CostAB && got.CostBA == l.CostAB) ||
			(got.CostBA == l.CostAB && got.CostAB == l.CostAB)
		if !sameCosts || got.Delay != l.Delay || got.Bandwidth != l.Bandwidth {
			t.Fatalf("link %s-%s: dataset %+v != canonical %+v", l.A, l.B, got, l)
		}
	}
	// The paper's default Washington->Seattle path must survive the
	// round-trip through the dataset.
	paths := g.ShortestPaths(Washington, nil)
	p, ok := paths[Seattle]
	if !ok {
		t.Fatal("no washington->seattle path")
	}
	wantPath := []string{Washington, NewYork, Chicago, Indianapolis, KansasCity, Denver, Seattle}
	if len(p.Hops) != len(wantPath) {
		t.Fatalf("washington->seattle path %v, want %v", p.Hops, wantPath)
	}
	for i := range wantPath {
		if p.Hops[i] != wantPath[i] {
			t.Fatalf("washington->seattle path %v, want %v", p.Hops, wantPath)
		}
	}

	db, err := os.ReadFile(filepath.Join("testdata", "abilene.demands"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := ParseRepetitaDemands(string(db), names)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Demands) != 110 { // 11 PoPs, all ordered pairs
		t.Fatalf("demand matrix has %d entries, want 110", len(m.Demands))
	}
	if totalBps(m) <= 0 {
		t.Fatal("demand matrix carries no load")
	}
	for _, d := range m.Demands {
		if !g.nodes[d.Src] || !g.nodes[d.Dst] {
			t.Fatalf("demand %s->%s references unknown node", d.Src, d.Dst)
		}
	}
}
