package experiment

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// checkGolden compares rendered output with the checked-in golden file,
// or rewrites it under -update. The simulation is fully deterministic
// under a fixed seed, so any diff is a real behaviour change — either a
// regression or an intentional change that needs a reviewed -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("output diverged from %s (re-run with -update if intentional):\n--- got ---\n%s\n--- want ---\n%s",
			path, got, want)
	}
}

// TestTable2Golden pins the Table 2 throughput measurements for the
// default seed: both rows, bandwidth and CPU, at full precision.
func TestTable2Golden(t *testing.T) {
	var b strings.Builder
	for _, overlay := range []bool{false, true} {
		r, err := Table2(2, overlay, 3*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s mbps=%.3f cpu=%.4f\n", r.Name, r.Mbps, r.CPU)
	}
	checkGolden(t, "table2.golden", b.String())
}

// TestFigure8Golden pins the full reconvergence time series: ping RTTs
// through the Abilene overlay across the Denver–Kansas City failure at
// t=10s and restoration at t=34s. Any change to OSPF timing, the
// forwarding path, or the scheduler shows up as a diff in this series.
// Seed 1 draws the hello phases seed 2 drew when this series was first
// pinned (core.NewParallel forks its network stream one step further
// down the control stream than the deleted classic constructor did).
func TestFigure8Golden(t *testing.T) {
	e, err := NewAbilene(1)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := e.Figure8()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, p := range pts {
		if p.Lost {
			fmt.Fprintf(&b, "t=%.1f lost\n", p.T)
			continue
		}
		fmt.Fprintf(&b, "t=%.1f rtt=%.3f\n", p.T, p.RTTms)
	}
	checkGolden(t, "figure8.golden", b.String())
}
