package simtest

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// TestRegimeDigestsGolden pins every regime's digests — scenario,
// event schedule, telemetry registry, flight recorder, JSON snapshot —
// for seeds 1..3 on 1 and 4 workers.
// The file was recorded on the six hand-rolled runners that preceded the
// regime kernel, and its rows predate core.New becoming one worker of
// this engine, so a diff means behaviour moved. Regenerate with -update
// only alongside a documented, intentional behaviour change.
func TestRegimeDigestsGolden(t *testing.T) {
	var b strings.Builder
	for _, rg := range regimes {
		run := rg.run
		if rg.name == "scale" {
			run = smallScale
		}
		for seed := int64(1); seed <= 3; seed++ {
			for _, w := range []int{1, 4} {
				r, err := run(seed, w)
				if err != nil {
					t.Fatal(err)
				}
				o := r.header()
				// The JSON snapshot is too large to commit; pin its hash.
				js := fnv.New64a()
				js.Write([]byte(o.Telemetry))
				fmt.Fprintf(&b, "%s %d %d %016x %016x %016x %016x %016x\n", rg.name, seed, w,
					o.Digest, o.ScheduleDigest, o.TelemetryDigest, o.FlightDigest, js.Sum64())
			}
		}
	}
	path := filepath.Join("testdata", "regime_digests.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	// There is one engine: a "workers 0" row would pin a second baseline.
	for _, line := range strings.Split(string(want), "\n") {
		if f := strings.Fields(line); len(f) > 2 && f[2] == "0" {
			t.Fatalf("%s pins a workers-0 row: %q", path, line)
		}
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("regime digests diverged from %s (re-run with -update only if intentional):\n--- got ---\n%s\n--- want ---\n%s",
			path, got, want)
	}
}
