package simtest

import (
	"flag"
	"fmt"
	"hash/fnv"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"vini/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// runDistSharded runs the distributed scenario split across `shards`
// executors joined by loopback TCP sockets (all in this process — the
// transport cannot tell) and returns every shard's result, index =
// shard.
func runDistSharded(t *testing.T, p DistParams, shards int) []*DistResult {
	t.Helper()
	const timeout = 30 * time.Second
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	results := make([]*DistResult, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for s := 1; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			w, _, err := sim.DialCoordinator(ln.Addr().String(), s, timeout)
			if err != nil {
				errs[s] = err
				return
			}
			defer w.Close()
			r, err := RunDist(p, w, s, shards)
			if err == nil {
				err = w.Report(r.DomainDigests, nil)
			}
			results[s], errs[s] = r, err
		}(s)
	}
	coord, err := sim.AcceptWorkers(ln, shards, nil, timeout)
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	defer coord.Close()
	results[0], errs[0] = RunDist(p, coord, 0, shards)
	if errs[0] != nil {
		t.Fatalf("coordinator run: %v", errs[0])
	}
	if _, err := coord.Gather(); err != nil {
		t.Fatalf("gather: %v", err)
	}
	wg.Wait()
	for s := 1; s < shards; s++ {
		if errs[s] != nil {
			t.Fatalf("shard %d: %v", s, errs[s])
		}
	}
	return results
}

// TestRegimeDigestsGolden pins every regime's digests — scenario,
// event schedule, telemetry registry, flight recorder, JSON snapshot —
// for seeds 1..3 on 1 and 4 workers (dist: whole and split three ways).
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
	// dist pins the merged schedule and telemetry digests only (the
	// workers column is the shard count; the other columns have no
	// whole-world meaning for a shard). Every flow's receiver lives on
	// exactly one shard, so delivered counts must partition across them.
	for seed := int64(1); seed <= 3; seed++ {
		p := DistParams{Seed: seed, Nodes: 6, Duration: 2 * time.Second, Workers: 2}
		whole, err := RunDist(p, nil, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "dist %d 1 - %016x %016x - -\n", seed, whole.ScheduleDigest, whole.TelemetryDigest)
		shards := runDistSharded(t, p, 3)
		sched, tel, err := MergeDistResults(shards, 3)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "dist %d 3 - %016x %016x - -\n", seed, sched, tel)
		if sum := shards[0].Delivered + shards[1].Delivered + shards[2].Delivered; sum != whole.Delivered || sum == 0 {
			t.Errorf("seed %d: shards delivered %d packets, the whole world %d", seed, sum, whole.Delivered)
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
