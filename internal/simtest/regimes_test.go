package simtest

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"vini/internal/core"
)

var (
	flagSeeds = flag.Int("seeds", 0, "override the number of seeds every sweep arm explores")
	flagSeed  = flag.Int64("seed", -1, "replay exactly one scenario seed in every arm")
)

// failArtifact appends a failing run to the file named by
// SIMTEST_FAIL_FILE (set in CI) so the artifact survives the run.
func failArtifact(r fmt.Stringer) {
	path := os.Getenv("SIMTEST_FAIL_FILE")
	if path == "" {
		return
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return
	}
	defer f.Close()
	fmt.Fprintf(f, "%s\n", r)
}

// seedCount is a seed budget: {full, -short}.
type seedCount [2]int

func (c seedCount) n() int {
	if testing.Short() {
		return c[1]
	}
	return c[0]
}

// result is what every Run* returns: the shared header, plus — for the
// regimes that define findings() — checks beyond "no violations".
type result interface{ header() *Outcome }

func (o *Outcome) header() *Outcome { return o }

func (r *ScaleResult) findings() (f []string) {
	if r.Slices < 127 && r.Nodes == 64 {
		f = append(f, fmt.Sprintf("ran only %d slices; the point is to exceed the old 126 ceiling", r.Slices))
	}
	return f
}

func (r *migrateResult) findings() (f []string) {
	if r.Sent == 0 || r.Delivered == 0 {
		f = append(f, fmt.Sprintf("vacuous run (sent=%d delivered=%d)", r.Sent, r.Delivered))
	}
	if r.Duplicates != 0 {
		f = append(f, fmt.Sprintf("%d duplicate deliveries", r.Duplicates))
	}
	return f
}

func (r *AdaptiveResult) findings() (f []string) {
	if len(r.Phases) != 6 {
		f = append(f, fmt.Sprintf("%d phases measured, want 6", len(r.Phases)))
	}
	if r.TracePoints == 0 {
		f = append(f, "vacuous run (no controller trace)")
	}
	return f
}

// smallScale is the scale regime at its -short shape (24 nodes / 60
// slices, still on the sized-allocation path).
func smallScale(seed int64, workers int) (result, error) {
	return RunScale(ScaleOptions{Seed: seed, Nodes: 24, Slices: 60, workers: workers})
}

// regimes is the suite: one row per regime. Every arm starts at seed
// first; sweep seeds run on 1 worker, parity seeds on 1 vs 4 workers
// (plus 2 workers on the first two seeds when spot2), replay seeds once
// more on 1 and on 4 workers, against the runs the other arms made.
var regimes = []struct {
	name                  string
	first                 int64
	sweep, parity, replay seedCount
	spot2                 bool
	run                   func(seed int64, workers int) (result, error)
}{
	{"base", 1, seedCount{25, 25}, seedCount{25, 6}, seedCount{5, 5}, false,
		func(s int64, w int) (result, error) { return Run(Options{Seed: s, workers: w}) }},
	{"churn", 1, seedCount{8, 3}, seedCount{15, 4}, seedCount{3, 3}, false,
		func(s int64, w int) (result, error) { return runChurn(churnOptions{Seed: s, Workers: w}) }},
	// One pinned seed: 200 slices — well past the old 126-slice ceiling —
	// on a 64-node synthetic REPETITA substrate, byte-identical at 1, 2
	// and 4 workers. The sweep arm runs it only under -seeds; the parity
	// arm runs its 1-worker world either way.
	{"scale", 2, seedCount{}, seedCount{1, 1}, seedCount{}, true,
		func(s int64, w int) (result, error) { return RunScale(ScaleOptions{Seed: s, workers: w}) }},
	{"migrate", 1, seedCount{6, 2}, seedCount{15, 4}, seedCount{3, 3}, true,
		func(s int64, w int) (result, error) { return runMigrate(migrateOptions{Seed: s, Workers: w}) }},
	{"adaptive", 1, seedCount{5, 2}, seedCount{10, 3}, seedCount{3, 3}, true,
		func(s int64, w int) (result, error) { return RunAdaptive(AdaptiveOptions{Seed: s, workers: w}) }},
}

// diverged names the replay fingerprints on which two runs of the same
// seed differ.
func diverged(a, b *Outcome) (out []string) {
	for _, f := range []struct {
		name string
		x, y uint64
	}{
		{"schedule", a.ScheduleDigest, b.ScheduleDigest}, {"digest", a.Digest, b.Digest},
		{"telemetry", a.TelemetryDigest, b.TelemetryDigest}, {"flight", a.FlightDigest, b.FlightDigest},
	} {
		if f.x != f.y {
			out = append(out, fmt.Sprintf("%s %016x vs %016x", f.name, f.x, f.y))
		}
	}
	if a.Telemetry != b.Telemetry {
		out = append(out, fmt.Sprintf("telemetry JSON (lens %d vs %d)", len(a.Telemetry), len(b.Telemetry)))
	}
	return out
}

// TestRegimes gives every regime the same three properties from the
// same code. sweep explores seeded scenarios on 1 worker and fails on
// any invariant violation; parity demands byte-identical fingerprints
// between 1 and 4 workers — any divergence is a synchronization bug: a
// message delivered across a horizon, a racy RNG draw, or state shared
// between domains; replay runs a seed a second time per worker count
// and demands the same. The arms of one regime share their runs, so
// each (seed, workers) world runs once, plus once more for replay.
// Every failure prints the exact command that reproduces it.
func TestRegimes(t *testing.T) {
	for _, rg := range regimes {
		hint := func(seed int64) string {
			return fmt.Sprintf("replay with: go test ./internal/simtest -run 'TestRegimes/%s' -seed %d", rg.name, seed)
		}
		// must runs one scenario and applies the checks every arm shares.
		must := func(t *testing.T, seed int64, workers int) *Outcome {
			t.Helper()
			r, err := rg.run(seed, workers)
			if err != nil {
				t.Fatalf("seed %d workers=%d: harness error: %v", seed, workers, err)
			}
			o := r.header()
			if o.Failed() {
				failArtifact(o)
				t.Errorf("invariant violation — %s\n%s", hint(seed), o)
			}
			if f, ok := r.(interface{ findings() []string }); ok {
				for _, msg := range f.findings() {
					t.Errorf("seed %d workers=%d: %s — %s", seed, workers, msg, hint(seed))
				}
			}
			if testing.Verbose() {
				t.Logf("%s", strings.SplitN(o.String(), "\n", 2)[0])
			}
			return o
		}
		// world is must, once per (seed, workers): the first arm that
		// needs a world runs and checks it, and later arms reuse it.
		ran := map[[2]int64]*Outcome{}
		world := func(t *testing.T, seed int64, workers int) *Outcome {
			t.Helper()
			k := [2]int64{seed, int64(workers)}
			if ran[k] == nil {
				ran[k] = must(t, seed, workers)
			}
			return ran[k]
		}
		// same fails the arm when two runs' fingerprints differ.
		same := func(t *testing.T, a, b *Outcome) {
			t.Helper()
			if d := diverged(a, b); len(d) != 0 {
				failArtifact(b)
				t.Errorf("seed %d: workers=%d and workers=%d diverged: %s — %s",
					a.Seed, a.Workers, b.Workers, strings.Join(d, "; "), hint(a.Seed))
			}
		}
		seeds := func(c seedCount) (first, end int64) {
			if *flagSeed >= 0 {
				return *flagSeed, *flagSeed + 1
			}
			return rg.first, rg.first + int64(c.n())
		}
		t.Run(rg.name+"/sweep", func(t *testing.T) {
			c := rg.sweep
			if *flagSeeds > 0 {
				c = seedCount{*flagSeeds, *flagSeeds}
			}
			for s, end := seeds(c); s < end; s++ {
				world(t, s, 1)
			}
		})
		t.Run(rg.name+"/parity", func(t *testing.T) {
			first, end := seeds(rg.parity)
			for s := first; s < end; s++ {
				one := world(t, s, 1)
				same(t, one, world(t, s, 4))
				if rg.spot2 && s < first+2 {
					same(t, one, world(t, s, 2))
				}
			}
		})
		t.Run(rg.name+"/replay", func(t *testing.T) {
			for s, end := seeds(rg.replay); s < end; s++ {
				for _, w := range []int{1, 4} {
					same(t, world(t, s, w), must(t, s, w))
				}
			}
		})
	}
}

// mutation is the shape of both sabotage tests: the clean run must pass
// (or the mutation means nothing), the sabotaged run must fail, and
// every wanted text must show up in some violation (or it failed for
// the wrong reason).
func mutation(t *testing.T, run func(sabotage bool) (result, error), wants ...string) {
	t.Helper()
	clean, err := run(false)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if clean.header().Failed() {
		t.Fatalf("clean run must pass before the mutation means anything:\n%s", clean.header())
	}
	r, err := run(true)
	if err != nil {
		t.Fatalf("sabotaged run: %v", err)
	}
	broken := r.header()
	if !broken.Failed() {
		t.Fatalf("sabotage active but no violation reported — the checker is toothless:\n%s", broken)
	}
	for _, want := range wants {
		if !strings.Contains(strings.Join(broken.Violations, "\n"), want) {
			t.Errorf("sabotaged run never reported %q:\n%s", want, broken)
		}
	}
}

// TestMigrateMutationSuppressionChecker proves the exactly-once checker
// has teeth: sabotaging the shadow's duplicate suppression must surface
// window clones as duplicate deliveries and fail the run. (The same
// mutation discipline PR 2 applied to the original invariant checkers.)
func TestMigrateMutationSuppressionChecker(t *testing.T) {
	var r *migrateResult
	mutation(t, func(sabotage bool) (result, error) {
		var err error
		r, err = runMigrate(migrateOptions{Seed: 1, Sabotage: sabotage})
		return r, err
	}, "times (duplicate leaked past cutover)")
	if r.Duplicates == 0 {
		t.Errorf("sabotaged run reported violations but counted no duplicates:\n%s", r)
	}
}

// TestAdaptiveMutationOveruseDetector proves the convergence invariant
// has teeth: disabling the controller's over-use detector must blow the
// estimate through the convergence band and trip the no-runaway audit.
func TestAdaptiveMutationOveruseDetector(t *testing.T) {
	mutation(t, func(sabotage bool) (result, error) {
		return RunAdaptive(AdaptiveOptions{Seed: 1, disableOveruse: sabotage})
	}, "outside", "rate runaway")
}

// TestAuditCatches plants one leak per ledger the kernel audits, inside
// a regime that did not check that ledger before the audit became
// universal, and demands the matching violation.
func TestAuditCatches(t *testing.T) {
	regime := func(name string) func(int64, int) (result, error) {
		for _, rg := range regimes {
			if rg.name == name {
				return rg.run
			}
		}
		panic("no regime " + name)
	}
	for _, tc := range []struct {
		name  string
		run   func(seed int64, workers int) (result, error)
		plant func(w *world)
		want  string
	}{
		{"listener/base", regime("base"), func(w *world) {
			w.vini.Net.MustNode("n0").StackListenUDP(65000, func([]byte) {})
		}, "endpoint ledger unbalanced"},
		{"series/scale", smallScale, func(w *world) {
			// The scale churn tail destroys slices; a series under the
			// first tracked dead label must not survive it.
			for _, s := range w.slices {
				if s.State() == core.StateDestroyed {
					w.vini.Telemetry().Reg.Scope(s.Name(), "leak").Counter("leaked")
					return
				}
			}
		}, "telemetry series survive"},
		{"addrblock/adaptive", regime("adaptive"), func(w *world) {
			w.vini.LeakAddressBlockForTest()
		}, "address plan"},
		// Pending events were already checked by every regime that tears
		// its world down; this arm shows the kernel's single copy of that
		// check still has teeth.
		{"timer/churn", regime("churn"), func(w *world) {
			w.loop.Schedule(time.Hour, func() {})
		}, "events still pending"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			planted := false
			beforeAuditForTest = func(w *world) {
				if !planted {
					planted = true
					tc.plant(w)
				}
			}
			defer func() { beforeAuditForTest = nil }()
			r, err := tc.run(1, 1)
			if err != nil {
				t.Fatal(err)
			}
			o := r.header()
			if !planted {
				t.Fatal("regime never ran the audit")
			}
			for _, v := range o.Violations {
				if strings.Contains(v, tc.want) {
					return
				}
			}
			t.Fatalf("planted leak went undetected (want a %q violation):\n%s", tc.want, o)
		})
	}
}
