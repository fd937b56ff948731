package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// vinibench resets every flag to its default, applies args, and runs
// the selected experiments in a scratch working directory (they write
// BENCH_*.json where they stand).
func vinibench(t *testing.T, args ...string) (code int, stderr, dir string) {
	t.Helper()
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			f.Value.Set(f.DefValue)
		}
	})
	if err := flag.CommandLine.Parse(args); err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir = t.TempDir()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	var buf bytes.Buffer
	return run(&buf), buf.String(), dir
}

func TestUnknownExperimentIsUsageError(t *testing.T) {
	code, stderr, _ := vinibench(t, "-exp", "bogus")
	if code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	for _, e := range experiments {
		if !strings.Contains(stderr, e.name) {
			t.Errorf("stderr does not list experiment %q:\n%s", e.name, stderr)
		}
	}
}

func TestTopoWithoutDemandsIsUsageError(t *testing.T) {
	code, stderr, _ := vinibench(t, "-exp", "scale", "-topo", "x.graph")
	if code != 2 || !strings.Contains(stderr, "-demands") {
		t.Fatalf("exit code %d, stderr %q; want 2 and a -demands hint", code, stderr)
	}
}

// TestExperimentsWriteReports smokes the three fast report-writing
// experiments end to end: each must pass its own checks and leave a
// report that names the seed it ran.
func TestExperimentsWriteReports(t *testing.T) {
	for _, exp := range []string{"churn", "migrate", "adaptive"} {
		t.Run(exp, func(t *testing.T) {
			code, stderr, dir := vinibench(t, "-exp", exp, "-short", "-parallel", "2", "-seed", "3")
			if code != 0 {
				t.Fatalf("exit code %d: %s", code, stderr)
			}
			data, err := os.ReadFile(filepath.Join(dir, "BENCH_"+exp+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var h benchHeader
			if err := json.Unmarshal(data, &h); err != nil || h.Seed != 3 || h.GoVersion == "" {
				t.Fatalf("report header %+v (err %v), want seed 3 and a Go version", h, err)
			}
		})
	}
}

// TestCommittedReportsStillLoad: every committed BENCH_*.json must
// decode into today's report type with no key left over (so no key was
// renamed), and the three engine reports must work as -baseline files:
// a healthy leg passes the floor, a collapsed one trips it.
func TestCommittedReportsStillLoad(t *testing.T) {
	root := filepath.Join("..", "..")
	for name, into := range map[string]any{
		"parallel": &parallelReport{}, "scale": &scaleReport{}, "adaptive": &adaptiveReport{},
		"churn": &churnReport{}, "migrate": &migrateReport{},
	} {
		f, err := os.Open(filepath.Join(root, "BENCH_"+name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(f)
		dec.DisallowUnknownFields()
		if err := dec.Decode(into); err != nil {
			t.Errorf("BENCH_%s.json: %v", name, err)
		}
		f.Close()
	}
	for _, name := range []string{"parallel", "scale", "adaptive"} {
		path := filepath.Join(root, "BENCH_"+name+".json")
		fast := &engineRow{Workers: 4, EventsPerSec: 1e12}
		if err := checkBaseline(path, fast, nil); err != nil {
			t.Errorf("%s: healthy leg failed the gate: %v", name, err)
		}
		slow := &engineRow{Workers: 4, EventsPerSec: 1}
		if err := checkBaseline(path, slow, nil); err == nil {
			t.Errorf("%s: collapsed leg passed the gate", name)
		}
		if err := checkBaseline(path, slow, func(baseline) bool { return false }); err != nil {
			t.Errorf("%s: incomparable baseline must skip the gate, got %v", name, err)
		}
	}
}

// TestCommittedReportsReproduce: vinibench reads no host clock and no
// host shape, so every committed BENCH_*.json is a golden — regenerating
// it at default flags must give the same bytes. scale takes minutes (CI
// regenerates it in the regimes matrix), and parallel is skipped under
// -short; those two are decoded strictly and re-encoded instead, which
// still catches a renamed, missing or left-over key.
func TestCommittedReportsReproduce(t *testing.T) {
	for _, c := range []struct {
		exp   string
		regen bool
		into  any
	}{
		{"adaptive", true, nil}, {"churn", true, nil}, {"migrate", true, nil},
		{"parallel", !testing.Short(), &parallelReport{}}, {"scale", false, &scaleReport{}},
	} {
		t.Run(c.exp, func(t *testing.T) {
			file := "BENCH_" + c.exp + ".json"
			want, err := os.ReadFile(filepath.Join("..", "..", file))
			if err != nil {
				t.Fatal(err)
			}
			var got []byte
			if c.regen {
				code, stderr, dir := vinibench(t, "-exp", c.exp)
				if code != 0 {
					t.Fatalf("exit code %d: %s", code, stderr)
				}
				got, err = os.ReadFile(filepath.Join(dir, file))
			} else {
				dec := json.NewDecoder(bytes.NewReader(want))
				dec.DisallowUnknownFields()
				if err := dec.Decode(c.into); err != nil {
					t.Fatal(err)
				}
				got, err = json.MarshalIndent(c.into, "", "  ")
				got = append(got, '\n')
			}
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s is not reproduced (run `go run ./cmd/vinibench -exp %s` from the repo root and read the diff):\n--- got ---\n%s--- committed ---\n%s",
					file, c.exp, got, want)
			}
		})
	}
}
