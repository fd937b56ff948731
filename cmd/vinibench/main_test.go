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
	for _, args := range [][]string{{"-topo", "x.graph"}, {"-demands", "x.demands"}} {
		code, stderr, _ := vinibench(t, append([]string{"-exp", "scale"}, args...)...)
		if code != 2 || !strings.Contains(stderr, "-topo and -demands") {
			t.Errorf("%v alone: exit code %d, stderr %q; want 2 and a hint naming both flags", args, code, stderr)
		}
	}
}

// TestShortKeepsExplicitSlices: -short shrinks the default slice count
// of the scale experiment, never one given on the command line.
func TestShortKeepsExplicitSlices(t *testing.T) {
	code, stderr, dir := vinibench(t, "-exp", "scale", "-short", "-slices", "20", "-nodes", "16")
	if code != 0 {
		t.Fatalf("exit code %d: %s", code, stderr)
	}
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_scale.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep scaleReport
	if err := json.Unmarshal(data, &rep); err != nil || rep.Slices != 20 {
		t.Fatalf("report has %d slices (err %v), want the 20 asked for", rep.Slices, err)
	}
}

// TestCommittedReportsReproduce: vinibench reads no host clock and no
// host shape, so every committed BENCH_*.json is a golden — regenerating
// it at default flags must give the same bytes. scale takes tens of
// seconds (CI regenerates it in the regimes matrix), so it is decoded
// strictly and re-encoded instead, which still catches a renamed,
// missing or left-over key.
func TestCommittedReportsReproduce(t *testing.T) {
	for _, c := range []struct {
		exp   string
		regen bool
		into  any
	}{
		{"adaptive", true, nil}, {"churn", true, nil}, {"migrate", true, nil},
		{"scale", false, &scaleReport{}},
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
				got, err = encodeReport(c.into)
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
