package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// beMainEnv makes the test binary behave as the benchmark binary, so
// the tests drive the real CLI — child re-execution included — the way
// a user or the driver does.
const beMainEnv = "VINI_BENCHMARK_BE_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(beMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs the benchmark with args and returns stdout and the exit
// code; stderr (the human-readable summary) goes to the test log.
func runCLI(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), beMainEnv+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	t.Logf("benchmark %v\n%s", args, errb.String())
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("benchmark %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return out.String(), code
}

type declared struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readManifest(t *testing.T) (declared, []byte) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d, data
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// sameNames fails unless got holds exactly the declared names, each
// well-formed and with its declared unit.
func sameNames(t *testing.T, what string, got map[string]metricValue, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics emitted, %d declared", what, len(got), len(want))
	}
	for _, d := range want {
		m, ok := got[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: declared metric %s not emitted", what, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: %s emitted in %q, declared %q", what, d.Name, m.Unit, d.Unit)
		case !nameRE.MatchString(d.Name):
			t.Errorf("%s: bad metric name %q", what, d.Name)
		}
	}
}

func TestManifestIsGenerated(t *testing.T) {
	_, onDisk := readManifest(t)
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, want) {
		t.Fatal("BENCHMARK.json differs from the metric tables; regenerate it with -manifest")
	}
}

// TestSmokeEveryWorkload runs all five workloads at smoke size through
// the full-report path.
func TestSmokeEveryWorkload(t *testing.T) {
	decl, _ := readManifest(t)
	out, code := runCLI(t, "-smoke")
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	if !strings.HasSuffix(strings.TrimSpace(out), "\"claim\": null\n}") {
		t.Errorf("summary JSON does not end with \"claim\": null")
	}
	var rep report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != len(decl.Workloads) {
		t.Fatalf("%d workloads reported, %d declared", len(rep.Workloads), len(decl.Workloads))
	}
	for i, wr := range rep.Workloads {
		if wr.Name != decl.Workloads[i].Name || !nameRE.MatchString(wr.Name) {
			t.Errorf("workload %d is %q, declared %q", i, wr.Name, decl.Workloads[i].Name)
		}
		sameNames(t, wr.Name, wr.EndToEnd, decl.EndToEnd)
		if wr.OpsFailed != 0 || wr.OpsAttempted == 0 {
			t.Errorf("%s: ops_attempted=%d ops_failed=%d %v", wr.Name, wr.OpsAttempted, wr.OpsFailed, wr.Failures)
		}
		if wr.Stats.Events == 0 || wr.Stats.Delivered == 0 {
			t.Errorf("%s: empty simulated statistics %+v", wr.Name, wr.Stats)
		}
	}
}

// TestDriverContract runs one workload the way the driver does, scored
// and traced, and checks the result line and the trace file.
func TestDriverContract(t *testing.T) {
	decl, _ := readManifest(t)
	type line struct {
		Correct   *bool
		Attempted *int
		Failed    *int
		Metrics   map[string]metricValue
	}
	last := func(out string) line {
		t.Helper()
		lines := strings.Split(strings.TrimSpace(out), "\n")
		var raw map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
			t.Fatalf("last line is not JSON: %v", err)
		}
		keys := make([]string, 0, len(raw))
		for k := range raw {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
			t.Fatalf("result line has keys %v", keys)
		}
		var l line
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &l); err != nil {
			t.Fatal(err)
		}
		if !*l.Correct || *l.Attempted < 1 || *l.Failed != 0 {
			t.Fatalf("correct=%v attempted=%d failed=%d", *l.Correct, *l.Attempted, *l.Failed)
		}
		return l
	}
	out, code := runCLI(t, "-smoke", "--workload", "scale_ospf_domains", "--seed", "7", "--seconds", "1", "--trace", "0")
	if code != 0 {
		t.Fatalf("scored run: exit code %d", code)
	}
	sameNames(t, "scored", last(out).Metrics, decl.EndToEnd)

	dir := t.TempDir()
	out, code = runCLI(t, "-smoke", "--workload", "scale_ospf_domains", "--seed", "7", "--seconds", "1", "--trace", "1", "-tracedir", dir)
	if code != 0 {
		t.Fatalf("traced run: exit code %d", code)
	}
	sameNames(t, "traced", last(out).Metrics, decl.PerLayer)
	data, err := os.ReadFile(filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatalf("trace.json: %v", err)
	}
	if len(tr.TraceEvents) < 10 {
		t.Fatalf("trace.json holds %d events", len(tr.TraceEvents))
	}
}

func TestStrictCLI(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "bogus"},
		{"-no-such-flag"},
		{"-smoke", "stray"},
		{"-trace", "2"},
		{"-compare", "only-one.json"},
	} {
		if out, code := runCLI(t, args...); code == 0 {
			t.Errorf("benchmark %v exited 0 (stdout %q)", args, out)
		}
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, wall float64, noisy bool) string {
		rep := report{Seed: 2, Seconds: 10, Workloads: []workloadReport{{Name: "abilene_cbr", Noisy: noisy,
			EndToEnd: map[string]metricValue{"wall_ms_per_vs": {wall, "ms/vs"}, "setup_s": {0.006, "s"}}}}}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := mk("a.json", 40, false)
	for _, tc := range []struct {
		b       string
		want    string
		wantErr bool
	}{
		{mk("same.json", 41, false), "ok", false},
		{mk("worse.json", 60, false), "worse", true},
		{mk("noisy.json", 60, true), "unresolved", false},
	} {
		var buf bytes.Buffer
		err := compare(&buf, base, tc.b)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: err = %v", tc.b, err)
		}
		row := ""
		for _, l := range strings.Split(buf.String(), "\n") {
			if strings.Contains(l, "wall_ms_per_vs") {
				row = l
			}
		}
		if !strings.HasSuffix(row, tc.want) {
			t.Errorf("%s: row %q, want verdict %s", tc.b, row, tc.want)
		}
	}
}
