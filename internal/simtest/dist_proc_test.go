package simtest

import (
	"encoding/json"
	"errors"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"vini/internal/sim"
)

// buildVinid compiles cmd/vinid once per test binary.
func buildVinid(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not in PATH")
	}
	bin := filepath.Join(t.TempDir(), "vinid")
	cmd := exec.Command("go", "build", "-o", bin, "vini/cmd/vinid")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build vinid: %v\n%s", err, out)
	}
	return bin
}

func spawnWorkers(t *testing.T, bin, addr string, shards int, extra ...string) []*exec.Cmd {
	t.Helper()
	var procs []*exec.Cmd
	for s := 1; s < shards; s++ {
		args := append([]string{"-worker", "-connect", addr, "-shard", strconv.Itoa(s)}, extra...)
		cmd := exec.Command(bin, args...)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("spawn shard %d: %v", s, err)
		}
		procs = append(procs, cmd)
		t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
	}
	return procs
}

// TestDistParityAcrossProcesses is the acceptance property, driven
// through the real command: vinid coordinates one seeded scenario split
// across itself and two worker PROCESSES over loopback sockets, reruns
// it in-process (-check), and exits non-zero unless the merged
// per-domain schedule digests and telemetry registry digest are
// byte-identical.
func TestDistParityAcrossProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and spawns subprocesses")
	}
	out, err := exec.Command(buildVinid(t), "-shards", "3", "-check",
		"-seed", "777", "-nodes", "9", "-duration", "2s", "-workers", "2").CombinedOutput()
	if err != nil || !strings.Contains(string(out), "parity check passed") {
		t.Fatalf("vinid -shards 3 -check: %v\n%s", err, out)
	}
}

// TestDistWorkerProcessDeath kills a real worker process mid-run (via
// vinid's crash-injection flag) and requires the coordinator's
// Executor.Run to surface a typed *sim.TransportError within the wire
// deadline instead of hanging.
func TestDistWorkerProcessDeath(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and spawns subprocesses")
	}
	bin := buildVinid(t)
	p := DistParams{Seed: 13, Nodes: 6, Duration: 2 * time.Second, Workers: 1}
	const timeout = 5 * time.Second
	payload, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	spawnWorkers(t, bin, ln.Addr().String(), 2,
		"-fail-after-supersteps", "10", "-timeout", timeout.String())

	coord, err := sim.AcceptWorkers(ln, 2, payload, timeout)
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	defer coord.Close()
	start := time.Now()
	_, err = RunDist(p, coord, 0, 2)
	if err == nil {
		t.Fatal("coordinator run succeeded despite worker crash")
	}
	var te *sim.TransportError
	if !errors.As(err, &te) {
		t.Fatalf("error %T (%v) is not *sim.TransportError", err, err)
	}
	if te.Shard != 1 {
		t.Fatalf("TransportError.Shard = %d, want 1", te.Shard)
	}
	if elapsed := time.Since(start); elapsed > 3*timeout {
		t.Fatalf("death surfaced after %v (deadline %v)", elapsed, timeout)
	}
}
