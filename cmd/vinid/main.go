// Command vinid hosts domain shards of one simulated VINI world across
// processes. A coordinator process partitions the world's node domains
// round-robin over itself plus N-1 workers, ships the experiment
// parameters in the handshake payload (so every process provably builds
// the identical world), runs its own shard, and merges the per-domain
// FNV schedule digests and telemetry snapshots the workers report. With
// -check it also runs the whole world in-process and exits non-zero
// unless the merged digests are byte-identical — the distributed-parity
// proof.
//
// Usage:
//
//	vinid -shards 2 [-check] [-seed N] [-nodes N] [-duration D]   # coordinator, spawns workers
//	vinid -worker -connect HOST:PORT -shard K                     # one worker shard
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"time"

	"vini/internal/sim"
	"vini/internal/simtest"
	"vini/internal/telemetry"
)

var (
	workerFlag  = flag.Bool("worker", false, "run as a worker shard (requires -connect and -shard)")
	connectFlag = flag.String("connect", "", "coordinator address to dial (worker mode)")
	shardFlag   = flag.Int("shard", 0, "this worker's shard index, 1..shards-1 (worker mode)")
	shardsFlag  = flag.Int("shards", 2, "total process count including the coordinator")
	listenFlag  = flag.String("listen", "127.0.0.1:0", "coordinator listen address")
	spawnFlag   = flag.Bool("spawn", true, "coordinator launches its own worker processes; with -spawn=false it waits for external vinid -worker processes")
	checkFlag   = flag.Bool("check", false, "also run the world in-process and fail unless digests match")
	timeoutFlag = flag.Duration("timeout", 30*time.Second, "handshake and per-superstep wire deadline")
	seedFlag    = flag.Int64("seed", 42, "scenario seed")
	nodesFlag   = flag.Int("nodes", 8, "physical node count")
	durFlag     = flag.Duration("duration", 2*time.Second, "virtual duration")
	workersFlag = flag.Int("workers", 0, "executor worker goroutines per process (0 = one per owned domain, capped at 4)")
	// failAfter is the failure-injection hook the transport tests use: a
	// worker exits hard after that many supersteps, simulating a crash
	// mid-epoch.
	failAfter = flag.Int("fail-after-supersteps", 0, "worker self-destructs after N supersteps (testing)")
)

func main() {
	flag.Parse()
	var err error
	if *workerFlag {
		err = runWorker()
	} else {
		err = runCoordinator()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "vinid: %v\n", err)
		os.Exit(1)
	}
}

// dyingWorker is the crash-injection wrapper behind -fail-after-supersteps.
type dyingWorker struct {
	*sim.SockWorker
	after, calls int
}

func (d *dyingWorker) Exchange(x *sim.Executor) error {
	d.calls++
	if d.calls > d.after {
		os.Exit(3) // simulated crash: no FAIL frame, no goodbye
	}
	return d.SockWorker.Exchange(x)
}

func runWorker() error {
	if *connectFlag == "" || *shardFlag < 1 {
		return fmt.Errorf("worker mode needs -connect and -shard >= 1")
	}
	w, payload, err := sim.DialCoordinator(*connectFlag, *shardFlag, *timeoutFlag)
	if err != nil {
		return err
	}
	defer w.Close()
	var p simtest.DistParams
	if err := json.Unmarshal(payload, &p); err != nil {
		return fmt.Errorf("bad params payload: %w", err)
	}
	var tr sim.DomainTransport = w
	if *failAfter > 0 {
		tr = &dyingWorker{SockWorker: w, after: *failAfter}
	}
	res, err := simtest.RunDist(p, tr, *shardFlag, w.Shards())
	if err != nil {
		return err
	}
	tel, err := json.Marshal(res.Snapshot)
	if err != nil {
		return err
	}
	return w.Report(res.DomainDigests, tel)
}

func runCoordinator() error {
	shards := *shardsFlag
	if shards < 2 {
		return fmt.Errorf("-shards must be >= 2 (got %d)", shards)
	}
	p := simtest.DistParams{Seed: *seedFlag, Nodes: *nodesFlag,
		Duration: *durFlag, Workers: *workersFlag}
	payload, err := json.Marshal(p)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *listenFlag)
	if err != nil {
		return err
	}
	defer ln.Close()
	fmt.Printf("vinid: coordinating %d shards on %s\n", shards, ln.Addr())

	var procs []*exec.Cmd
	if *spawnFlag {
		self, err := os.Executable()
		if err != nil {
			return err
		}
		for s := 1; s < shards; s++ {
			args := []string{"-worker", "-connect", ln.Addr().String(),
				"-shard", strconv.Itoa(s), "-timeout", timeoutFlag.String()}
			if *failAfter > 0 && s == 1 {
				args = append(args, "-fail-after-supersteps", strconv.Itoa(*failAfter))
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				return fmt.Errorf("spawn shard %d: %w", s, err)
			}
			procs = append(procs, cmd)
		}
		defer func() {
			for _, c := range procs {
				c.Process.Kill()
				c.Wait()
			}
		}()
	}

	coord, err := sim.AcceptWorkers(ln, shards, payload, *timeoutFlag)
	if err != nil {
		return err
	}
	defer coord.Close()

	own, err := simtest.RunDist(p, coord, 0, shards)
	if err != nil {
		return err
	}
	reports, err := coord.Gather()
	if err != nil {
		return err
	}
	results := make([]*simtest.DistResult, shards)
	results[0] = own
	for _, r := range reports {
		var snap []telemetry.MetricValue
		if err := json.Unmarshal(r.Payload, &snap); err != nil {
			return fmt.Errorf("shard %d telemetry payload: %w", r.Shard, err)
		}
		results[r.Shard] = &simtest.DistResult{DomainDigests: r.Digests, Snapshot: snap}
	}
	sched, tel, err := simtest.MergeDistResults(results, shards)
	if err != nil {
		return err
	}
	fmt.Printf("vinid: merged schedule digest %016x, telemetry digest %016x\n", sched, tel)

	for _, c := range procs {
		if err := c.Wait(); err != nil {
			return fmt.Errorf("worker exited: %w", err)
		}
	}
	procs = nil

	if *checkFlag {
		base, err := simtest.RunDist(p, nil, 0, 1)
		if err != nil {
			return fmt.Errorf("in-process baseline: %w", err)
		}
		if sched != base.ScheduleDigest || tel != base.TelemetryDigest {
			return fmt.Errorf("DIGEST MISMATCH: distributed %016x/%016x vs in-process %016x/%016x",
				sched, tel, base.ScheduleDigest, base.TelemetryDigest)
		}
		fmt.Printf("vinid: parity check passed (in-process %016x/%016x)\n",
			base.ScheduleDigest, base.TelemetryDigest)
	}
	return nil
}
