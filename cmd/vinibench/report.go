package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"vini/internal/core"
	"vini/internal/packet"
	"vini/internal/simtest"
)

// benchHeader is the host and input block every BENCH_*.json report
// opens with (embedding flattens it into the report's top level).
type benchHeader struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	Note       string `json:"note,omitempty"`
}

func newHeader() benchHeader {
	return benchHeader{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: *seedFlag}
}

// writeReport marshals a report to BENCH_<name>.json in the working
// directory.
func writeReport(name string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	file := "BENCH_" + name + ".json"
	if err := os.WriteFile(file, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote " + file)
	return nil
}

// engineRow is what every engine leg of a benchmark reports; the
// per-experiment row types embed it and add their own columns.
//
// Events counts fired events: cross-domain hand-offs are typed
// deliveries (no wrapper events), so a fired event is one semantic
// action.
type engineRow struct {
	Name            string  `json:"name"`
	Workers         int     `json:"workers"`
	Gomaxprocs      int     `json:"gomaxprocs"`
	Events          uint64  `json:"events"`
	EventsPerSec    float64 `json:"events_per_sec"`
	WallSeconds     float64 `json:"wall_seconds"`
	Digest          string  `json:"digest,omitempty"`
	Schedule        string  `json:"schedule_digest"`
	TelemetryDigest string  `json:"telemetry_digest,omitempty"`
	FlightDigest    string  `json:"flight_digest,omitempty"`
}

func (r *engineRow) engine() *engineRow { return r }

// engineLeg is any row type that embeds engineRow.
type engineLeg interface{ engine() *engineRow }

// digests is the row's replay fingerprint.
func (r *engineRow) digests() [4]string {
	return [4]string{r.Digest, r.Schedule, r.TelemetryDigest, r.FlightDigest}
}

// measured completes a leg's row from a simtest regime result.
func (r engineRow) measured(o *simtest.Outcome) engineRow {
	r.Events, r.EventsPerSec = o.Events, float64(o.Events)/o.RunSeconds
	r.WallSeconds = o.BuildSeconds + o.RunSeconds
	r.Digest = fmt.Sprintf("%016x", o.Digest)
	r.Schedule = fmt.Sprintf("%016x", o.ScheduleDigest)
	r.TelemetryDigest = fmt.Sprintf("%016x", o.TelemetryDigest)
	r.FlightDigest = fmt.Sprintf("%016x", o.FlightDigest)
	return r
}

// engineLegs is the rows block of an engine benchmark plus the two
// determinism verdicts forEngines reaches.
type engineLegs[R engineLeg] struct {
	Rows []R `json:"rows"`
	// DigestsAgree reports whether every worker count produced
	// byte-identical digests; ReplayDigestsMatch whether a second seeded
	// one-worker run reproduced the first.
	DigestsAgree       bool `json:"sharded_digests_agree"`
	ReplayDigestsMatch bool `json:"replay_digests_match"`
}

// forEngines is the one engine loop: it runs fn on 1, 2, 4, … -parallel
// workers, checks that every leg agrees on its digests, and reruns the
// one-worker leg to cross-check that a seeded replay reproduces them.
// fn receives the leg's identity (name, workers, GOMAXPROCS), measures
// it, prints its line under the columns heading and returns the
// completed row. On a single-CPU host forEngines leaves a note in the
// header, since no wall-clock speedup is possible there.
func forEngines[R engineLeg](h *benchHeader, columns string, fn func(leg engineRow) (R, error)) (engineLegs[R], error) {
	legs := engineLegs[R]{DigestsAgree: true}
	fmt.Printf("host: %d CPUs, GOMAXPROCS=%d\n%s\n", h.NumCPU, h.GOMAXPROCS, columns)
	leg := func(w int) (R, error) {
		row, err := fn(engineRow{Name: fmt.Sprintf("domains x%d", w), Workers: w,
			Gomaxprocs: runtime.GOMAXPROCS(0)})
		if err != nil {
			err = fmt.Errorf("workers=%d: %w", w, err)
		}
		return row, err
	}
	var one *engineRow
	for w := 1; w <= maxWorkers(); w *= 2 {
		row, err := leg(w)
		if err != nil {
			return legs, err
		}
		if e := row.engine(); one == nil {
			one = e
		} else if e.digests() != one.digests() {
			legs.DigestsAgree = false
		}
		legs.Rows = append(legs.Rows, row)
	}
	fmt.Println("replaying the x1 leg:")
	replay, err := leg(1)
	if err != nil {
		return legs, err
	}
	legs.ReplayDigestsMatch = replay.engine().digests() == one.digests()

	if legs.DigestsAgree {
		fmt.Printf("digests %v identical across all worker counts\n", one.digests())
	} else {
		fmt.Println("DETERMINISM VIOLATION: digests diverged across worker counts")
	}
	switch {
	case !legs.ReplayDigestsMatch:
		h.Note = "replay digest mismatch: seeded reruns diverged"
		fmt.Println("WARNING: " + h.Note)
	case runtime.GOMAXPROCS(0) < 2:
		h.Note = "single-CPU host: worker goroutines time-share one core, so no " +
			"wall-clock speedup is possible here; see DESIGN.md \"Time domains & " +
			"conservative synchronization\" for the multi-core profile"
		fmt.Println("note: " + h.Note)
	}
	if legs.ReplayDigestsMatch {
		fmt.Println("replay cross-check: second seeded x1 run reproduced every digest")
	}
	return legs, nil
}

// gate writes the report, fails on either determinism verdict, and then
// applies the -baseline throughput floor. The report is written first so
// CI uploads it even when a check fails.
func (l engineLegs[R]) gate(name string, report any, sameInputs func(base baseline) bool) error {
	if err := writeReport(name, report); err != nil {
		return err
	}
	switch {
	case !l.DigestsAgree:
		return fmt.Errorf("digests diverged across worker counts")
	case !l.ReplayDigestsMatch:
		return fmt.Errorf("replay digests diverged")
	case *baselineFlag == "":
		return nil
	}
	var cur *engineRow
	for _, r := range l.Rows {
		if e := r.engine(); e.Workers == maxWorkers() {
			cur = e
		}
	}
	return checkBaseline(*baselineFlag, cur, sameInputs)
}

// baseline is the subset of a committed engine report the gate reads:
// the shared header and rows, plus the scale report's shape keys.
type baseline struct {
	benchHeader
	Nodes  int         `json:"nodes"`
	Slices int         `json:"slices"`
	Rows   []engineRow `json:"rows"`
}

// checkBaseline compares one leg's throughput against the same-worker
// row of a committed prior report and fails on a regression of more
// than 15%. The committed baseline records whatever host class
// generated it, so the gate is a floor, not a race: a faster runner
// passes trivially, while dropping 15% below even the baseline host
// signals a real executor regression. sameInputs, when non-nil, vetoes
// baselines taken with different inputs.
func checkBaseline(path string, cur *engineRow, sameInputs func(base baseline) bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base baseline
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	var prev *engineRow
	for i := range base.Rows {
		if cur != nil && base.Rows[i].Workers == cur.Workers {
			prev = &base.Rows[i]
		}
	}
	if prev == nil || prev.EventsPerSec <= 0 || (sameInputs != nil && !sameInputs(base)) {
		fmt.Printf("baseline %s has no comparable row; skipping throughput gate\n", path)
		return nil
	}
	ratio := cur.EventsPerSec / prev.EventsPerSec
	fmt.Printf("baseline gate: %d-worker %.0f events/sec vs baseline %.0f (%.2fx, floor 0.85x; baseline host GOMAXPROCS=%d, this host %d)\n",
		cur.Workers, cur.EventsPerSec, prev.EventsPerSec, ratio, prev.Gomaxprocs, cur.Gomaxprocs)
	if ratio < 0.85 {
		return fmt.Errorf("%d-worker events/sec regressed %.0f%% below baseline %s",
			cur.Workers, (1-ratio)*100, path)
	}
	return nil
}

// maxWorkers is the largest leg, from -parallel.
func maxWorkers() int { return max(1, *parallelFlag) }

// settlePool steps the world in 50ms increments until the packet-pool
// ledger balances against base (or 2s pass) and returns what is still
// in flight.
func settlePool(v *core.VINI, base packet.PoolStats) int64 {
	for i := 0; i < 40 && packet.Stats().Sub(base).InFlight() != 0; i++ {
		v.Run(v.Loop().Now() + 50*time.Millisecond)
	}
	return packet.Stats().Sub(base).InFlight()
}
