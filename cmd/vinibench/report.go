package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"time"

	"vini/internal/core"
	"vini/internal/packet"
	"vini/internal/simtest"
)

// encodeReport renders a report the way BENCH_*.json files are stored.
func encodeReport(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	return append(data, '\n'), err
}

// writeReport writes a report to BENCH_<name>.json in the working
// directory.
func writeReport(name string, v any) error {
	data, err := encodeReport(v)
	if err != nil {
		return err
	}
	file := "BENCH_" + name + ".json"
	if err := os.WriteFile(file, data, 0o644); err != nil {
		return err
	}
	fmt.Println("wrote " + file)
	return nil
}

// engineRow is what an engine benchmark reports for the world it ran;
// the per-experiment row types embed it and add their own columns.
//
// Events counts fired events: cross-domain hand-offs are typed
// deliveries (no wrapper events), so a fired event is one semantic
// action.
type engineRow struct {
	// Workers lists the worker counts that produced this row. By the
	// parity contract every count produces the same one.
	Workers         []int  `json:"workers"`
	Events          uint64 `json:"events"`
	Digest          string `json:"digest,omitempty"`
	Schedule        string `json:"schedule_digest"`
	TelemetryDigest string `json:"telemetry_digest,omitempty"`
	FlightDigest    string `json:"flight_digest,omitempty"`
}

func (r *engineRow) engine() *engineRow { return r }

// engineLeg is any row type that embeds engineRow.
type engineLeg interface{ engine() *engineRow }

// measured is a leg's row from a simtest regime result.
func measured(o *simtest.Outcome) engineRow {
	return engineRow{
		Events:          o.Events,
		Digest:          fmt.Sprintf("%016x", o.Digest),
		Schedule:        fmt.Sprintf("%016x", o.ScheduleDigest),
		TelemetryDigest: fmt.Sprintf("%016x", o.TelemetryDigest),
		FlightDigest:    fmt.Sprintf("%016x", o.FlightDigest),
	}
}

// engineLegs is the rows block of an engine benchmark plus the two
// determinism verdicts forEngines reaches.
type engineLegs[R engineLeg] struct {
	// Rows holds one row per distinct result: one when the engine is
	// deterministic, one per diverging group of worker counts when not.
	Rows []R `json:"rows"`
	// DigestsAgree reports whether every worker count produced the same
	// row; ReplayDigestsMatch whether a second seeded one-worker run
	// reproduced the first.
	DigestsAgree       bool `json:"sharded_digests_agree"`
	ReplayDigestsMatch bool `json:"replay_digests_match"`
}

// forEngines is the one engine loop: it runs fn on 1, 2, 4, … -parallel
// workers, groups the legs whose rows are equal in every reported field,
// and reruns the one-worker leg to cross-check that a seeded replay
// reproduces it. fn measures one leg, prints its line under the columns
// heading and returns the row without Workers set.
func forEngines[R engineLeg](columns string, fn func(workers int) (R, error)) (engineLegs[R], error) {
	var legs engineLegs[R]
	var keys []string
	leg := func(w int) (row R, key string, err error) {
		if row, err = fn(w); err != nil {
			return row, "", fmt.Errorf("workers=%d: %w", w, err)
		}
		data, err := json.Marshal(row)
		return row, string(data), err
	}
	fmt.Println(columns)
	for w := 1; w <= maxWorkers(); w *= 2 {
		row, key, err := leg(w)
		if err != nil {
			return legs, err
		}
		i := slices.Index(keys, key)
		if i < 0 {
			i = len(keys)
			keys = append(keys, key)
			legs.Rows = append(legs.Rows, row)
		}
		e := legs.Rows[i].engine()
		e.Workers = append(e.Workers, w)
	}
	fmt.Println("replaying the x1 leg:")
	_, replay, err := leg(1)
	if err != nil {
		return legs, err
	}
	legs.DigestsAgree = len(legs.Rows) == 1
	legs.ReplayDigestsMatch = replay == keys[0]
	if legs.DigestsAgree {
		fmt.Printf("workers %v produced one row, schedule digest %s\n", legs.Rows[0].engine().Workers, legs.Rows[0].engine().Schedule)
	} else {
		fmt.Println("DETERMINISM VIOLATION: rows diverged across worker counts")
	}
	if legs.ReplayDigestsMatch {
		fmt.Println("replay cross-check: second seeded x1 run reproduced the row")
	} else {
		fmt.Println("DETERMINISM VIOLATION: seeded x1 reruns diverged")
	}
	return legs, nil
}

// gate writes the report and then fails on either determinism verdict.
// The report is written first so CI uploads it even when a check fails.
func (l engineLegs[R]) gate(name string, report any) error {
	if err := writeReport(name, report); err != nil {
		return err
	}
	switch {
	case !l.DigestsAgree:
		return fmt.Errorf("rows diverged across worker counts")
	case !l.ReplayDigestsMatch:
		return fmt.Errorf("replay diverged")
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
