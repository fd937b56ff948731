package main

import (
	"encoding/json"
	"fmt"
	"os"
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

// engineRow is what an engine experiment reports for the world it ran;
// the per-experiment reports embed it and add their own columns.
//
// Events counts fired events: cross-domain hand-offs are typed
// deliveries (no wrapper events), so a fired event is one semantic
// action.
type engineRow struct {
	Events          uint64 `json:"events"`
	Digest          string `json:"digest"`
	Schedule        string `json:"schedule_digest"`
	TelemetryDigest string `json:"telemetry_digest"`
	FlightDigest    string `json:"flight_digest"`
}

// measured is the row of a simtest regime result.
func measured(o *simtest.Outcome) engineRow {
	return engineRow{
		Events:          o.Events,
		Digest:          fmt.Sprintf("%016x", o.Digest),
		Schedule:        fmt.Sprintf("%016x", o.ScheduleDigest),
		TelemetryDigest: fmt.Sprintf("%016x", o.TelemetryDigest),
		FlightDigest:    fmt.Sprintf("%016x", o.FlightDigest),
	}
}

// settlePool steps the world in 50ms increments until the packet-pool
// ledger balances against base (or 2s pass) and returns what is still
// in flight.
func settlePool(v *core.VINI, base packet.PoolStats) int64 {
	for i := 0; i < 40 && packet.Stats().Sub(base).InFlight() != 0; i++ {
		v.Run(v.Loop().Now() + 50*time.Millisecond)
	}
	return packet.Stats().Sub(base).InFlight()
}
