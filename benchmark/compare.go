package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compare prints, per workload and end-to-end metric, both values, the
// ratio with its base, and a verdict against the declared bound:
// "worse" when B exceeds A by more than the bound (and the metric's
// absolute floor), "unresolved" when either run was marked noisy, so a
// neighbour's burst is reported as such and not as a regression, and
// "ok" otherwise. The simulated statistics must be identical.
func compare(w io.Writer, pathA, pathB string) error {
	a, err := readReport(pathA)
	if err != nil {
		return err
	}
	b, err := readReport(pathB)
	if err != nil {
		return err
	}
	if a.Host.NumCPU != b.Host.NumCPU || a.Host.GoVersion != b.Host.GoVersion || a.Host.GOARCH != b.Host.GOARCH {
		fmt.Fprintf(w, "warning: host blocks differ (%+v vs %+v)\n", a.Host, b.Host)
	}
	if a.Seed != b.Seed || a.Seconds != b.Seconds || a.Smoke != b.Smoke {
		return fmt.Errorf("reports are not comparable: seed/seconds/smoke %d/%g/%v vs %d/%g/%v",
			a.Seed, a.Seconds, a.Smoke, b.Seed, b.Seconds, b.Smoke)
	}
	byName := make(map[string]workloadReport)
	for _, wr := range b.Workloads {
		byName[wr.Name] = wr
	}
	fmt.Fprintf(w, "%-22s %-16s %14s %14s %18s %7s  %s\n",
		"workload", "metric", "A", "B", "B/A (base A)", "bound", "verdict")
	worse, diverged := 0, 0
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			continue
		}
		for _, d := range endToEnd {
			va, vb := wa.EndToEnd[d.name].Value, wb.EndToEnd[d.name].Value
			verdict := "ok"
			if vb > va*(1+d.bound) && vb-va > d.floor {
				if wa.Noisy || wb.Noisy {
					verdict = "unresolved"
				} else {
					verdict = "worse"
					worse++
				}
			}
			fmt.Fprintf(w, "%-22s %-16s %14.4f %14.4f %11.4f of %-6.4g %6.0f%%  %s\n",
				wa.Name, d.name, va, vb, ratio(vb, va), va, 100*d.bound, verdict)
		}
		same := wa.Stats == wb.Stats
		if !same {
			diverged++
		}
		fmt.Fprintf(w, "%-22s simulated statistics identical: %v (events=%d sent=%d delivered=%d digest=%s)\n",
			wa.Name, same, wa.Stats.Events, wa.Stats.Sent, wa.Stats.Delivered, wa.Stats.ScheduleDigest)
	}
	if worse > 0 || diverged > 0 {
		return fmt.Errorf("%d metric(s) worse than their bound, %d workload(s) with diverging simulated statistics", worse, diverged)
	}
	return nil
}
