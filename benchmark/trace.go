package main

// Outside-in tracing: spans are recorded by the benchmark's own files
// around its calls into each layer, kept in memory, and written out
// when the run ends. Nothing inside internal/ is instrumented.

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call. Parent is the index of the enclosing span in
// the same run (-1 at top level).
type span struct {
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
}

// tracer records spans relative to its creation time. A nil *tracer is
// the untraced run: begin and end are no-ops, so the build and run
// paths are written once.
type tracer struct {
	t0       time.Time
	workload string
	spans    []span
	open     []int
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload, spans: make([]span, 0, 1<<14)}
}

func (t *tracer) begin(name, layer string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Layer: layer, Parent: parent,
		Workload: t.workload, StartNS: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].EndNS = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// spanStat aggregates every span of one name.
type spanStat struct {
	Name   string  `json:"name"`
	Layer  string  `json:"layer"`
	Calls  int     `json:"calls"`
	WallMS float64 `json:"wall_ms"`
	// SelfMS is wall minus the part covered by child spans.
	SelfMS float64 `json:"self_ms"`
}

// aggregate folds spans by name, computing self time as each span's
// duration minus its children's.
func aggregate(spans []span) []spanStat {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	by := make(map[string]*spanStat)
	for i, s := range spans {
		st := by[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name, Layer: s.Layer}
			by[s.Name] = st
		}
		d := s.EndNS - s.StartNS
		st.Calls++
		st.WallMS += float64(d) / 1e6
		st.SelfMS += float64(d-child[i]) / 1e6
	}
	out := make([]spanStat, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, loadable in chrome://tracing and Perfetto.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes every workload's spans as one trace file,
// one process row per workload.
func writeChromeTrace(path string, byWorkload map[string][]span, order []string) error {
	var events []chromeEvent
	for pid, wl := range order {
		events = append(events, chromeEvent{Name: "process_name", Ph: "M", PID: pid + 1,
			Args: map[string]any{"name": wl}})
		for _, s := range byWorkload[wl] {
			events = append(events, chromeEvent{Name: s.Name, Cat: s.Layer, Ph: "X",
				TS: float64(s.StartNS) / 1e3, Dur: float64(s.EndNS-s.StartNS) / 1e3,
				PID: pid + 1, TID: 1, Args: map[string]any{"parent": s.Parent}})
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
