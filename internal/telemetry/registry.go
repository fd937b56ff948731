// Package telemetry is the deterministic observability subsystem: a
// metrics registry keyed by (slice, node, name), a sim-time flight
// recorder whose events carry the executor's merge key (at, dom, seq),
// and first-class queries (packet paths, convergence after failure)
// derived from the recorded control-plane timeline.
//
// Determinism contract: every write happens either from the driver /
// control phase (globally serialized) or from code running inside a
// single time domain (single-threaded by the executor), so counter
// values and recorded events are a pure function of the simulated
// event sequence — identical for any worker count. Snapshots iterate
// in registration order, never map order.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// FNV-1a, matching the executor's schedule digests.
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

func fnvFold(h, v uint64) uint64 { return (h ^ v) * fnvPrime }

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return (h ^ 0xff) * fnvPrime // terminator so "ab","c" != "a","bc"
}

// pad keeps each hot counter on its own cache line: counters are
// sharded by key — each (slice, node, name) cell is written by exactly
// one time domain — so correctness needs only the atomic, but padding
// prevents false sharing between cells updated by different workers.
type pad [56]byte

// Counter is a monotonically increasing uint64. The zero receiver is
// valid and discards writes, so instrumented fast paths need no
// enabled/disabled branch beyond the nil check inlined in each method.
type Counter struct {
	_ pad
	v atomic.Uint64
	_ pad
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Value reads the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable signed value (occupancy, share, last-seen).
type Gauge struct {
	_ pad
	v atomic.Int64
	_ pad
}

// Set stores the gauge value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// value reads the gauge.
func (g *Gauge) value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the fixed bucket count of every histogram: bucket i
// holds samples with value < 2^i microseconds (bucket 0: < 1us), the
// last bucket is unbounded. Fixed power-of-two bounds keep Observe
// allocation-free and snapshots comparable across runs.
const histBuckets = 28

// Histogram records duration samples into power-of-two buckets.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	sum    atomic.Uint64 // nanoseconds
	n      atomic.Uint64
}

// Observe records one duration sample.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	i := bits.Len64(uint64(d / time.Microsecond))
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.counts[i].Add(1)
	h.sum.Add(uint64(d))
	h.n.Add(1)
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the total of all samples in nanoseconds.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Buckets copies the non-cumulative bucket counts.
func (h *Histogram) Buckets() [histBuckets]uint64 {
	var out [histBuckets]uint64
	if h == nil {
		return out
	}
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

type metricKey struct{ slice, node, name string }

type metric struct {
	key  metricKey
	kind metricKind
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// Registry holds metrics keyed by (slice, node, name). Registration is
// get-or-create and must happen from the driver or the serialized
// control phase so registration order — the snapshot order — is
// deterministic; handle reads/writes may then come from any domain.
type Registry struct {
	mu    sync.Mutex
	order []*metric
	index map[metricKey]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[metricKey]*metric)}
}

func (r *Registry) lookup(slice, node, name string, kind metricKind) *metric {
	k := metricKey{slice, node, name}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.index[k]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("telemetry: metric %v re-registered as %v (was %v)", k, kind, m.kind))
		}
		return m
	}
	m := &metric{key: k, kind: kind}
	switch kind {
	case kindCounter:
		m.c = new(Counter)
	case kindGauge:
		m.g = new(Gauge)
	case kindHistogram:
		m.h = new(Histogram)
	}
	r.index[k] = m
	r.order = append(r.order, m)
	return m
}

// Counter returns the counter for the key, creating it on first use.
func (r *Registry) Counter(slice, node, name string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(slice, node, name, kindCounter).c
}

// gauge returns the gauge for the key, creating it on first use.
func (r *Registry) gauge(slice, node, name string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(slice, node, name, kindGauge).g
}

// histogram returns the histogram for the key, creating it on first use.
func (r *Registry) histogram(slice, node, name string) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(slice, node, name, kindHistogram).h
}

// FindCounter returns an existing counter without registering one.
func (r *Registry) FindCounter(slice, node, name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.index[metricKey{slice, node, name}]; ok && m.kind == kindCounter {
		return m.c
	}
	return nil
}

// Retire removes every series whose slice label matches slice (slice
// teardown), returning the number retired. Handles already held by
// publishers stay writable — they just no longer appear in snapshots,
// digests, or exports — so a straggling in-flight event cannot crash.
// A fresh order slice is built rather than compacting in place, because
// snapshot serves capped views of the old backing array.
func (r *Registry) Retire(slice string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	kept := make([]*metric, 0, len(r.order))
	n := 0
	for _, m := range r.order {
		if m.key.slice == slice {
			delete(r.index, m.key)
			n++
			continue
		}
		kept = append(kept, m)
	}
	r.order = kept
	return n
}

// Series returns the number of registered series for the slice label
// (the lifecycle audit asserts zero after teardown).
func (r *Registry) Series(slice string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, m := range r.order {
		if m.key.slice == slice {
			n++
		}
	}
	return n
}

// Scope binds a registry to a (slice, node) pair plus a name prefix,
// so publishers hold one handle factory instead of repeating labels.
type Scope struct {
	reg    *Registry
	slice  string
	node   string
	prefix string
}

// Scope returns a handle factory for (slice, node).
func (r *Registry) Scope(slice, node string) *Scope {
	if r == nil {
		return nil
	}
	return &Scope{reg: r, slice: slice, node: node}
}

// With returns a derived scope whose metric names gain prefix.
func (s *Scope) With(prefix string) *Scope {
	if s == nil {
		return nil
	}
	return &Scope{reg: s.reg, slice: s.slice, node: s.node, prefix: s.prefix + prefix}
}

// Counter registers/fetches a counter under the scope.
func (s *Scope) Counter(name string) *Counter {
	if s == nil {
		return nil
	}
	return s.reg.Counter(s.slice, s.node, s.prefix+name)
}

// Gauge registers/fetches a gauge under the scope.
func (s *Scope) Gauge(name string) *Gauge {
	if s == nil {
		return nil
	}
	return s.reg.gauge(s.slice, s.node, s.prefix+name)
}

// Histogram registers/fetches a histogram under the scope.
func (s *Scope) Histogram(name string) *Histogram {
	if s == nil {
		return nil
	}
	return s.reg.histogram(s.slice, s.node, s.prefix+name)
}

// MetricValue is one snapshotted metric.
type MetricValue struct {
	Slice   string   `json:"slice,omitempty"`
	Node    string   `json:"node,omitempty"`
	Name    string   `json:"name"`
	Kind    string   `json:"kind"`
	Value   uint64   `json:"value,omitempty"`   // counter
	Gauge   int64    `json:"gauge,omitempty"`   // gauge
	Count   uint64   `json:"count,omitempty"`   // histogram samples
	Sum     uint64   `json:"sum,omitempty"`     // histogram total ns
	Buckets []uint64 `json:"buckets,omitempty"` // non-cumulative, trailing zeros trimmed
}

// snapshot captures every metric in registration order.
func (r *Registry) snapshot() []MetricValue {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	order := r.order[:len(r.order):len(r.order)]
	r.mu.Unlock()
	out := make([]MetricValue, 0, len(order))
	for _, m := range order {
		mv := MetricValue{Slice: m.key.slice, Node: m.key.node, Name: m.key.name, Kind: m.kind.String()}
		switch m.kind {
		case kindCounter:
			mv.Value = m.c.Value()
		case kindGauge:
			mv.Gauge = m.g.value()
		case kindHistogram:
			mv.Count = m.h.Count()
			mv.Sum = m.h.Sum()
			b := m.h.Buckets()
			last := -1
			for i, v := range b {
				if v != 0 {
					last = i
				}
			}
			if last >= 0 {
				mv.Buckets = append([]uint64(nil), b[:last+1]...)
			}
		}
		out = append(out, mv)
	}
	return out
}

// Digest folds every metric (labels and values) in registration order.
// Two runs match iff they registered the same metrics in the same
// order with the same final values.
func (r *Registry) Digest() uint64 {
	h := uint64(fnvOffset)
	for _, mv := range r.snapshot() {
		h = fnvString(h, mv.Slice)
		h = fnvString(h, mv.Node)
		h = fnvString(h, mv.Name)
		h = fnvString(h, mv.Kind)
		h = fnvFold(h, mv.Value)
		h = fnvFold(h, uint64(mv.Gauge))
		h = fnvFold(h, mv.Count)
		h = fnvFold(h, mv.Sum)
		for _, b := range mv.Buckets {
			h = fnvFold(h, b)
		}
	}
	return h
}

// WriteJSON writes the snapshot as a JSON array.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.snapshot())
}

// promName maps a registry metric name to a Prometheus metric name.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("vini_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func promLabels(mv MetricValue) string {
	var parts []string
	if mv.Slice != "" {
		parts = append(parts, fmt.Sprintf("slice=%q", mv.Slice))
	}
	if mv.Node != "" {
		parts = append(parts, fmt.Sprintf("node=%q", mv.Node))
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// WritePrometheus writes the snapshot in Prometheus text exposition
// format. Series sharing a metric name are grouped under one # TYPE
// line, preserving first-registration order between groups.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snap := r.snapshot()
	byName := make(map[string][]MetricValue)
	var names []string
	for _, mv := range snap {
		n := promName(mv.Name)
		if _, ok := byName[n]; !ok {
			names = append(names, n)
		}
		byName[n] = append(byName[n], mv)
	}
	for _, n := range names {
		group := byName[n]
		typ := group[0].Kind
		if typ == "histogram" {
			// Exposed as explicit-bucket histogram series.
			if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", n); err != nil {
				return err
			}
			for _, mv := range group {
				labels := promLabels(mv)
				sep := "{"
				if labels != "" {
					sep = labels[:len(labels)-1] + ","
				}
				cum := uint64(0)
				for i, b := range mv.Buckets {
					cum += b
					le := float64(uint64(1)<<uint(i)) * 1e-6 // seconds
					if _, err := fmt.Fprintf(w, "%s_bucket%sle=\"%g\"} %d\n", n, sep, le, cum); err != nil {
						return err
					}
				}
				if _, err := fmt.Fprintf(w, "%s_bucket%sle=\"+Inf\"} %d\n", n, sep, mv.Count); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", n, labels, float64(mv.Sum)*1e-9); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_count%s %d\n", n, labels, mv.Count); err != nil {
					return err
				}
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", n, typ); err != nil {
			return err
		}
		for _, mv := range group {
			v := mv.Value
			if mv.Kind == "gauge" {
				if _, err := fmt.Fprintf(w, "%s%s %d\n", n, promLabels(mv), mv.Gauge); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "%s%s %d\n", n, promLabels(mv), v); err != nil {
				return err
			}
		}
	}
	return nil
}

// sortEvents orders a merged event slice by the executor merge key.
func sortEvents(evs []Event) {
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Dom != b.Dom {
			return a.Dom < b.Dom
		}
		return a.Seq < b.Seq
	})
}
