package topology

// REPETITA dataset loader. The REPETITA repository (PAPERS.md) bundles
// 260+ real ISP topologies with traffic-engineering demand matrices in
// a simple line-oriented text format:
//
//	NODES <n>
//	label x y
//	<name> <x> <y>          (n rows)
//
//	EDGES <m>
//	label src dest weight bw delay
//	<name> <si> <di> <w> <kbps> <usec>   (m rows; directed, node indices)
//
//	DEMANDS <k>
//	label src dest bw
//	<name> <si> <di> <kbps>              (k rows)
//
// Bandwidths are kilobits per second and delays microseconds. Directed
// edge pairs fold into this package's undirected Link with per-direction
// costs; a direction that never appears inherits the other's weight.

import (
	"bufio"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Demand is one origin-destination entry of a traffic matrix.
type Demand struct {
	Src, Dst string
	// RateBps is the offered load in bits per second.
	RateBps float64
}

// DemandMatrix is a parsed REPETITA demand file.
type DemandMatrix struct {
	Demands []Demand
}

// repScanner walks non-blank lines with position tracking for errors.
type repScanner struct {
	sc   *bufio.Scanner
	line int
}

func newRepScanner(text string) *repScanner {
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return &repScanner{sc: sc}
}

// next returns the fields of the next non-blank line.
func (s *repScanner) next() ([]string, error) {
	for s.sc.Scan() {
		s.line++
		f := strings.Fields(s.sc.Text())
		if len(f) > 0 {
			return f, nil
		}
	}
	if err := s.sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("line %d: unexpected end of input", s.line)
}

// section reads a "<KEYWORD> <count>" section header followed by its
// column-label line, returning the count.
func (s *repScanner) section(keyword string, maxCount int) (int, error) {
	f, err := s.next()
	if err != nil {
		return 0, err
	}
	if len(f) != 2 || f[0] != keyword {
		return 0, fmt.Errorf("line %d: expected %q header, got %q", s.line, keyword, strings.Join(f, " "))
	}
	n, err := strconv.Atoi(f[1])
	if err != nil || n < 0 {
		return 0, fmt.Errorf("line %d: bad %s count %q", s.line, keyword, f[1])
	}
	if n > maxCount {
		return 0, fmt.Errorf("line %d: %s count %d exceeds limit %d", s.line, keyword, n, maxCount)
	}
	if f, err = s.next(); err != nil {
		return 0, err
	}
	if f[0] != "label" {
		return 0, fmt.Errorf("line %d: expected %s column labels, got %q", s.line, keyword, f[0])
	}
	return n, nil
}

// finite parses a float that must be finite and non-negative (NaN,
// infinities, and negative values are malformed input, not data).
func (s *repScanner) finite(field, what string) (float64, error) {
	v, err := s.coord(field, what)
	if err != nil {
		return 0, err
	}
	if v < 0 {
		return 0, fmt.Errorf("line %d: %s %q not a finite non-negative number", s.line, what, field)
	}
	return v, nil
}

// coord parses a float that must merely be finite: node coordinates are
// positions (real datasets store longitude/latitude, so negatives are
// data, not errors).
func (s *repScanner) coord(field, what string) (float64, error) {
	v, err := strconv.ParseFloat(field, 64)
	if err != nil {
		return 0, fmt.Errorf("line %d: bad %s %q", s.line, what, field)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("line %d: %s %q not a finite number", s.line, what, field)
	}
	return v, nil
}

// nodeIndex parses a node index within [0, n).
func (s *repScanner) nodeIndex(field, what string, n int) (int, error) {
	i, err := strconv.Atoi(field)
	if err != nil || i < 0 || i >= n {
		return 0, fmt.Errorf("line %d: %s %q outside [0, %d)", s.line, what, field, n)
	}
	return i, nil
}

// Sanity bounds: the largest REPETITA topologies (Rocketfuel-derived)
// stay well under these; anything bigger is malformed input.
const (
	maxRepNodes   = 100000
	maxRepEdges   = 1000000
	maxRepDemands = 5000000
)

// ParseRepetita parses a REPETITA .graph file into an undirected Graph
// plus the node-name table (index order, as demand files reference
// nodes by index). Directed edge pairs merge into one Link with
// per-direction costs; duplicate same-direction edges, self-loops, and
// non-finite bandwidths/delays are errors.
func ParseRepetita(text string) (*Graph, []string, error) {
	s := newRepScanner(text)
	n, err := s.section("NODES", maxRepNodes)
	if err != nil {
		return nil, nil, fmt.Errorf("topology: repetita: %w", err)
	}
	names := make([]string, n)
	seen := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		f, err := s.next()
		if err != nil {
			return nil, nil, fmt.Errorf("topology: repetita: nodes: %w", err)
		}
		if len(f) != 3 {
			return nil, nil, fmt.Errorf("topology: repetita: line %d: node row needs 3 fields, got %d", s.line, len(f))
		}
		if _, err := s.coord(f[1], "node x"); err != nil {
			return nil, nil, fmt.Errorf("topology: repetita: %w", err)
		}
		if _, err := s.coord(f[2], "node y"); err != nil {
			return nil, nil, fmt.Errorf("topology: repetita: %w", err)
		}
		if seen[f[0]] {
			return nil, nil, fmt.Errorf("topology: repetita: line %d: duplicate node %q", s.line, f[0])
		}
		seen[f[0]] = true
		names[i] = f[0]
	}
	m, err := s.section("EDGES", maxRepEdges)
	if err != nil {
		return nil, nil, fmt.Errorf("topology: repetita: %w", err)
	}
	// One directed edge's data, keyed by canonical (min,max) node pair.
	type half struct {
		bw         float64
		delay      time.Duration
		fwd, rev   bool
		wFwd, wRev uint32
	}
	order := make([][2]int, 0, m)
	pairs := make(map[[2]int]*half, m)
	for i := 0; i < m; i++ {
		f, err := s.next()
		if err != nil {
			return nil, nil, fmt.Errorf("topology: repetita: edges: %w", err)
		}
		if len(f) != 6 {
			return nil, nil, fmt.Errorf("topology: repetita: line %d: edge row needs 6 fields, got %d", s.line, len(f))
		}
		src, err := s.nodeIndex(f[1], "edge src", n)
		if err != nil {
			return nil, nil, fmt.Errorf("topology: repetita: %w", err)
		}
		dst, err := s.nodeIndex(f[2], "edge dest", n)
		if err != nil {
			return nil, nil, fmt.Errorf("topology: repetita: %w", err)
		}
		if src == dst {
			return nil, nil, fmt.Errorf("topology: repetita: line %d: self-loop at node %d", s.line, src)
		}
		w, err := s.finite(f[3], "edge weight")
		if err != nil {
			return nil, nil, fmt.Errorf("topology: repetita: %w", err)
		}
		if w > math.MaxUint32 {
			return nil, nil, fmt.Errorf("topology: repetita: line %d: edge weight %v overflows", s.line, w)
		}
		bw, err := s.finite(f[4], "edge bandwidth")
		if err != nil {
			return nil, nil, fmt.Errorf("topology: repetita: %w", err)
		}
		us, err := s.finite(f[5], "edge delay")
		if err != nil {
			return nil, nil, fmt.Errorf("topology: repetita: %w", err)
		}
		key := [2]int{src, dst}
		forward := true
		if dst < src {
			key = [2]int{dst, src}
			forward = false
		}
		h := pairs[key]
		if h == nil {
			h = &half{bw: bw * 1000, delay: time.Duration(us * float64(time.Microsecond))}
			pairs[key] = h
			order = append(order, key)
		}
		if forward {
			if h.fwd {
				return nil, nil, fmt.Errorf("topology: repetita: line %d: duplicate edge %d->%d", s.line, src, dst)
			}
			h.fwd, h.wFwd = true, uint32(w)
		} else {
			if h.rev {
				return nil, nil, fmt.Errorf("topology: repetita: line %d: duplicate edge %d->%d", s.line, src, dst)
			}
			h.rev, h.wRev = true, uint32(w)
		}
	}
	g := New()
	for i := 0; i < n; i++ {
		g.AddNode(names[i])
	}
	for _, key := range order {
		h := pairs[key]
		// A missing direction inherits the other's weight (REPETITA
		// files normally carry both).
		if !h.fwd {
			h.wFwd = h.wRev
		}
		if !h.rev {
			h.wRev = h.wFwd
		}
		if err := g.AddLink(Link{
			A: names[key[0]], B: names[key[1]],
			CostAB: h.wFwd, CostBA: h.wRev,
			Delay: h.delay, Bandwidth: h.bw,
		}); err != nil {
			return nil, nil, fmt.Errorf("topology: repetita: %w", err)
		}
	}
	return g, names, nil
}

// ParseRepetitaDemands parses a REPETITA .demands file against the node
// table returned by ParseRepetita. Demands with non-finite or negative
// rates are errors; zero-rate demands are kept (an experiment may scale
// them later).
func ParseRepetitaDemands(text string, names []string) (*DemandMatrix, error) {
	s := newRepScanner(text)
	k, err := s.section("DEMANDS", maxRepDemands)
	if err != nil {
		return nil, fmt.Errorf("topology: repetita demands: %w", err)
	}
	out := &DemandMatrix{Demands: make([]Demand, 0, k)}
	for i := 0; i < k; i++ {
		f, err := s.next()
		if err != nil {
			return nil, fmt.Errorf("topology: repetita demands: %w", err)
		}
		if len(f) != 4 {
			return nil, fmt.Errorf("topology: repetita demands: line %d: demand row needs 4 fields, got %d", s.line, len(f))
		}
		src, err := s.nodeIndex(f[1], "demand src", len(names))
		if err != nil {
			return nil, fmt.Errorf("topology: repetita demands: %w", err)
		}
		dst, err := s.nodeIndex(f[2], "demand dest", len(names))
		if err != nil {
			return nil, fmt.Errorf("topology: repetita demands: %w", err)
		}
		if src == dst {
			return nil, fmt.Errorf("topology: repetita demands: line %d: demand %d->%d loops", s.line, src, dst)
		}
		kbps, err := s.finite(f[3], "demand bandwidth")
		if err != nil {
			return nil, fmt.Errorf("topology: repetita demands: %w", err)
		}
		out.Demands = append(out.Demands, Demand{
			Src: names[src], Dst: names[dst], RateBps: kbps * 1000})
	}
	return out, nil
}
