package sim

import (
	"fmt"
	"math"
	"time"
)

// Stats accumulates scalar samples and reports the summary statistics the
// paper's tables use (mean, standard deviation, min/max, mdev as reported
// by ping).
type Stats struct {
	samples []float64
	sum     float64
}

// Add records one sample.
func (s *Stats) Add(v float64) {
	s.samples = append(s.samples, v)
	s.sum += v
}

// AddDuration records a duration sample in milliseconds, the unit used by
// the paper's ping/jitter tables.
func (s *Stats) AddDuration(d time.Duration) {
	s.Add(float64(d) / float64(time.Millisecond))
}

// N returns the number of samples.
func (s *Stats) N() int { return len(s.samples) }

// Mean returns the sample mean (0 when empty).
func (s *Stats) Mean() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	return s.sum / float64(len(s.samples))
}

// Min returns the smallest sample (0 when empty).
func (s *Stats) Min() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	m := s.samples[0]
	for _, v := range s.samples[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest sample (0 when empty).
func (s *Stats) Max() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	m := s.samples[0]
	for _, v := range s.samples[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Stddev returns the population standard deviation.
func (s *Stats) Stddev() float64 {
	n := len(s.samples)
	if n == 0 {
		return 0
	}
	mean := s.Mean()
	var ss float64
	for _, v := range s.samples {
		d := v - mean
		ss += float64(d * d) // rounded: no fused multiply-add
	}
	return math.Sqrt(ss / float64(n))
}

// Mdev returns mean absolute deviation from the mean, matching the "mdev"
// column printed by ping (Tables 3 and 5 of the paper).
func (s *Stats) Mdev() float64 {
	n := len(s.samples)
	if n == 0 {
		return 0
	}
	mean := s.Mean()
	var ad float64
	for _, v := range s.samples {
		ad += math.Abs(v - mean)
	}
	return ad / float64(n)
}

// String summarises in ping's min/avg/max/mdev format.
func (s *Stats) String() string {
	return fmt.Sprintf("min/avg/max/mdev = %.3f/%.3f/%.3f/%.3f",
		s.Min(), s.Mean(), s.Max(), s.Mdev())
}
