package sched

import (
	"time"

	"vini/internal/sim"
)

// HogConfig describes a background slice that alternates between bursts
// of CPU-bound work and idle periods — the "other users on a shared
// system" whose contention the PlanetLab microbenchmarks (Section 5.1.2)
// measure. Burst and idle durations are drawn from bounded Pareto
// distributions, matching the heavy-tailed behaviour of batch slices.
type HogConfig struct {
	Name string
	// Share is the hog slice's fair share (token fill rate).
	Share float64
	// MeanBusy and MeanIdle set the duty cycle.
	MeanBusy, MeanIdle time.Duration
	// Seed stream for this hog.
	RNG *sim.RNG
}

// Hog is a running background slice.
type Hog struct {
	task *Task
	cfg  HogConfig
	busy bool
}

// StartHog registers and starts a background slice on cpu, timed by
// cpu's clock.
func StartHog(cpu *CPU, cfg HogConfig) *Hog {
	if cfg.RNG == nil {
		cfg.RNG = sim.NewRNG(1)
	}
	h := &Hog{cfg: cfg}
	h.task = cpu.NewTask(TaskConfig{
		Name:  cfg.Name,
		Share: cfg.Share,
		Work: func(budget time.Duration) (time.Duration, bool) {
			if !h.busy {
				return 0, false
			}
			return budget, true // CPU-bound while busy
		},
	})
	h.scheduleBusy()
	return h
}

func (h *Hog) scheduleBusy() {
	idle := h.draw(h.cfg.MeanIdle)
	clock := h.task.cpu.clock
	clock.Schedule(idle, func() {
		h.busy = true
		h.task.Wake()
		busy := h.draw(h.cfg.MeanBusy)
		clock.Schedule(busy, func() {
			h.busy = false
			h.scheduleBusy()
		})
	})
}

// draw samples a bounded Pareto with the given mean (alpha 1.5, bounded
// to [mean/5, mean*8] which keeps the sample mean near the target).
func (h *Hog) draw(mean time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	m := float64(mean)
	v := h.cfg.RNG.Pareto(1.5, m/5, m*8)
	// The bounded Pareto(1.5) over [m/5, 8m] has mean ~0.53m; rescale so
	// the configured mean is honoured.
	return time.Duration(v / 0.53)
}
