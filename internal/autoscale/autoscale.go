// Package autoscale decides when to grow and shrink the stateless metadata
// serving tier. The controller is deliberately boring: it reads two signals
// — NN thread-pool utilization and the live SLO engine's rolling p99 — and
// applies threshold rules with hysteresis (consecutive-evaluation streaks on
// both directions) and a post-actuation cooldown, because a flapping
// autoscaler is worse than a static fleet. Scaling up is eager (an extra
// step when a burn-rate page is firing, since by then users are already
// hurting); scaling down is lazy (longer streak, lower threshold), which is
// the standard asymmetry: the cost of a spare server for a few virtual
// hours is small against the cost of a latency cliff.
//
// The controller is a pure function of its inputs plus its own streak
// state: no wall clock, no randomness, so a run is byte-identical per seed
// and the scale-event log can be golden-tested.
package autoscale

import (
	"fmt"
	"strings"
	"time"
)

// Config parameterizes the controller.
type Config struct {
	// Min and Max clamp the serving-server count.
	Min, Max int
	// TargetP99 is the latency objective the controller defends; the p99
	// signal is compared against it directly.
	TargetP99 time.Duration
	// UpUtil and DownUtil are the utilization thresholds: above UpUtil (or
	// above TargetP99) counts toward scaling up, below DownUtil (with p99
	// comfortably under target) counts toward scaling down.
	UpUtil, DownUtil float64
	// UpStreak and DownStreak are how many consecutive evaluations must
	// agree before acting — the hysteresis that stops flapping.
	UpStreak, DownStreak int
	// Cooldown suppresses further actions after one fires, long enough for
	// the previous action's effect to show up in the signals.
	Cooldown time.Duration
	// UpStep is how many servers one action adds. A firing SLO page doubles
	// it (emergency growth).
	UpStep int
}

// downStep is how many servers one action drains: scaling down is lazy, one
// server at a time, so a drain past Min cannot happen.
const downStep = 1

// DefaultConfig returns thresholds tuned for the compressed-day elastic
// experiments: evaluations every few tens of milliseconds of virtual time,
// days a few seconds long.
func DefaultConfig() Config {
	return Config{
		Min:        1,
		Max:        8,
		TargetP99:  30 * time.Millisecond,
		UpUtil:     0.70,
		DownUtil:   0.30,
		UpStreak:   2,
		DownStreak: 6,
		Cooldown:   200 * time.Millisecond,
		UpStep:     1,
	}
}

// Validate reports the first structural problem of a config.
func (c Config) Validate() error {
	if c.Min < 1 || c.Max < c.Min {
		return fmt.Errorf("autoscale: need 1 <= Min <= Max (got %d..%d)", c.Min, c.Max)
	}
	if c.TargetP99 <= 0 {
		return fmt.Errorf("autoscale: need a positive TargetP99")
	}
	if c.UpUtil <= c.DownUtil {
		return fmt.Errorf("autoscale: need DownUtil < UpUtil (got %g >= %g)", c.DownUtil, c.UpUtil)
	}
	if c.UpStreak < 1 || c.DownStreak < 1 {
		return fmt.Errorf("autoscale: streaks must be >= 1")
	}
	if c.UpStep < 1 {
		return fmt.Errorf("autoscale: UpStep must be >= 1")
	}
	return nil
}

// Signals is one evaluation's view of the cluster.
type Signals struct {
	// Serving is the current serving-server count.
	Serving int
	// Util is the mean NN thread-pool utilization in [0,1].
	Util float64
	// P99 is the rolling cluster p99 latency (0 when the window is empty).
	P99 time.Duration
	// Firing is the number of page-severity SLO alerts currently firing.
	Firing int
}

// Event is one scale action, recorded for the experiment log.
type Event struct {
	// At is the virtual instant the controller decided.
	At time.Duration
	// Delta is the server count change (positive grows, negative drains).
	Delta int
	// From and To are the serving counts before and after.
	From, To int
	// Reason is the signal summary that triggered the action.
	Reason string
}

// String renders the event as one fixed-layout log line.
func (e Event) String() string {
	return fmt.Sprintf("%10s  SCALE %+d  %d->%d  %s",
		fmt.Sprintf("%.3fs", e.At.Seconds()), e.Delta, e.From, e.To, e.Reason)
}

// RenderEvents renders a scale-event log, one line per event.
func RenderEvents(evs []Event) string {
	var b strings.Builder
	for _, e := range evs {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Controller evaluates signals into scale decisions.
type Controller struct {
	cfg Config

	upRuns, downRuns int
	lastAction       time.Duration
	acted            bool
	events           []Event
}

// New returns a controller; cfg must Validate.
func New(cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Controller{cfg: cfg}, nil
}

// Events returns the scale actions decided so far, in order.
func (c *Controller) Events() []Event { return c.events }

// Evaluate consumes one signal sample and returns the server-count delta to
// apply now (0 for no action) with the reason. The caller actuates the
// delta; the controller assumes it lands.
func (c *Controller) Evaluate(now time.Duration, s Signals) (delta int, reason string) {
	cfg := c.cfg
	if c.acted && now-c.lastAction < cfg.Cooldown {
		return 0, "cooldown"
	}

	overLatency := s.P99 > cfg.TargetP99
	wantUp := s.Util > cfg.UpUtil || overLatency || s.Firing > 0
	// Scale-down wants both a quiet CPU and comfortable latency headroom
	// (half the target), so a latency-bound cluster with idle CPUs is not
	// drained further.
	wantDown := s.Util < cfg.DownUtil && s.P99 < cfg.TargetP99/2 && s.Firing == 0

	if wantUp {
		c.upRuns++
		c.downRuns = 0
	} else if wantDown {
		c.downRuns++
		c.upRuns = 0
	} else {
		c.upRuns, c.downRuns = 0, 0
	}

	switch {
	case wantUp && c.upRuns >= cfg.UpStreak && s.Serving < cfg.Max:
		step := cfg.UpStep
		why := fmt.Sprintf("util %.2f p99 %.1fms", s.Util, float64(s.P99)/float64(time.Millisecond))
		if s.Firing > 0 {
			// A page means the error budget is burning now: grow harder.
			step *= 2
			why += fmt.Sprintf(" firing %d", s.Firing)
		}
		if s.Serving+step > cfg.Max {
			step = cfg.Max - s.Serving
		}
		c.record(now, step, s.Serving, why)
		return step, why
	case wantDown && c.downRuns >= cfg.DownStreak && s.Serving > cfg.Min:
		why := fmt.Sprintf("util %.2f p99 %.1fms idle", s.Util, float64(s.P99)/float64(time.Millisecond))
		c.record(now, -downStep, s.Serving, why)
		return -downStep, why
	}
	return 0, ""
}

func (c *Controller) record(now time.Duration, delta, from int, reason string) {
	c.upRuns, c.downRuns = 0, 0
	c.lastAction = now
	c.acted = true
	c.events = append(c.events, Event{At: now, Delta: delta, From: from, To: from + delta, Reason: reason})
}
