package slo

import (
	"fmt"
	"time"
)

// LatencyObjective declares "quantile of op completions must finish within
// Target": p99 stat < 10ms means 99% of stats under 10ms, so the error
// budget is the remaining 1% — completions slower than Target consume it.
type LatencyObjective struct {
	// Op is the operation class ("stat", "create", ...); "*" covers every
	// class through the aggregate sketch.
	Op string
	// Quantile is the objective quantile in (0,1), e.g. 0.99.
	Quantile float64
	// Target is the latency bound at the quantile.
	Target time.Duration
}

// Budget returns the objective's error budget: the allowed fraction of
// completions over Target.
func (o LatencyObjective) Budget() float64 { return 1 - o.Quantile }

// Name renders the objective for event logs: "latency:stat:p99<10ms".
func (o LatencyObjective) Name() string {
	return fmt.Sprintf("latency:%s:p%g<%v", o.Op, o.Quantile*100, o.Target)
}

// BurnPair is one multi-window burn-rate rule: the alert fires when the
// error-budget burn rate over both the short and the long trailing window
// is at least Rate, and resolves when the long window drops back under.
// Pairing a long window (sustained burn) with a short one (still burning
// now) is the Google SRE construction: the long window keeps one latency
// spike from paging, the short window makes the alert reset fast once the
// cause is fixed.
type BurnPair struct {
	// Name labels the pair in the event log ("fast", "slow").
	Name string
	// Short and Long are the trailing windows; Short < Long <= sketch span.
	Short, Long time.Duration
	// Rate is the burn-rate threshold: 1.0 burns the whole budget exactly
	// over the objective period, higher is faster.
	Rate float64
	// Severity of the resulting alert (fast burns page, slow burns ticket).
	Severity Severity
}

// availability is the cluster availability objective every Spec holds:
// failed operations consume the 1-availability error budget.
const availability = 0.999

// Spec is the declarative SLO of a deployment: sketch geometry, per-op
// latency objectives, and the burn-rate rules that alert on them and on
// the availability objective. A field left zero takes DefaultSpec's
// value, so the zero Spec is DefaultSpec.
type Spec struct {
	// Window is the sketch span (the longest answerable trailing window);
	// Slots is its resolution.
	Window time.Duration
	Slots  int
	// Tick is the evaluation interval of the engine on virtual time.
	Tick time.Duration

	// Latency lists the per-op latency objectives.
	Latency []LatencyObjective
	// Burns lists the multi-window burn-rate rules applied to every
	// objective.
	Burns []BurnPair
}

// DefaultSpec returns the evaluation SLO, scaled to virtual-time campaigns
// that last tens of seconds: availability 99.9%, per-op p99 latency bounds
// wide enough for healthy cross-AZ operation, and a 14.4x fast-burn /
// 3x slow-burn pair over 1s/8s and 4s/12s windows. The windows are short
// on purpose: ops that degrade also complete more slowly, so they are
// underrepresented in completion counts, and a long window would dilute a
// real burn below threshold before the fault ends.
func DefaultSpec() Spec {
	return Spec{
		Window: 24 * time.Second,
		Slots:  96, // 250ms resolution
		Tick:   250 * time.Millisecond,
		Latency: []LatencyObjective{
			{Op: "stat", Quantile: 0.99, Target: 10 * time.Millisecond},
			{Op: "read", Quantile: 0.99, Target: 15 * time.Millisecond},
			{Op: "create", Quantile: 0.99, Target: 40 * time.Millisecond},
			{Op: "*", Quantile: 0.99, Target: 80 * time.Millisecond},
		},
		Burns: []BurnPair{
			{Name: "fast", Short: time.Second, Long: 8 * time.Second, Rate: 14.4, Severity: SevPage},
			{Name: "slow", Short: 4 * time.Second, Long: 12 * time.Second, Rate: 3, Severity: SevTicket},
		},
	}
}

// withDefaults fills each zero field of s from DefaultSpec.
func (s Spec) withDefaults() Spec {
	d := DefaultSpec()
	if s.Window <= 0 {
		s.Window = d.Window
	}
	if s.Slots <= 0 {
		s.Slots = d.Slots
	}
	if s.Tick <= 0 {
		s.Tick = d.Tick
	}
	// nil means "unset" and takes the defaults; an explicit empty non-nil
	// slice means "no latency objectives" and is kept.
	if s.Latency == nil {
		s.Latency = d.Latency
	}
	if len(s.Burns) == 0 {
		s.Burns = d.Burns
	}
	return s
}
