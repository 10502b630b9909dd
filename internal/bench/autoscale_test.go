package bench

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestElasticSmoke runs the autoscaled mode over the recorded week and
// asserts the controller actually worked the tier: multiple scale-ups,
// at least one drain, every audit checkpoint clean, every quiesce drained.
func TestElasticSmoke(t *testing.T) {
	r, err := RunElastic(ModeElastic, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.ScaleUps < 2 {
		t.Errorf("scale-ups = %d, want >= 2\n%s", r.ScaleUps, r.Events)
	}
	if r.ScaleDowns < 1 {
		t.Errorf("scale-downs = %d, want >= 1\n%s", r.ScaleDowns, r.Events)
	}
	if len(r.Violations) != 0 {
		t.Errorf("audit violations: %v", r.Violations)
	}
	if r.FailedQuiesces != 0 {
		t.Errorf("%d quiesce(s) failed to drain", r.FailedQuiesces)
	}
	if r.Checkpoints == 0 {
		t.Error("no audit checkpoints ran")
	}
	if r.Ops == 0 {
		t.Error("no operations completed")
	}
	if r.MaxServing > maxServers || r.MinServing < minServers {
		t.Errorf("serving range %d..%d escaped the 2..6 bounds", r.MinServing, r.MaxServing)
	}
	if len(r.Timeline) == 0 {
		t.Error("the timeline captured no frames")
	}
}

// TestElasticStaticModesAudit runs both static baselines over the week and
// asserts their single settled audit is clean (the elastic comparison is
// only fair when the baselines hold the same invariants).
func TestElasticStaticModesAudit(t *testing.T) {
	for _, m := range []ElasticMode{ModeStaticMin, ModeStaticPeak} {
		r, err := RunElastic(m, 1)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if len(r.Violations) != 0 {
			t.Errorf("%s: audit violations: %v", m, r.Violations)
		}
		if got := r.ScaleUps + r.ScaleDowns; got != 0 {
			t.Errorf("%s: static mode recorded %d scale events", m, got)
		}
	}
}

// TestElasticDeterminism: the same seed must replay a byte-identical
// scale-event log and identical op counts across runs.
func TestElasticDeterminism(t *testing.T) {
	run := func() (string, int64, time.Duration) {
		r, err := RunElastic(ModeElastic, 7)
		if err != nil {
			t.Fatal(err)
		}
		return r.Events, r.Ops, r.OverSLO
	}
	ev1, ops1, over1 := run()
	ev2, ops2, over2 := run()
	if ev1 != ev2 {
		t.Errorf("scale-event logs differ across runs of seed 7:\n%s\nvs\n%s", ev1, ev2)
	}
	if ops1 != ops2 || over1 != over2 {
		t.Errorf("run stats differ: ops %d vs %d, over-SLO %v vs %v", ops1, ops2, over1, over2)
	}
	if ev1 == "" {
		t.Error("no scale events at all; the determinism check is vacuous")
	}
}

// The controller's behaviours, each against the recorded thresholds: min 2,
// max 6, target p99 20ms, utilization 0.70/0.30, streaks 3/10, cooldown
// 250ms.

// hotSample is a sample over upUtil with latency well under target.
var hotSample = signals{serving: 2, util: 0.9, p99: 5 * time.Millisecond}

// feed evaluates s at instants 0, tick, 2*tick, ... from at, n times, and
// returns every delta.
func feed(c *controller, at, tick time.Duration, n int, s signals) []int {
	out := make([]int, n)
	for i := range out {
		out[i], _ = c.evaluate(at+time.Duration(i)*tick, s)
	}
	return out
}

func TestControllerUpStreakRequired(t *testing.T) {
	var c controller
	got := feed(&c, 0, 10*time.Millisecond, upStreak, hotSample)
	for i, d := range got[:upStreak-1] {
		if d != 0 {
			t.Fatalf("scaled up after %d hot samples (delta %d)", i+1, d)
		}
	}
	if d := got[upStreak-1]; d != upStep {
		t.Fatalf("delta %d after a %d-sample streak, want %d", d, upStreak, upStep)
	}
}

func TestControllerCalmSampleResetsStreak(t *testing.T) {
	var c controller
	calm := signals{serving: 2, util: 0.5, p99: 15 * time.Millisecond}
	feed(&c, 0, time.Millisecond, upStreak-1, hotSample)
	c.evaluate(10*time.Millisecond, calm)
	if got := feed(&c, 20*time.Millisecond, time.Millisecond, upStreak-1, hotSample); got[upStreak-2] != 0 {
		t.Fatalf("the streak survived a calm sample (delta %d)", got[upStreak-2])
	}
	if d, _ := c.evaluate(30*time.Millisecond, hotSample); d != upStep {
		t.Fatalf("delta %d after a fresh streak, want %d", d, upStep)
	}
}

func TestControllerCooldownSuppresses(t *testing.T) {
	var c controller
	feed(&c, 0, time.Millisecond, upStreak, hotSample)
	acted := time.Duration(upStreak-1) * time.Millisecond
	busy := signals{serving: 3, util: 0.9}
	if d, reason := c.evaluate(acted+cooldown-time.Nanosecond, busy); d != 0 || reason != "cooldown" {
		t.Fatalf("cooldown not enforced (delta %d, reason %q)", d, reason)
	}
	// Samples inside the cooldown count toward no streak.
	got := feed(&c, acted+cooldown, time.Millisecond, upStreak, busy)
	if got[upStreak-2] != 0 || got[upStreak-1] != upStep {
		t.Fatalf("deltas after the cooldown = %v, want a scale-up on sample %d", got, upStreak)
	}
}

func TestControllerFiringDoublesStep(t *testing.T) {
	var c controller
	paged := signals{serving: 2, util: 0.5, p99: 5 * time.Millisecond, firing: 1}
	feed(&c, 0, time.Millisecond, upStreak-1, paged)
	if d, reason := c.evaluate(time.Second, paged); d != 2*upStep || !strings.Contains(reason, "firing 1") {
		t.Fatalf("emergency step = %d (%q), want %d", d, reason, 2*upStep)
	}
}

func TestControllerClampsAtMax(t *testing.T) {
	var c controller
	paged := signals{serving: maxServers - 1, util: 0.9, firing: 1}
	if got := feed(&c, 0, time.Millisecond, upStreak, paged); got[upStreak-1] != 1 {
		t.Fatalf("delta %d from %d servers breaches max %d", got[upStreak-1], maxServers-1, maxServers)
	}
	at := signals{serving: maxServers, util: 0.95, firing: 2}
	for i, d := range feed(&c, time.Second, time.Millisecond, 2*upStreak, at) {
		if d != 0 {
			t.Fatalf("sample %d scaled past max (delta %d)", i, d)
		}
	}
}

func TestControllerDrainsLazilyAndNotBelowMin(t *testing.T) {
	var c controller
	idle := signals{serving: minServers + 1, util: 0.1, p99: 2 * time.Millisecond}
	got := feed(&c, 0, 10*time.Millisecond, downStreak, idle)
	for i, d := range got[:downStreak-1] {
		if d != 0 {
			t.Fatalf("drained after %d idle samples", i+1)
		}
	}
	if d := got[downStreak-1]; d != -downStep {
		t.Fatalf("delta %d after a %d-sample idle streak, want %d", d, downStreak, -downStep)
	}
	// At min nothing more drains, however long the idle streak.
	atMin := signals{serving: minServers, util: 0.05, p99: time.Millisecond}
	for i, d := range feed(&c, time.Second, 50*time.Millisecond, 3*downStreak, atMin) {
		if d != 0 {
			t.Fatalf("sample %d drained below min (delta %d)", i, d)
		}
	}
}

// TestControllerDrainNeedsLatencyHeadroom: idle CPUs alone do not drain a
// server; p99 must also sit under half the target.
func TestControllerDrainNeedsLatencyHeadroom(t *testing.T) {
	var c controller
	slow := signals{serving: 4, util: 0.1, p99: targetP99 / 2}
	for i, d := range feed(&c, 0, 50*time.Millisecond, 2*downStreak, slow) {
		if d != 0 {
			t.Fatalf("sample %d drained a cluster at p99 %v (delta %d)", i, slow.p99, d)
		}
	}
	slow.p99 = targetP99/2 - time.Microsecond
	if got := feed(&c, 2*time.Second, 50*time.Millisecond, downStreak, slow); got[downStreak-1] != -downStep {
		t.Fatalf("no drain at p99 %v after a %d-sample streak: %v", slow.p99, downStreak, got)
	}
}

// TestEventLogDeterministic: a fixed signal sequence (hot, calm, then idle)
// drives the controller to the same scale-event log every time, and that
// log holds both directions.
func TestEventLogDeterministic(t *testing.T) {
	run := func() string {
		var c controller
		serving := minServers
		for i := 0; i < 60; i++ {
			var s signals
			switch {
			case i < 10:
				s = signals{util: 0.9, p99: 40 * time.Millisecond}
			case i < 30:
				s = signals{util: 0.5, p99: 10 * time.Millisecond}
			default:
				s = signals{util: 0.1, p99: 2 * time.Millisecond}
			}
			s.serving = serving
			d, _ := c.evaluate(time.Duration(i)*50*time.Millisecond, s)
			serving += d
		}
		return c.log.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("event logs differ:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, "SCALE +") || !strings.Contains(a, "SCALE -") {
		t.Fatalf("expected both directions in the log:\n%s", a)
	}
}

func almost(t *testing.T, got, want float64, what string) {
	t.Helper()
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("%s = %.12g, want %.12g", what, got, want)
	}
}

// peakAt is 14/24 of day d: its peak instant.
func peakAt(d int) time.Duration {
	return time.Duration(d)*virtualDay + virtualDay*14/24
}

func TestWeekDayCurve(t *testing.T) {
	almost(t, loadMultiplier(peakAt(0)), peakLoad, "weekday peak")
	almost(t, loadMultiplier(peakAt(0)-virtualDay/2), troughLoad, "weekday trough")
	almost(t, loadMultiplier(peakAt(0)-virtualDay/4), (troughLoad+peakLoad)/2, "quarter-day")
	almost(t, loadMultiplier(peakAt(3)), peakLoad, "day 3 peak")
}

func TestWeekendFactors(t *testing.T) {
	almost(t, loadMultiplier(peakAt(5)), 0.7*peakLoad, "saturday peak")
	almost(t, loadMultiplier(peakAt(6)), 0.55*peakLoad, "sunday peak")
}

// TestBurstEnvelope compares each instant of the flash crowd with the same
// time of day on day 1, a weekday without one.
func TestBurstEnvelope(t *testing.T) {
	start := time.Duration(burstDay)*virtualDay + virtualDay*39/48 // 19.5/24 of day 2
	for _, c := range []struct {
		after time.Duration
		want  float64
		what  string
	}{
		{-time.Millisecond, 1, "before"},
		{burstRamp / 2, 1.5, "mid ramp"},
		{burstRamp, burstMult, "plateau start"},
		{burstRamp + burstDwell - time.Millisecond, burstMult, "plateau end"},
		{burstRamp + burstDwell + burstDecay/2, 1.5, "mid decay"},
		{burstRamp + burstDwell + burstDecay, 1, "after"},
	} {
		at := start + c.after
		almost(t, loadMultiplier(at)/loadMultiplier(at-virtualDay), c.want, c.what)
	}
}

func TestPaceGap(t *testing.T) {
	// Multiplier 1 at 38 ops/s: one operation every 26.3ms.
	if got, want := paceGap(peakAt(0)), time.Duration(26315789); got != want {
		t.Errorf("gap at the weekday peak = %v, want %v", got, want)
	}
}

// TestCurveHoldsPastTheWeek: past weekSpan the multiplier holds the week's
// last instant.
func TestCurveHoldsPastTheWeek(t *testing.T) {
	last := loadMultiplier(weekSpan - time.Nanosecond)
	for _, at := range []time.Duration{weekSpan, weekSpan + virtualDay/3, 10 * weekSpan} {
		almost(t, loadMultiplier(at), last, "multiplier at "+at.String())
	}
}
