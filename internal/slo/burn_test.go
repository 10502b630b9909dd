package slo

import (
	"testing"
	"time"
)

// burnSpec is a minimal spec with one availability objective and one burn
// pair over a 1s/4s window, against a 10s sketch.
func burnSpec() Spec {
	return Spec{
		Window:  10 * time.Second,
		Slots:   40,
		Tick:    250 * time.Millisecond,
		Latency: []LatencyObjective{},
		Burns: []BurnPair{
			{Name: "fast", Short: time.Second, Long: 4 * time.Second, Rate: 10, Severity: SevPage},
		},
	}.withDefaults()
}

func TestAlerterFiresOnSustainedBurn(t *testing.T) {
	spec := burnSpec()
	a := newAlerter(spec)
	sk := NewSketch(spec.Window, spec.Slots)
	window := func(_ string, now, w time.Duration) Summary { return sk.Window(now, w) }

	// 10s of healthy traffic: no events.
	for ms := 0; ms <= 10_000; ms += 10 {
		sk.Observe(time.Duration(ms)*time.Millisecond, time.Millisecond, false)
	}
	if ev := a.evaluate(10*time.Second, window); len(ev) != 0 {
		t.Fatalf("healthy traffic raised events: %v", ev)
	}

	// 5s of 20% errors: burn 200x >> 10x over both windows.
	for ms := 10_000; ms <= 15_000; ms += 10 {
		sk.Observe(time.Duration(ms)*time.Millisecond, time.Millisecond, ms%50 == 0)
	}
	ev := a.evaluate(15*time.Second, window)
	if len(ev) != 1 || ev[0].Kind != EventAlertFire || !ev[0].Degrading {
		t.Fatalf("want one firing event, got %v", ev)
	}
	if ev[0].Severity != SevPage {
		t.Fatalf("severity = %v, want page", ev[0].Severity)
	}
	if a.Firing() != 1 {
		t.Fatalf("firing = %d", a.Firing())
	}
	// Still burning: no duplicate event.
	if ev := a.evaluate(15250*time.Millisecond, window); len(ev) != 0 {
		t.Fatalf("duplicate event while firing: %v", ev)
	}

	// Healthy again: resolves once the long window drains.
	for ms := 15_010; ms <= 25_000; ms += 10 {
		sk.Observe(time.Duration(ms)*time.Millisecond, time.Millisecond, false)
	}
	ev = a.evaluate(25*time.Second, window)
	if len(ev) != 1 || ev[0].Kind != EventAlertResolve {
		t.Fatalf("want one resolve event, got %v", ev)
	}
	if a.Firing() != 0 {
		t.Fatalf("firing after resolve = %d", a.Firing())
	}
}

// TestAlerterNeedsBothWindows pins the multi-window property: a short
// error spike inflates the short window but not the long one, so no alert
// fires (that is the point of the Google-SRE construction).
func TestAlerterNeedsBothWindows(t *testing.T) {
	spec := burnSpec()
	a := newAlerter(spec)
	sk := NewSketch(spec.Window, spec.Slots)
	window := func(_ string, now, w time.Duration) Summary { return sk.Window(now, w) }

	// 9.7s of healthy traffic then two errors: the 1s window burns at ~20x
	// (over the 10x threshold) but the 4s window sits near 5x, so the pair
	// stays quiet.
	for ms := 0; ms < 9_700; ms += 10 {
		sk.Observe(time.Duration(ms)*time.Millisecond, time.Millisecond, false)
	}
	sk.Observe(9700*time.Millisecond, time.Millisecond, true)
	sk.Observe(9700*time.Millisecond, time.Millisecond, true)
	if ev := a.evaluate(9700*time.Millisecond, window); len(ev) != 0 {
		t.Fatalf("short blip paged: %v", ev)
	}
}

func TestAlerterEmptySketchBurnsNothing(t *testing.T) {
	spec := burnSpec()
	a := newAlerter(spec)
	sk := NewSketch(spec.Window, spec.Slots)
	if ev := a.evaluate(time.Second, func(_ string, now, w time.Duration) Summary { return sk.Window(now, w) }); len(ev) != 0 {
		t.Fatalf("empty sketch raised events: %v", ev)
	}
	// A missing sketch (op class never seen) is also quiet.
	var missing *Sketch
	if ev := a.evaluate(2*time.Second, func(_ string, now, w time.Duration) Summary { return missing.Window(now, w) }); len(ev) != 0 {
		t.Fatalf("nil sketch raised events: %v", ev)
	}
}

func TestLatencyObjectiveBurn(t *testing.T) {
	o := latencyObjectiveFor(LatencyObjective{Op: "stat", Quantile: 0.99, Target: 10 * time.Millisecond})
	sk := NewSketch(time.Second, 10)
	// 50 fast, 50 slow: half the completions are over target, burn = 50x.
	for i := 0; i < 50; i++ {
		sk.Observe(0, time.Millisecond, false)
		sk.Observe(0, 100*time.Millisecond, false)
	}
	burn := o.burnRate(sk.Window(0, 0))
	if burn < 45 || burn > 55 {
		t.Fatalf("burn = %v, want ~50", burn)
	}
}
