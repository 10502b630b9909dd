package slo

import (
	"testing"
	"time"
)

func TestSketchEmptyWindow(t *testing.T) {
	s := NewSketch(2*time.Second, 20)
	m := s.Window(10*time.Second, 0)
	if m.Count != 0 || m.Errors != 0 || m.Max != 0 {
		t.Fatalf("empty sketch summary not zero: %+v", m)
	}
	if p := m.Percentile(0.99); p != 0 {
		t.Fatalf("empty percentile = %v, want 0", p)
	}
	if r := m.Rate(); r != 0 {
		t.Fatalf("empty rate = %v, want 0", r)
	}
	if f := m.ErrorFraction(); f != 0 {
		t.Fatalf("empty error fraction = %v, want 0", f)
	}
}

// TestSketchWindowBoundary pins the inclusion rule: a slot is inside the
// trailing window iff its start lies in (now-window, now], so with 100ms
// slots a query for the last 200ms at t=1s covers observations from 800ms
// (exclusive) on.
func TestSketchWindowBoundary(t *testing.T) {
	s := NewSketch(time.Second, 10)                           // 100ms slots
	s.Observe(800*time.Millisecond, time.Millisecond, false)  // slot [800,900) — outside
	s.Observe(850*time.Millisecond, time.Millisecond, false)  // same slot — outside
	s.Observe(900*time.Millisecond, time.Millisecond, false)  // slot [900,1000) — inside
	s.Observe(1000*time.Millisecond, time.Millisecond, false) // slot [1000,1100) — inside (current)

	m := s.Window(time.Second, 200*time.Millisecond)
	if m.Count != 2 {
		t.Fatalf("200ms window at 1s: count = %d, want 2", m.Count)
	}
	// Widening by one slot picks up the [800,900) pair.
	m = s.Window(time.Second, 300*time.Millisecond)
	if m.Count != 4 {
		t.Fatalf("300ms window at 1s: count = %d, want 4", m.Count)
	}
}

func TestSketchExpiresOldSlots(t *testing.T) {
	s := NewSketch(time.Second, 10)
	s.Observe(0, time.Millisecond, false)
	if m := s.Window(500*time.Millisecond, 0); m.Count != 1 {
		t.Fatalf("fresh observation missing: %+v", m)
	}
	// Advance past the span: the slot's ring position is reused and the
	// old tenant must not leak into the merged summary.
	s.Observe(5*time.Second, 2*time.Millisecond, true)
	m := s.Window(5*time.Second, 0)
	if m.Count != 1 || m.Errors != 1 {
		t.Fatalf("expired slot leaked: %+v", m)
	}
}

func TestSketchStaleObservationLandsInCurrentSlot(t *testing.T) {
	s := NewSketch(time.Second, 10)
	s.Observe(2*time.Second, time.Millisecond, false)
	// An observation with an older timestamp (stale caller) must not
	// resurrect an expired slot; it lands in the newest slot.
	s.Observe(time.Second, time.Millisecond, false)
	if m := s.Window(2*time.Second, 100*time.Millisecond); m.Count != 2 {
		t.Fatalf("stale observation lost: %+v", m)
	}
}

func TestSketchPercentileClampsToMax(t *testing.T) {
	s := NewSketch(time.Second, 10)
	// One observation: every quantile must answer exactly the observed
	// latency, not the (much wider) bucket upper bound.
	s.Observe(0, 3*time.Millisecond, false)
	m := s.Window(0, 0)
	if p := m.Percentile(0.99); p != 3*time.Millisecond {
		t.Fatalf("p99 of single 3ms op = %v, want 3ms", p)
	}
	if p := m.Percentile(1); p != 3*time.Millisecond {
		t.Fatalf("p100 = %v, want 3ms", p)
	}
}

func TestSketchPercentileOrdering(t *testing.T) {
	s := NewSketch(time.Second, 10)
	for i := 0; i < 100; i++ {
		s.Observe(time.Duration(i)*time.Millisecond, time.Duration(i+1)*time.Millisecond, false)
	}
	m := s.Window(100*time.Millisecond, 0)
	p50, p95, p99 := m.Percentile(0.5), m.Percentile(0.95), m.Percentile(0.99)
	if !(p50 <= p95 && p95 <= p99) {
		t.Fatalf("percentiles not ordered: p50=%v p95=%v p99=%v", p50, p95, p99)
	}
	if p99 > m.Max {
		t.Fatalf("p99 %v exceeds max %v", p99, m.Max)
	}
}

func TestSketchOverCount(t *testing.T) {
	s := NewSketch(time.Second, 10)
	for i := 0; i < 90; i++ {
		s.Observe(0, time.Millisecond, false)
	}
	for i := 0; i < 10; i++ {
		s.Observe(0, 100*time.Millisecond, false)
	}
	m := s.Window(0, 0)
	over := m.OverCount(10 * time.Millisecond)
	if over != 10 {
		t.Fatalf("OverCount(10ms) = %d, want 10", over)
	}
	if m.OverCount(time.Hour) != 0 {
		t.Fatalf("OverCount(1h) = %d, want 0", m.OverCount(time.Hour))
	}
}

func TestSketchErrorCounting(t *testing.T) {
	s := NewSketch(time.Second, 10)
	s.Observe(0, time.Millisecond, false)
	s.Observe(0, time.Millisecond, true)
	s.Observe(0, time.Millisecond, true)
	m := s.Window(0, 0)
	if m.Errors != 2 || m.Count != 3 {
		t.Fatalf("errors=%d count=%d, want 2/3", m.Errors, m.Count)
	}
	if f := m.ErrorFraction(); f < 0.66 || f > 0.67 {
		t.Fatalf("error fraction = %v, want 2/3", f)
	}
}

func TestNilSketchIsSafe(t *testing.T) {
	var s *Sketch
	s.Observe(0, time.Millisecond, false)
	if m := s.Window(0, 0); m.Count != 0 {
		t.Fatal("nil sketch returned observations")
	}
}
