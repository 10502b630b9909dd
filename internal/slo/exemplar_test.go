package slo

import (
	"strings"
	"testing"
	"time"

	"hopsfscl/internal/trace"
)

func span(id uint64, op string, start, end time.Duration) *trace.Span {
	return &trace.Span{ID: trace.SpanID(id), Name: op, Start: start, End: end}
}

func exemplarEngine() *Engine {
	return NewEngine(Spec{
		Latency: []LatencyObjective{
			{Op: "stat", Quantile: 0.99, Target: 10 * time.Millisecond},
			{Op: "*", Quantile: 0.99, Target: 80 * time.Millisecond},
		},
	})
}

func TestExemplarsPinBreaches(t *testing.T) {
	x := NewExemplars(exemplarEngine(), ExemplarConfig{})
	x.Observe(span(1, "stat", 0, 20*time.Millisecond))             // breach: 20ms > 10ms
	x.Observe(span(2, "stat", 0, 5*time.Millisecond))              // within objective
	x.Observe(span(3, "mkdir", 0, 100*time.Millisecond))           // breach via "*" fallback
	x.Observe(span(4, "read", time.Second, 1001*time.Millisecond)) // fast, new window

	rep := x.Report(2 * time.Second)
	c := rep.Class("stat")
	if c == nil || c.Target != 10*time.Millisecond {
		t.Fatalf("stat class = %+v", c)
	}
	if len(c.Exemplars) != 1 || c.Exemplars[0].Root.ID != 1 || c.Exemplars[0].Reason&ReasonBreach == 0 {
		t.Fatalf("stat exemplars = %+v, want span 1 pinned for breach", c.Exemplars)
	}
	m := rep.Class("mkdir")
	if m == nil || m.Target != 80*time.Millisecond || len(m.Exemplars) != 1 {
		t.Fatalf("mkdir class = %+v, want one breach pinned against the fallback", m)
	}
	if m.Exemplars[0].Reason&ReasonSlowest == 0 {
		t.Fatal("mkdir span 3 was window 0's slowest but lacks ReasonSlowest")
	}
	if rep.Seen != 4 {
		t.Fatalf("seen = %d, want 4", rep.Seen)
	}
}

func TestExemplarsWindowSlowest(t *testing.T) {
	// No engine: no objectives, only window-slowest pinning.
	x := NewExemplars(nil, ExemplarConfig{Window: time.Second})
	x.Observe(span(1, "stat", 0, 3*time.Millisecond))
	x.Observe(span(2, "stat", 0, 9*time.Millisecond)) // window 0's slowest
	x.Observe(span(3, "stat", 0, 4*time.Millisecond))
	// Crossing into window 1 commits window 0.
	x.Observe(span(4, "stat", time.Second, 1005*time.Millisecond))

	rep := x.Report(2 * time.Second)
	c := rep.Class("stat")
	if c == nil || len(c.Exemplars) != 2 {
		t.Fatalf("stat exemplars = %+v, want the two window-slowest ops", c)
	}
	// Best-first: 9ms before 5ms.
	if c.Exemplars[0].Root.ID != 2 || c.Exemplars[0].Reason != ReasonSlowest {
		t.Fatalf("rank 1 = %+v, want span 2 window-slowest", c.Exemplars[0])
	}
	if c.Exemplars[1].Root.ID != 4 {
		t.Fatalf("rank 2 = %+v, want span 4 (committed by Report)", c.Exemplars[1])
	}
}

func TestExemplarsBoundAndOrder(t *testing.T) {
	x := NewExemplars(exemplarEngine(), ExemplarConfig{})
	x.Observe(span(1, "stat", 0, 20*time.Millisecond))
	x.Observe(span(2, "stat", 0, 40*time.Millisecond))
	x.Observe(span(3, "stat", 0, 30*time.Millisecond))
	x.Observe(span(4, "stat", 0, 15*time.Millisecond))
	x.Observe(span(5, "stat", 0, 25*time.Millisecond))
	x.Observe(span(6, "stat", 0, 12*time.Millisecond))

	rep := x.Report(time.Second)
	c := rep.Class("stat")
	if len(c.Exemplars) != exemplarsPerOp {
		t.Fatalf("bound not enforced: %d exemplars, want %d", len(c.Exemplars), exemplarsPerOp)
	}
	for i, want := range []trace.SpanID{2, 3, 5, 1} {
		if got := c.Exemplars[i].Root.ID; got != want {
			t.Fatalf("rank %d is span %d, want %d: the four slowest, slowest first", i+1, got, want)
		}
	}
	if rep.Pinned != exemplarsPerOp {
		t.Fatalf("pinned = %d, want %d", rep.Pinned, exemplarsPerOp)
	}
}

func TestExemplarsBurnFiring(t *testing.T) {
	eng := NewEngine(Spec{
		Window:  10 * time.Second,
		Slots:   40,
		Latency: []LatencyObjective{},
		Burns: []BurnPair{
			{Name: "fast", Short: time.Second, Long: 4 * time.Second, Rate: 10, Severity: SevPage},
		},
	})
	x := NewExemplars(eng, ExemplarConfig{})

	// 5s of 20% failures lights the burn alert.
	for ms := 0; ms <= 5_000; ms += 10 {
		eng.ObserveOp("stat", time.Duration(ms)*time.Millisecond, time.Millisecond, ms%50 == 0)
	}
	eng.Tick(5 * time.Second)
	if eng.Firing() == 0 {
		t.Fatal("burn alert did not fire; exemplar gating untestable")
	}

	// A fast op completing during the burn is pinned with ReasonBurn even
	// though it breached nothing.
	x.Observe(span(9, "stat", 5*time.Second, 5001*time.Millisecond))
	rep := x.Report(6 * time.Second)
	c := rep.Class("stat")
	if c == nil || len(c.Exemplars) == 0 || c.Exemplars[0].Reason&ReasonBurn == 0 {
		t.Fatalf("exemplars = %+v, want span 9 pinned with ReasonBurn", c)
	}
}

func TestExemplarsDeterministicRender(t *testing.T) {
	drive := func() *ExemplarReport {
		x := NewExemplars(exemplarEngine(), ExemplarConfig{})
		for i := 0; i < 50; i++ {
			end := time.Duration(i*37) * time.Millisecond
			lat := time.Duration(1+i%25) * time.Millisecond
			op := []string{"stat", "read", "create"}[i%3]
			x.Observe(span(uint64(i+1), op, end-lat, end))
		}
		return x.Report(2 * time.Second)
	}
	rep := drive()
	a, b := rep.Render(), drive().Render()
	if a != b {
		t.Fatalf("renders diverge:\n%s\n---\n%s", a, b)
	}
	if !strings.Contains(a, "op stat") || !strings.Contains(a, "reason=") {
		t.Fatalf("render missing expected content:\n%s", a)
	}
	// Ten stats breach their 10ms objective; the four slowest pin, slowest
	// first.
	c := rep.Class("stat")
	if c == nil || len(c.Exemplars) != exemplarsPerOp {
		t.Fatalf("stat class = %+v, want %d exemplars", c, exemplarsPerOp)
	}
	for i, want := range []trace.SpanID{25, 49, 22, 46} {
		if got := c.Exemplars[i].Root.ID; got != want {
			t.Fatalf("stat rank %d is span %d, want %d", i+1, got, want)
		}
	}
}
