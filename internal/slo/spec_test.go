package slo

import (
	"testing"
	"time"
)

func TestDefaultSpecIsRunnable(t *testing.T) {
	s := DefaultSpec()
	if s.Window <= 0 || s.Slots <= 0 || s.Tick <= 0 {
		t.Fatalf("default geometry not set: %+v", s)
	}
	if len(s.Latency) == 0 || len(s.Burns) == 0 {
		t.Fatal("default spec has no objectives or burn pairs")
	}
	for _, p := range s.Burns {
		if p.Short >= p.Long {
			t.Fatalf("burn pair %q: short %v >= long %v", p.Name, p.Short, p.Long)
		}
		if p.Long > s.Window {
			t.Fatalf("burn pair %q long window %v exceeds sketch window %v", p.Name, p.Long, s.Window)
		}
	}
}

func TestWithDefaultsFillsLatency(t *testing.T) {
	// A zero spec takes the default latency objectives; an explicit empty
	// (non-nil) list means "none" and is kept.
	got := (Spec{}).withDefaults()
	if len(got.Latency) != len(DefaultSpec().Latency) {
		t.Fatalf("zero spec latency objectives = %d, want defaults", len(got.Latency))
	}
	none := (Spec{Latency: []LatencyObjective{}}).withDefaults()
	if len(none.Latency) != 0 {
		t.Fatalf("explicit empty latency list replaced with defaults: %+v", none.Latency)
	}
}

func TestLatencyObjectiveName(t *testing.T) {
	o := LatencyObjective{Op: "stat", Quantile: 0.99, Target: 10 * time.Millisecond}
	if o.Name() != "latency:stat:p99<10ms" {
		t.Fatalf("name = %q", o.Name())
	}
	if o.Budget() < 0.0099 || o.Budget() > 0.0101 {
		t.Fatalf("budget = %v", o.Budget())
	}
}
