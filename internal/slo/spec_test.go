package slo

import (
	"math"
	"strings"
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

func TestParseSpecRoundTrip(t *testing.T) {
	orig := DefaultSpec()
	again, err := ParseSpec(orig.Render())
	if err != nil {
		t.Fatalf("parse of rendered spec failed: %v", err)
	}
	if again.Render() != orig.Render() {
		t.Fatalf("round trip changed the spec:\n%s\nvs\n%s", orig.Render(), again.Render())
	}
}

func TestParseSpecOverrides(t *testing.T) {
	spec, err := ParseSpec(`
		# tuned spec
		window 8s slots 32 tick 100ms
		availability 99.5
		latency stat p95 5ms
		burn fast 500ms 2s 10x
	`)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Window != 8*time.Second || spec.Slots != 32 || spec.Tick != 100*time.Millisecond {
		t.Fatalf("geometry not applied: %+v", spec)
	}
	if spec.Availability != 0.995 {
		t.Fatalf("availability = %v", spec.Availability)
	}
	if len(spec.Latency) != 1 || spec.Latency[0].Op != "stat" || spec.Latency[0].Quantile != 0.95 {
		t.Fatalf("latency objectives = %+v", spec.Latency)
	}
	if len(spec.Burns) != 1 || spec.Burns[0].Rate != 10 || spec.Burns[0].Severity != SevPage {
		t.Fatalf("burns = %+v", spec.Burns)
	}
}

func TestParseSpecRejectsLongWindowBeyondSketch(t *testing.T) {
	_, err := ParseSpec("window 4s\nburn slow 1s 8s 3x\n")
	if err == nil || !strings.Contains(err.Error(), "exceeds sketch window") {
		t.Fatalf("want long-window error, got %v", err)
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

// outOfRangeSpecs are single-line specs ParseSpec must reject: non-finite
// or non-positive values that would otherwise silence the alerter (a NaN
// availability makes every burn comparison false) or be swapped for
// defaults without a word.
var outOfRangeSpecs = []string{
	"availability NaN",
	"availability +Inf",
	"latency stat pNaN 5ms",
	"latency stat p99 -5ms",
	"latency stat p99 0s",
	"burn fast 1s 2s NaNx",
	"burn fast 1s 2s +Infx",
	"window -5s",
	"window 24s slots -3",
	"window 24s slots 0",
	"window 24s tick -1s",
}

func TestParseSpecRejectsOutOfRange(t *testing.T) {
	for _, text := range outOfRangeSpecs {
		spec, err := ParseSpec(text)
		if err == nil {
			t.Errorf("ParseSpec(%q) accepted: %+v", text, spec)
		} else if !strings.Contains(err.Error(), "line 1") {
			t.Errorf("ParseSpec(%q) error lacks the line number: %v", text, err)
		}
	}
}

// FuzzParseSpec checks that ParseSpec never panics and that whatever it
// accepts is a finite, runnable spec that survives Render → ParseSpec →
// Render unchanged.
func FuzzParseSpec(f *testing.F) {
	f.Add(DefaultSpec().Render())
	f.Add("# tuned spec\nwindow 8s slots 32 tick 100ms\navailability 99.5\nlatency stat p95 5ms\nburn fast 500ms 2s 10x\n")
	f.Add("latency stat p99 5ms\nlatency stat p50 1ms # two objectives on one op\nlatency * p99.9 80ms")
	f.Add("window 4s\nburn slow 1s 8s 3x\n")
	for _, text := range outOfRangeSpecs {
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		spec, err := ParseSpec(text)
		if err != nil {
			return
		}
		if spec.Window <= 0 || spec.Slots <= 0 || spec.Tick <= 0 || !(spec.Availability > 0 && spec.Availability < 1) {
			t.Fatalf("accepted a spec that cannot run: %+v", spec)
		}
		for _, o := range spec.Latency {
			if !(o.Quantile > 0 && o.Quantile < 1) || o.Target <= 0 {
				t.Fatalf("accepted objective %+v", o)
			}
		}
		for _, p := range spec.Burns {
			if !(p.Rate > 0) || p.Rate > math.MaxFloat64 || p.Short <= 0 || p.Long <= p.Short || p.Long > spec.Window {
				t.Fatalf("accepted burn pair %+v (window %v)", p, spec.Window)
			}
		}
		rendered := spec.Render()
		again, err := ParseSpec(rendered)
		if err != nil {
			t.Fatalf("rendered spec does not parse: %v\n%s", err, rendered)
		}
		if got := again.Render(); got != rendered {
			t.Fatalf("render is not a fixed point:\n%s\nvs\n%s", rendered, got)
		}
	})
}
