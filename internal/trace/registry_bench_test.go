package trace

import (
	"testing"
	"time"
)

func TestRegistryDisable(t *testing.T) {
	reg := NewRegistry()
	before := reg.Counter("pre.count")
	before.Add(1)
	reg.Disable()
	if !reg.Disabled() {
		t.Fatal("Disabled() false after Disable")
	}
	if c := reg.Counter("post.count"); c != nil {
		t.Fatal("disabled registry returned a live counter handle")
	}
	if g := reg.Gauge("post.g"); g != nil {
		t.Fatal("disabled registry returned a live gauge handle")
	}
	if tm := reg.Timing("post.t"); tm != nil {
		t.Fatal("disabled registry returned a live timing handle")
	}
	// Handles created before Disable keep working (nil-safe no-op
	// semantics apply only to new lookups).
	before.Add(1)
	var nilReg *Registry
	if nilReg.Disabled() {
		t.Fatal("nil registry reports disabled")
	}
	if nilReg.Counter("x") != nil {
		t.Fatal("nil registry returned a handle")
	}
}

// The disabled-registry fast path is what bench runs with metrics off pay
// per instrumentation site: one nil check on the registry plus one atomic
// load, and the nil handle swallows the op.

func BenchmarkRegistryCounterEnabled(b *testing.B) {
	reg := NewRegistry()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reg.Counter("bench.count").Add(1)
	}
}

func BenchmarkRegistryCounterDisabled(b *testing.B) {
	reg := NewRegistry()
	reg.Disable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reg.Counter("bench.count").Add(1)
	}
}

func BenchmarkRegistryCounterLabeledDisabled(b *testing.B) {
	reg := NewRegistry()
	reg.Disable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reg.Counter("bench.count", "nn", "1").Add(1)
	}
}

func BenchmarkRegistryTimingDisabled(b *testing.B) {
	reg := NewRegistry()
	reg.Disable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reg.Timing("bench.lat").Observe(time.Millisecond)
	}
}

// TestStartOpFastPathOff pins the span-creation extension of the disable
// fast path: a tracer whose registry is disabled and that has neither sink
// nor subscriber returns nil spans (all downstream calls collapse to nil
// checks), while attaching any consumer — subscriber or sink — restores
// real spans.
func TestStartOpFastPathOff(t *testing.T) {
	reg := NewRegistry()
	reg.Disable()
	tr := NewTracer(reg)
	if sp := tr.StartOp("stat", 0); sp != nil {
		t.Fatal("StartOp returned a live span with every output disabled")
	}
	var buf Span
	if sp := tr.StartOpInto(&buf, "stat", 0); sp != nil {
		t.Fatal("StartOpInto returned a live span with every output disabled")
	}
	// Nil spans must swallow the full instrumentation surface.
	var sp *Span
	sp.SetAttr("k", "v")
	sp.RecordHop(HopCrossZone, 128, time.Millisecond)
	sp.SetError()
	sp.Child("c", 0).Finish(0)
	sp.Finish(0)

	// A sink is a live consumer: spans come back.
	sunk := NewTracer(reg)
	sunk.EnableSink(16)
	if sunk.StartOp("stat", 0) == nil {
		t.Fatal("StartOp returned nil despite an enabled sink")
	}
	// So is an op subscriber.
	seen := 0
	tr.OnOp(func(op string, end, lat time.Duration, failed bool) { seen++ })
	sp2 := tr.StartOp("stat", 0)
	if sp2 == nil {
		t.Fatal("StartOp returned nil despite an attached observer")
	}
	sp2.Finish(time.Millisecond)
	if seen != 1 {
		t.Fatalf("observer saw %d ops, want 1", seen)
	}
}

// The off-tracer span path is what a metrics-off benchmark run pays per
// client operation: StartOp must cost a few atomic loads and allocate
// nothing.

func BenchmarkStartOpDisabled(b *testing.B) {
	reg := NewRegistry()
	reg.Disable()
	tr := NewTracer(reg)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.StartOp("bench", 0)
		sp.RecordHop(HopSameZone, 64, time.Microsecond)
		sp.Finish(time.Microsecond)
	}
}

func BenchmarkStartOpIntoAggregate(b *testing.B) {
	reg := NewRegistry()
	tr := NewTracer(reg)
	var buf Span
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.StartOpInto(&buf, "bench", 0)
		sp.RecordHop(HopSameZone, 64, time.Microsecond)
		sp.Finish(time.Microsecond)
	}
}

func BenchmarkRecordHopNilSpan(b *testing.B) {
	var sp *Span
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp.RecordHop(HopCrossZone, 64, time.Microsecond)
	}
}

func BenchmarkHandleCounterAdd(b *testing.B) {
	reg := NewRegistry()
	c := reg.Counter("bench.count")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkNilHandleCounterAdd(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}
