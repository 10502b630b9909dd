package trace

import (
	"testing"
	"time"
)

func BenchmarkRegistryCounterEnabled(b *testing.B) {
	reg := NewRegistry()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reg.Counter("bench.count").Add(1)
	}
}

// TestStartOpFastPathOff pins the span-creation fast path: a tracer without
// a registry that has neither sink nor subscriber returns nil spans (all
// downstream calls collapse to nil checks), while attaching any consumer —
// subscriber or sink — restores real spans.
func TestStartOpFastPathOff(t *testing.T) {
	tr := NewTracer(nil)
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
	sunk := NewTracer(nil)
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
