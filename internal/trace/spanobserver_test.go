package trace

import (
	"testing"
	"time"
)

// TestSpanObserverSeesDetailedRoots checks the span observer fires once
// per finished detailed root, with the complete tree, before the sink
// retains it.
func TestSpanObserverSeesDetailedRoots(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg)
	sink := tr.EnableSink(8)

	var seen []*Span
	tr.OnSpan(func(root *Span) { seen = append(seen, root) })

	sp := tr.StartOp("create", 0)
	child := sp.Child("txn", time.Millisecond)
	child.Finish(2 * time.Millisecond)
	sp.Finish(3 * time.Millisecond)

	if len(seen) != 1 {
		t.Fatalf("observer fired %d times, want 1", len(seen))
	}
	if seen[0].Name != "create" || len(seen[0].Children) != 1 {
		t.Fatalf("observer saw %q with %d children, want create with 1", seen[0].Name, len(seen[0].Children))
	}
	if got := sink.Slowest(1); len(got) != 1 || got[0] != seen[0] {
		t.Fatal("sink and observer disagree on the retained root")
	}

	// Child finishes must not re-fire the observer.
	sp2 := tr.StartOp("stat", 4*time.Millisecond)
	c2 := sp2.Child("lookup", 4*time.Millisecond)
	c2.Finish(5 * time.Millisecond)
	if len(seen) != 1 {
		t.Fatalf("child Finish fired the observer (%d calls)", len(seen))
	}
	sp2.Finish(6 * time.Millisecond)
	if len(seen) != 2 {
		t.Fatalf("observer fired %d times after two roots, want 2", len(seen))
	}
}

// TestSpanObserverSilentInAggregateMode checks that without a sink
// (aggregate mode, no detailed spans) the span observer never fires and
// does not force span creation on its own.
func TestSpanObserverSilentInAggregateMode(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg)
	fired := 0
	tr.OnSpan(func(root *Span) { fired++ })

	sp := tr.StartOp("stat", 0)
	sp.Finish(time.Millisecond)
	if fired != 0 {
		t.Fatalf("span observer fired %d times in aggregate mode, want 0", fired)
	}
}

// TestSubscribersFanOutInOrder checks the bus: every subscriber sees every
// root finish, in subscription order, and a later subscription neither
// replaces an earlier one nor misses operations that finish after it.
func TestSubscribersFanOutInOrder(t *testing.T) {
	tr := NewTracer(NewRegistry())
	tr.EnableSink(8)

	var calls []string
	tr.OnOp(func(op string, end, lat time.Duration, failed bool) { calls = append(calls, "op1:"+op) })
	tr.OnSpan(func(root *Span) { calls = append(calls, "span1:"+root.Name) })
	tr.StartOp("stat", 0).Finish(time.Millisecond)

	tr.OnOp(func(op string, end, lat time.Duration, failed bool) { calls = append(calls, "op2:"+op) })
	tr.OnSpan(func(root *Span) { calls = append(calls, "span2:"+root.Name) })
	tr.StartOp("read", time.Millisecond).Finish(2 * time.Millisecond)

	want := []string{
		"op1:stat", "span1:stat",
		"op1:read", "op2:read", "span1:read", "span2:read",
	}
	if len(calls) != len(want) {
		t.Fatalf("calls = %v, want %v", calls, want)
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Fatalf("calls = %v, want %v", calls, want)
		}
	}
}
