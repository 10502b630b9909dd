package trace

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestNameSortsLabels(t *testing.T) {
	got := Name("net.bytes", "class", "cross_az")
	if got != "net.bytes{class=cross_az}" {
		t.Fatalf("Name = %q", got)
	}
	a := Name("m", "b", "2", "a", "1")
	b := Name("m", "a", "1", "b", "2")
	if a != b || a != "m{a=1,b=2}" {
		t.Fatalf("label order not canonical: %q vs %q", a, b)
	}
	if got := Name("plain"); got != "plain" {
		t.Fatalf("unlabeled Name = %q", got)
	}
}

func TestRegistryHandlesAreIdempotent(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x", "k", "v")
	c2 := r.Counter("x", "k", "v")
	if c1 != c2 {
		t.Fatal("same name returned distinct counters")
	}
	c1.Add(3)
	c2.Add(4)
	if c1.Value() != 7 {
		t.Fatalf("counter = %d", c1.Value())
	}
	if r.Histogram("t") != r.Histogram("t") {
		t.Fatal("same name returned distinct histograms")
	}
}

func TestSnapshotDiffLookup(t *testing.T) {
	r := NewRegistry()
	r.Counter("ops").Add(10)
	r.Gauge("depth").Set(3)
	tm := r.Histogram("lat")
	tm.Observe(2 * time.Millisecond)
	tm.Observe(4 * time.Millisecond)

	snap := r.Snapshot()
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Name >= snap[i].Name {
			t.Fatalf("snapshot not sorted: %q >= %q", snap[i-1].Name, snap[i].Name)
		}
	}
	if v, ok := Lookup(snap, "lat.count"); !ok || v != 2 {
		t.Fatalf("lat.count = %v %v", v, ok)
	}
	if v, _ := Lookup(snap, "lat.sum_ns"); v != float64(6*time.Millisecond) {
		t.Fatalf("lat.sum_ns = %v", v)
	}
	if v, _ := Lookup(snap, "lat.max_ns"); v != float64(4*time.Millisecond) {
		t.Fatalf("lat.max_ns = %v", v)
	}

	r.Counter("ops").Add(5)
	tm.Observe(8 * time.Millisecond)
	d := Diff(snap, r.Snapshot())
	if v, _ := Lookup(d, "ops"); v != 5 {
		t.Fatalf("diffed counter = %v", v)
	}
	if v, _ := Lookup(d, "lat.count"); v != 1 {
		t.Fatalf("diffed lat.count = %v", v)
	}
	// Gauges and maxima keep the after value rather than subtracting.
	if v, _ := Lookup(d, "depth"); v != 3 {
		t.Fatalf("diffed gauge = %v", v)
	}
	if v, _ := Lookup(d, "lat.max_ns"); v != float64(8*time.Millisecond) {
		t.Fatalf("diffed max = %v", v)
	}
}

func TestNilSafety(t *testing.T) {
	// Every handle and span method must be callable on nil: instrumentation
	// sites run unconditionally whether or not tracing is wired up.
	var c *Counter
	c.Add(1)
	_ = c.Value()
	var g *Gauge
	g.Set(1)
	var h *Histogram
	h.Observe(time.Second)
	var r *Registry
	r.Counter("x").Add(1)
	r.Histogram("y").Observe(time.Second)
	var tr *Tracer
	sp := tr.StartOp("stat", 0)
	if sp != nil {
		t.Fatal("nil tracer minted a span")
	}
	sp.SetAttr("k", "v")
	sp.RecordHop(HopCrossZone, 10, time.Millisecond)
	sp.SetError()
	sp.Finish(time.Second)
	if sp.Child("c", 0) != nil {
		t.Fatal("nil span minted a child")
	}
	var sink *Sink
	sink.Add(nil)
	if sink.Spans() != nil || sink.Total() != 0 {
		t.Fatal("nil sink not empty")
	}
}

func TestSpanNestingAndAggregation(t *testing.T) {
	tr := NewTracer(NewRegistry())
	tr.EnableSink(8)

	root := tr.StartOp("rename", 10*time.Millisecond)
	if root == nil {
		t.Fatal("no root span with sink enabled")
	}
	txn := root.Child("txn", 11*time.Millisecond)
	prep := txn.Child("prepare", 12*time.Millisecond)
	prep.RecordHop(HopCrossZone, 100, 2*time.Millisecond)
	prep.RecordHop(HopSameZone, 40, time.Millisecond)
	prep.Finish(14 * time.Millisecond)
	txn.Finish(18 * time.Millisecond)
	root.Finish(20 * time.Millisecond)

	if root.Duration() != 10*time.Millisecond {
		t.Fatalf("root duration = %v", root.Duration())
	}
	// Hops recorded on a child roll up to the root.
	if root.HopBytes[HopCrossZone] != 100 || root.HopBytes[HopSameZone] != 40 {
		t.Fatalf("root hop bytes = %v", root.HopBytes)
	}
	if prep.HopBytes[HopCrossZone] != 100 {
		t.Fatalf("child hop bytes = %v", prep.HopBytes)
	}
	if len(root.Children) != 1 || len(root.Children[0].Children) != 1 {
		t.Fatal("nesting lost")
	}
	if root.Children[0].Children[0].Name != "prepare" {
		t.Fatalf("grandchild = %q", root.Children[0].Children[0].Name)
	}

	snap := tr.Registry().Snapshot()
	if v, _ := Lookup(snap, "op.rename.latency.count"); v != 1 {
		t.Fatalf("latency count = %v", v)
	}
	if v, _ := Lookup(snap, "op.rename.latency.sum_ns"); v != float64(10*time.Millisecond) {
		t.Fatalf("latency sum = %v", v)
	}
	if v, _ := Lookup(snap, Name("op.rename.net.bytes", "class", "cross_az")); v != 100 {
		t.Fatalf("cross-az bytes = %v", v)
	}
	if got := tr.Sink().Total(); got != 1 {
		t.Fatalf("sink total = %d", got)
	}
}

func TestAggregateOnlyModeHasNoChildren(t *testing.T) {
	tr := NewTracer(NewRegistry())
	root := tr.StartOp("stat", 0)
	if root == nil {
		t.Fatal("aggregate mode should still mint root spans")
	}
	if c := root.Child("txn", 0); c != nil {
		t.Fatal("child minted without sink")
	}
	root.SetAttr("k", "v")
	if len(root.Attrs) != 0 {
		t.Fatal("attr recorded without sink")
	}
	root.RecordHop(HopCrossZone, 50, time.Millisecond)
	root.Finish(time.Millisecond)
	snap := tr.Registry().Snapshot()
	if v, _ := Lookup(snap, Name("op.stat.net.bytes", "class", "cross_az")); v != 50 {
		t.Fatalf("aggregates lost without sink: %v", v)
	}
	if tr.Sink() != nil {
		t.Fatal("sink exists in aggregate mode")
	}
}

func TestSinkRingEviction(t *testing.T) {
	k := NewSink(3)
	mk := func(id SpanID, d time.Duration) *Span {
		return &Span{ID: id, Name: "op", End: d}
	}
	for i := 1; i <= 5; i++ {
		k.Add(mk(SpanID(i), time.Duration(i)*time.Millisecond))
	}
	if k.Total() != 5 {
		t.Fatalf("total = %d", k.Total())
	}
	spans := k.Spans()
	if len(spans) != 3 {
		t.Fatalf("retained = %d", len(spans))
	}
	// Oldest first, with the two oldest evicted.
	for i, want := range []SpanID{3, 4, 5} {
		if spans[i].ID != want {
			t.Fatalf("spans[%d].ID = %d, want %d", i, spans[i].ID, want)
		}
	}
}

// runFixedWorkload drives one synthetic operation sequence through a tracer.
func runFixedWorkload(tr *Tracer) {
	for i := 0; i < 20; i++ {
		base := time.Duration(i) * time.Millisecond
		sp := tr.StartOp("mkdir", base)
		c := sp.Child("txn", base+100*time.Microsecond)
		c.RecordHop(HopCrossZone, 64*(i+1), time.Millisecond)
		c.SetAttr("tc", "ndb-1")
		c.Finish(base + 500*time.Microsecond)
		if i%5 == 0 {
			sp.SetError()
		}
		sp.Finish(base + time.Duration(i%7)*100*time.Microsecond + 600*time.Microsecond)
	}
}

// formatSamples renders samples one per line as "name value", with counter
// values printed as integers.
func formatSamples(samples []Sample) string {
	var b strings.Builder
	for _, s := range samples {
		if s.Kind == KindGauge {
			fmt.Fprintf(&b, "%s %.3f\n", s.Name, s.Value)
		} else {
			fmt.Fprintf(&b, "%s %.0f\n", s.Name, s.Value)
		}
	}
	return b.String()
}

func TestDeterministicOutput(t *testing.T) {
	render := func() (string, string) {
		tr := NewTracer(NewRegistry())
		tr.EnableSink(16)
		runFixedWorkload(tr)
		var flames strings.Builder
		for _, s := range tr.Sink().Spans() {
			flames.WriteString(s.Render())
		}
		return formatSamples(tr.Registry().Snapshot()), flames.String()
	}
	reg1, fl1 := render()
	reg2, fl2 := render()
	if reg1 != reg2 {
		t.Fatalf("registry output not deterministic:\n%s\nvs\n%s", reg1, reg2)
	}
	if fl1 != fl2 {
		t.Fatalf("flame output not deterministic:\n%s\nvs\n%s", fl1, fl2)
	}
	if !strings.Contains(fl1, "mkdir") || !strings.Contains(fl1, "txn") {
		t.Fatalf("flame output missing spans:\n%s", fl1)
	}
	if !strings.Contains(fl1, "xAZ=") {
		t.Fatalf("flame output missing cross-AZ bytes:\n%s", fl1)
	}
	if v, _ := Lookup(nil, "nope"); v != 0 {
		t.Fatal("lookup on nil samples")
	}
}

func TestRenderMarksErrors(t *testing.T) {
	tr := NewTracer(NewRegistry())
	tr.EnableSink(4)
	sp := tr.StartOp("delete", 0)
	sp.SetError()
	sp.Finish(time.Millisecond)
	out := sp.Render()
	if !strings.Contains(out, "ERR") {
		t.Fatalf("render lacks ERR flag:\n%s", out)
	}
}

func TestSinkDropAccounting(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg)
	sink := tr.EnableSink(2)
	for i := 0; i < 5; i++ {
		sp := tr.StartOp("stat", time.Duration(i)*time.Millisecond)
		sp.Finish(time.Duration(i+1) * time.Millisecond)
	}
	if sink.Total() != 5 {
		t.Fatalf("total = %d, want 5", sink.Total())
	}
	if sink.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", sink.Dropped())
	}
	if got, ok := Lookup(reg.Snapshot(), "trace.sink.dropped"); !ok || got != 3 {
		t.Fatalf("trace.sink.dropped = %v (present=%v), want 3", got, ok)
	}
	if len(sink.Spans()) != 2 {
		t.Fatalf("retained = %d, want 2", len(sink.Spans()))
	}
	var nilSink *Sink
	if nilSink.Dropped() != 0 {
		t.Fatal("nil sink Dropped != 0")
	}
}

// TestSpanRootOpNameAndAttrs: a child knows its root and the root's op
// name, SetAttr replaces a key set twice, and SetBenign on a child marks
// the whole operation.
func TestSpanRootOpNameAndAttrs(t *testing.T) {
	tr := NewTracer(NewRegistry())
	tr.EnableSink(4)
	root := tr.StartOp("rename", 0)
	child := root.Child("resolve", time.Millisecond)
	if child.Root() != root || root.Root() != root {
		t.Fatal("Root does not lead to the tree's root span")
	}
	if child.OpName() != "rename" {
		t.Fatalf("child OpName = %q, want rename", child.OpName())
	}
	child.SetAttr("op.batched", "1")
	child.SetAttr("rows", "3")
	child.SetAttr("op.batched", "2")
	if want := []Attr{{"op.batched", "2"}, {"rows", "3"}}; fmt.Sprint(child.Attrs) != fmt.Sprint(want) {
		t.Fatalf("attrs = %v, want %v", child.Attrs, want)
	}
	child.SetError()
	child.SetBenign()
	if !root.Err || !root.Benign {
		t.Fatalf("root err=%v benign=%v, want both set from the child", root.Err, root.Benign)
	}
	var nilSpan *Span
	nilSpan.SetBenign()
	if nilSpan.Root() != nil || nilSpan.OpName() != "" {
		t.Fatal("nil span has a root or an op name")
	}
}

// TestStartOpIntoReusesItsBuffer: in aggregate mode StartOpInto
// reinitializes the caller's buffer as a root span; with a sink it returns
// a fresh detailed span, since the sink retains finished trees.
func TestStartOpIntoReusesItsBuffer(t *testing.T) {
	tr := NewTracer(NewRegistry())
	var buf Span
	sp := tr.StartOpInto(&buf, "stat", 0)
	if sp != &buf || sp.Root() != sp {
		t.Fatal("aggregate-mode StartOpInto did not root the caller's buffer")
	}
	sp.RecordHop(HopCrossZone, 50, time.Millisecond)
	sp.Finish(time.Millisecond)
	sp = tr.StartOpInto(&buf, "read", 2*time.Millisecond)
	if sp.Name != "read" || sp.HopBytes[HopCrossZone] != 0 {
		t.Fatalf("reused buffer kept state: name %q, cross-AZ bytes %d", sp.Name, sp.HopBytes[HopCrossZone])
	}
	sp.Finish(3 * time.Millisecond)
	if v, _ := Lookup(tr.Registry().Snapshot(), "op.stat.latency.count"); v != 1 {
		t.Fatalf("op.stat.latency.count = %v, want 1", v)
	}

	tr.EnableSink(4)
	sp = tr.StartOpInto(&buf, "stat", 4*time.Millisecond)
	if sp == &buf || sp.ID == 0 || sp.Child("c", 4*time.Millisecond) == nil {
		t.Fatal("detailed-mode StartOpInto did not mint a fresh detailed span")
	}
}
