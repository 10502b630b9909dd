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
	if r.Timing("t") != r.Timing("t") {
		t.Fatal("same name returned distinct timings")
	}
}

func TestSnapshotDiffLookup(t *testing.T) {
	r := NewRegistry()
	r.Counter("ops").Add(10)
	r.Gauge("depth").Set(3)
	tm := r.Timing("lat")
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
	var tm *Timing
	tm.Observe(time.Second)
	var r *Registry
	r.Counter("x").Add(1)
	r.Timing("y").Observe(time.Second)
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
	k.Reset()
	if len(k.Spans()) != 0 || k.Total() != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestSlowestOrderAndTieBreak(t *testing.T) {
	k := NewSink(8)
	k.Add(&Span{ID: 1, End: 5 * time.Millisecond})
	k.Add(&Span{ID: 2, End: 9 * time.Millisecond})
	k.Add(&Span{ID: 3, End: 9 * time.Millisecond})
	k.Add(&Span{ID: 4, End: 1 * time.Millisecond})
	got := k.Slowest(3)
	if len(got) != 3 || got[0].ID != 2 || got[1].ID != 3 || got[2].ID != 1 {
		ids := []SpanID{}
		for _, s := range got {
			ids = append(ids, s.ID)
		}
		t.Fatalf("slowest IDs = %v, want [2 3 1]", ids)
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
		for _, s := range tr.Sink().Slowest(5) {
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
