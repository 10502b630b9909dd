package profile

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"hopsfscl/internal/trace"
)

// buildTree constructs the reference span tree used across tests:
//
//	create [0, 20ms]
//	├── txn       [1ms, 18ms]
//	│   ├── lock_wait [2ms, 5ms]
//	│   ├── prepare   [5ms, 10ms]   2ms cross-AZ wire time
//	│   └── commit    [10ms, 16ms]  3ms same-zone wire time
//
// Critical path: create self [0,1)+[18,20) = 3ms, txn self
// [1,2)+[16,18) = 3ms, lock_wait 3ms, prepare 5ms, commit 6ms.
func buildTree(t *testing.T) *trace.Span {
	t.Helper()
	tr := trace.NewTracer(trace.NewRegistry())
	tr.EnableSink(8)
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }

	root := tr.StartOp("create", 0)
	txn := root.Child("txn", ms(1))
	lw := txn.Child("lock_wait", ms(2))
	lw.Finish(ms(5))
	prep := txn.Child("prepare", ms(5))
	prep.RecordHop(trace.HopCrossZone, 128, ms(2))
	prep.Finish(ms(10))
	com := txn.Child("commit", ms(10))
	com.RecordHop(trace.HopSameZone, 64, ms(3))
	com.Finish(ms(16))
	txn.Finish(ms(18))
	root.Finish(ms(20))
	return root
}

func TestAnalyzeAttribution(t *testing.T) {
	root := buildTree(t)
	rep := Analyze([]*trace.Span{root})
	if rep.Spans != 1 || len(rep.Ops) != 1 {
		t.Fatalf("report shape: spans=%d ops=%d", rep.Spans, len(rep.Ops))
	}
	op := rep.Ops[0]
	if op.Op != "create" || op.Count != 1 || op.Errors != 0 {
		t.Fatalf("op profile = %+v", op)
	}
	if op.Total != 20*time.Millisecond {
		t.Fatalf("total = %v, want 20ms", op.Total)
	}
	// The critical path must tile the root exactly.
	var sum time.Duration
	for _, d := range op.ByCat {
		sum += d
	}
	if sum != op.Total {
		t.Fatalf("categories sum to %v, want %v", sum, op.Total)
	}
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	want := map[Category]time.Duration{
		CatLockWait:    ms(3),
		CatPrepare:     ms(3), // 5ms on path, 2ms of it cross-AZ wire
		CatCommit:      ms(3), // 6ms on path, 3ms of it same-zone wire
		CatHopCrossAZ:  ms(2),
		CatHopSameZone: ms(3),
		CatCompute:     ms(6), // root self 3ms + txn self 3ms
	}
	for c, d := range want {
		if op.ByCat[c] != d {
			t.Errorf("%s = %v, want %v", c, op.ByCat[c], d)
		}
	}
}

func TestAnalyzeOverlappingChildren(t *testing.T) {
	// Parallel fan-outs: two children covering the same interval. The
	// last-finishing child owns the overlap; totals still tile the root.
	tr := trace.NewTracer(trace.NewRegistry())
	tr.EnableSink(8)
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	root := tr.StartOp("attachBlocks", 0)
	a := root.Child("complete", ms(1))
	b := root.Child("complete", ms(1))
	a.Finish(ms(6))
	b.Finish(ms(9))
	root.Finish(ms(10))

	rep := Analyze([]*trace.Span{root})
	op := rep.Ops[0]
	var sum time.Duration
	for _, d := range op.ByCat {
		sum += d
	}
	if sum != ms(10) {
		t.Fatalf("categories sum to %v, want 10ms", sum)
	}
	// complete owns [1,9) = 8ms; root self is [0,1)+[9,10) = 2ms.
	if op.ByCat[CatComplete] != ms(8) {
		t.Errorf("complete = %v, want 8ms", op.ByCat[CatComplete])
	}
	if op.ByCat[CatCompute] != ms(2) {
		t.Errorf("compute = %v, want 2ms", op.ByCat[CatCompute])
	}
}

func TestAnalyzeDeterministic(t *testing.T) {
	roots := []*trace.Span{buildTree(t), buildTree(t)}
	a := Analyze(roots).Table()
	b := Analyze(roots).Table()
	if a != b {
		t.Fatalf("Table not deterministic:\n%s\nvs\n%s", a, b)
	}
	if FoldedStacks(roots) != FoldedStacks(roots) {
		t.Fatal("FoldedStacks not deterministic")
	}
}

func TestAnalyzeEmptyAndNil(t *testing.T) {
	if rep := Analyze(nil); rep.Spans != 0 || len(rep.Ops) != 0 {
		t.Fatalf("nil input produced %+v", rep)
	}
	var nilRep *Report
	if got := nilRep.Table(); !strings.Contains(got, "no traced") {
		t.Fatalf("nil report table = %q", got)
	}
	if _, total := nilRep.Totals(); total != 0 {
		t.Fatal("nil report total != 0")
	}
}

func TestFoldedStacks(t *testing.T) {
	out := FoldedStacks([]*trace.Span{buildTree(t)})
	wantLines := []string{
		"create 3000000",
		"create;txn 3000000",
		"create;txn;lock_wait 3000000",
		"create;txn;prepare 3000000",
		"create;txn;prepare;net.cross_az 2000000",
		"create;txn;commit 3000000",
		"create;txn;commit;net.same_zone 3000000",
	}
	for _, w := range wantLines {
		if !strings.Contains(out, w+"\n") {
			t.Errorf("folded output missing %q:\n%s", w, out)
		}
	}
	// Folded totals must also tile the root.
	var total int64
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		var v int64
		if _, err := fmtSscanf(line, &v); err != nil {
			t.Fatalf("bad folded line %q: %v", line, err)
		}
		total += v
	}
	if total != (20 * time.Millisecond).Nanoseconds() {
		t.Fatalf("folded total = %d, want 20ms", total)
	}
}

// fmtSscanf extracts the trailing integer of a folded line.
func fmtSscanf(line string, v *int64) (int, error) {
	i := strings.LastIndexByte(line, ' ')
	n, err := jsonNumber(line[i+1:])
	*v = n
	return 1, err
}

func jsonNumber(s string) (int64, error) {
	var n int64
	err := json.Unmarshal([]byte(s), &n)
	return n, err
}

func TestChromeTraceExport(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, []*trace.Span{buildTree(t)}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  uint64         `json:"tid"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("got %d events, want 5", len(doc.TraceEvents))
	}
	lastTs := -1.0
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			t.Fatalf("event ph = %q, want X", e.Ph)
		}
		if e.Ts < lastTs {
			t.Fatalf("ts not monotonic: %v after %v", e.Ts, lastTs)
		}
		lastTs = e.Ts
		if e.Dur < 0 {
			t.Fatalf("negative dur: %v", e.Dur)
		}
	}
	// Byte determinism.
	var buf2 bytes.Buffer
	if err := WriteChromeTrace(&buf2, []*trace.Span{buildTree(t)}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("chrome trace output not byte-identical")
	}
}

func TestTableRendersCategories(t *testing.T) {
	out := Analyze([]*trace.Span{buildTree(t)}).Table()
	for _, want := range []string{"create", "lock_wait", "net.cross_az", "compute", "15.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}
