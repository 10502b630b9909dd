package workload

import (
	"bytes"
	"strings"
	"testing"

	"hopsfscl/internal/sim"
)

func TestRecorderCapturesEveryOp(t *testing.T) {
	env := sim.New(1)
	defer env.Close()
	inner := newFakeFS()
	rec := NewRecorder(inner)
	env.Spawn("driver", func(p *sim.Proc) {
		_ = rec.Mkdir(p, "/d")
		_ = rec.Create(p, "/d/f")
		_ = rec.Stat(p, "/d/f")
		_ = rec.Read(p, "/d/f")
		_ = rec.List(p, "/d")
		_ = rec.Rename(p, "/d/f", "/d/g")
		_ = rec.SetPermission(p, "/d/g")
		_ = rec.Delete(p, "/d/g")
	})
	env.Run()
	trace := rec.Trace()
	if len(trace) != 8 {
		t.Fatalf("recorded %d ops, want 8", len(trace))
	}
	if trace[5].Op != OpRename || trace[5].Dst != "/d/g" {
		t.Fatalf("rename recorded as %+v", trace[5])
	}
	// The inner FS saw everything too.
	if inner.calls["mkdir"] != 1 || inner.calls["delete"] != 1 {
		t.Fatalf("inner calls: %v", inner.calls)
	}
}

func TestTraceRoundTripAndReplay(t *testing.T) {
	trace := []TraceOp{
		{Op: OpMkdir, Path: "/a"},
		{Op: OpCreate, Path: "/a/f"},
		{Op: OpRename, Path: "/a/f", Dst: "/a/g"},
		{Op: OpStat, Path: "/a/g"},
		{Op: OpDelete, Path: "/a/g"},
	}
	var buf strings.Builder
	if err := WriteTrace(&buf, trace); err != nil {
		t.Fatal(err)
	}
	parsed, err := ReadTrace(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(trace) {
		t.Fatalf("parsed %d ops, want %d", len(parsed), len(trace))
	}
	for i := range trace {
		if parsed[i] != trace[i] {
			t.Fatalf("op %d: %+v != %+v", i, parsed[i], trace[i])
		}
	}

	env := sim.New(1)
	defer env.Close()
	fs := newFakeFS()
	var errs int
	env.Spawn("replay", func(p *sim.Proc) { errs = Replay(p, fs, parsed) })
	env.Run()
	if errs != 0 {
		t.Fatalf("replay errors: %d", errs)
	}
	if fs.calls["mkdir"] != 1 || fs.calls["rename"] != 1 || fs.calls["delete"] != 1 {
		t.Fatalf("replayed calls: %v", fs.calls)
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	cases := []string{
		"fly /a",
		"mkdir",
		"rename /a",
		// Trailing fields are malformed lines (unescaped spaces in a path),
		// not noise to drop: the replay would diverge from the recording.
		"stat /a extra",
		"mkdir /a /b",
		"rename /a /b /c",
		"delete /path with spaces",
	}
	for _, c := range cases {
		if _, err := ReadTrace(strings.NewReader(c)); err == nil {
			t.Errorf("trace %q accepted", c)
		}
	}
	// Comments and blanks are fine.
	got, err := ReadTrace(strings.NewReader("# header\n\nmkdir /a\n"))
	if err != nil || len(got) != 1 {
		t.Fatalf("comment handling: %v %v", got, err)
	}
}

func TestReadTraceEdgeCases(t *testing.T) {
	// Blank lines, indentation, comments, and a rename with both endpoints —
	// the whole accepted grammar in one document.
	doc := "\n\n  # generated\n  mkdir /a  \n\ncreateFile /a/f\nrename /a/f /a/g\n# trailing comment\n"
	got, err := ReadTrace(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	want := []TraceOp{
		{Op: OpMkdir, Path: "/a"},
		{Op: OpCreate, Path: "/a/f"},
		{Op: OpRename, Path: "/a/f", Dst: "/a/g"},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d ops, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("op %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	// Error messages carry the 1-based physical line number, counting
	// blanks and comments.
	_, err = ReadTrace(strings.NewReader("mkdir /a\n\n# c\nrename /x\n"))
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Errorf("line number missing or wrong: %v", err)
	}
	// An empty document is an empty trace, not an error.
	if ops, err := ReadTrace(strings.NewReader("")); err != nil || len(ops) != 0 {
		t.Errorf("empty input: %v %v", ops, err)
	}
}

// FuzzReadTrace checks that ReadTrace never panics and that every trace it
// accepts survives WriteTrace → ReadTrace unchanged.
func FuzzReadTrace(f *testing.F) {
	f.Add("\n\n  # generated\n  mkdir /a  \n\ncreateFile /a/f\nrename /a/f /a/g\n# trailing comment\n")
	f.Add("stat /a\nreadFile /a/f\nlistDir /a\ndeleteFile /a/f\nsetPermission /a\n")
	f.Add("stat #not-a-comment\n")
	for _, bad := range []string{"fly /a", "mkdir", "rename /a", "stat /a extra", "rename /a /b /c"} {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, text string) {
		ops, err := ReadTrace(strings.NewReader(text))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, ops); err != nil {
			t.Fatal(err)
		}
		again, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("written trace does not parse: %v", err)
		}
		if len(again) != len(ops) {
			t.Fatalf("round trip changed the trace length: %d vs %d", len(ops), len(again))
		}
		for i := range ops {
			if again[i] != ops[i] {
				t.Fatalf("op %d = %+v, was %+v", i, again[i], ops[i])
			}
		}
	})
}
