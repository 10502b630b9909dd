package nsmodel

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// TestOpsRoundTrip writes every shape of line — a one-path op, a rename, a
// recursive delete — and reads the same ops back.
func TestOpsRoundTrip(t *testing.T) {
	ops := []Op{
		{Name: "mkdir", Path: "/a"},
		{Name: "create", Path: "/a/f"},
		{Name: "rename", Path: "/a/f", Dst: "/a/g"},
		{Name: "stat", Path: "/a/g"},
		{Name: "delete", Path: "/a/g"},
		{Name: "delete", Path: "/a", Recursive: true},
	}
	var buf strings.Builder
	if err := WriteOps(&buf, ops); err != nil {
		t.Fatal(err)
	}
	if want := "mkdir /a\ncreate /a/f\nrename /a/f /a/g\nstat /a/g\ndelete /a/g\ndelete -r /a\n"; buf.String() != want {
		t.Fatalf("written:\n%s\nwant:\n%s", buf.String(), want)
	}
	got, err := ReadOps(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, ops) {
		t.Fatalf("read back %+v, want %+v", got, ops)
	}
}

func TestReadOpsRejectsGarbage(t *testing.T) {
	cases := []string{
		"fly /a",
		"mkdir",
		"rename /a",
		"delete -r",
		// A field too many is a malformed line (an unescaped space in a
		// path), not noise to drop: the replay would diverge from the
		// recording.
		"stat /a extra",
		"mkdir /a /b",
		"rename /a /b /c",
		"delete /path with spaces",
		"delete -r /a /b",
		// -r is a delete's flag only.
		"stat -r /a",
	}
	for _, c := range cases {
		if _, err := ReadOps(strings.NewReader(c)); err == nil {
			t.Errorf("trace %q accepted", c)
		}
	}
	// Comments and blanks are fine.
	got, err := ReadOps(strings.NewReader("# header\n\nmkdir /a\n"))
	if err != nil || len(got) != 1 {
		t.Fatalf("comment handling: %v %v", got, err)
	}
}

func TestReadOpsEdgeCases(t *testing.T) {
	// Blank lines, indentation, comments, a rename with both endpoints and
	// a recursive delete — the whole accepted grammar in one document.
	doc := "\n\n  # generated\n  mkdir /a  \n\ncreate /a/f\nrename /a/f /a/g\n delete  -r  /a \n# trailing comment\n"
	got, err := ReadOps(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	want := []Op{
		{Name: "mkdir", Path: "/a"},
		{Name: "create", Path: "/a/f"},
		{Name: "rename", Path: "/a/f", Dst: "/a/g"},
		{Name: "delete", Path: "/a", Recursive: true},
	}
	if !slices.Equal(got, want) {
		t.Errorf("parsed %+v, want %+v", got, want)
	}
	// Error messages carry the 1-based physical line number, counting
	// blanks and comments.
	_, err = ReadOps(strings.NewReader("mkdir /a\n\n# c\nrename /x\n"))
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Errorf("line number missing or wrong: %v", err)
	}
	// An empty document is an empty trace, not an error.
	if ops, err := ReadOps(strings.NewReader("")); err != nil || len(ops) != 0 {
		t.Errorf("empty input: %v %v", ops, err)
	}
}

// FuzzReadOps checks that ReadOps never panics and that every trace it
// accepts survives WriteOps → ReadOps unchanged.
func FuzzReadOps(f *testing.F) {
	f.Add("\n\n  # generated\n  mkdir /a  \n\ncreate /a/f\nrename /a/f /a/g\n# trailing comment\n")
	f.Add("stat /a\nread /a/f\nlist /a\ndelete /a/f\nsetPermission /a\ndelete -r /a\n")
	f.Add("stat #not-a-comment\n")
	for _, bad := range []string{"fly /a", "mkdir", "rename /a", "stat /a extra", "rename /a /b /c"} {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, text string) {
		ops, err := ReadOps(strings.NewReader(text))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteOps(&buf, ops); err != nil {
			t.Fatal(err)
		}
		again, err := ReadOps(&buf)
		if err != nil {
			t.Fatalf("written trace does not parse: %v", err)
		}
		if !slices.Equal(again, ops) {
			t.Fatalf("round trip changed the trace: %+v, was %+v", again, ops)
		}
	})
}
