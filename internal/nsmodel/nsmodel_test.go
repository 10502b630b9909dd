package nsmodel

import (
	"fmt"
	"testing"
)

// TestModelSemantics walks the oracle through one case of each error class
// and checks that a rename moves an inode, id and subtree, under its new
// name.
func TestModelSemantics(t *testing.T) {
	m := New()
	for _, step := range []struct {
		name string
		err  error
		want error
	}{
		{"mkdir /a", m.Mkdir("/a"), nil},
		{"mkdir /a again", m.Mkdir("/a"), ErrExists},
		{"create /a/f", m.Create("/a/f"), nil},
		{"create under a file", m.Create("/a/f/g"), ErrNotDir},
		{"create under a missing directory", m.Create("/b/g"), ErrNotFound},
		{"delete a non-empty directory", m.Delete("/a", false), ErrNotEmpty},
		{"rename into its own subtree", m.Rename("/a", "/a/b"), ErrCycle},
		{"rename /a to /b", m.Rename("/a", "/b"), nil},
		{"delete the old name", m.Delete("/a", true), ErrNotFound},
	} {
		if step.err != step.want {
			t.Errorf("%s: %v, want %v", step.name, step.err, step.want)
		}
	}
	dir, err := m.Stat("/b")
	if err != nil || dir != (Entry{ID: RootID + 1, Name: "b", Dir: true}) {
		t.Errorf("stat /b = %+v, %v: want the renamed directory, its id kept", dir, err)
	}
	kids, err := m.List("/b")
	if got := fmt.Sprint(kids); err != nil || got != fmt.Sprint([]Entry{{ID: RootID + 2, Name: "f"}}) {
		t.Errorf("list /b = %s, %v: want the moved file", got, err)
	}
	if _, err := m.List("/b/f"); err != ErrNotDir {
		t.Errorf("list of a file: %v, want %v", err, ErrNotDir)
	}
}
