package nsmodel

import (
	"fmt"
	"testing"
	"time"
)

// TestModelSemantics walks the oracle through one case of each error class
// and checks that a rename moves an inode, id and subtree, under its new
// name, and that an attach lands only on the file it names.
func TestModelSemantics(t *testing.T) {
	m := New()
	for _, step := range []struct {
		name string
		err  error
		want error
	}{
		{"mkdir /a", m.Mkdir("/a", 2), nil},
		{"mkdir /a again", m.Mkdir("/a", 3), ErrExists},
		{"create /a/f", m.Create("/a/f", 4, 0), nil},
		{"create under a file", m.Create("/a/f/g", 5, 0), ErrNotDir},
		{"create under a missing directory", m.Create("/b/g", 6, 0), ErrNotFound},
		{"delete a non-empty directory", m.Delete("/a", false), ErrNotEmpty},
		{"rename into its own subtree", m.Rename("/a", "/a/b"), ErrCycle},
		{"rename /a to /b", m.Rename("/a", "/b"), nil},
		{"delete the old name", m.Delete("/a", true), ErrNotFound},
		{"attach to another inode", m.Attach("/b/f", 7, 10), ErrNotFound},
		{"attach to a directory", m.Attach("/b", 2, 10), ErrNotFound},
		{"attach to the file", m.Attach("/b/f", 4, 10), nil},
	} {
		if step.err != step.want {
			t.Errorf("%s: %v, want %v", step.name, step.err, step.want)
		}
	}
	dir, err := m.Stat("/b")
	if err != nil || dir != (Entry{ID: 2, Name: "b", Dir: true}) {
		t.Errorf("stat /b = %+v, %v: want the renamed directory, its id kept", dir, err)
	}
	kids, err := m.List("/b")
	if got := fmt.Sprint(kids); err != nil || got != fmt.Sprint([]Entry{{ID: 4, Name: "f", Size: 10}}) {
		t.Errorf("list /b = %s, %v: want the moved file with its blocks", got, err)
	}
	if _, err := m.List("/b/f"); err != ErrNotDir {
		t.Errorf("list of a file: %v, want %v", err, ErrNotDir)
	}
	if _, err := m.Read("/b"); err != ErrIsDir {
		t.Errorf("read of a directory: %v, want %v", err, ErrIsDir)
	}
}

// TestCheckFindsTheOrder: a history whose operations overlap is accepted
// when some real-time order explains every answer, and refused when none
// does. Client 2 stats a file's old name and then its new one while client
// 1 renames it: finding it under the old name, then the new one, has an
// order; under neither name, or under both, has none. An operation whose
// outcome is unknown may be placed anywhere after its invoke, or nowhere.
func TestCheckFindsTheOrder(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	observed := map[int]Outcome{}
	outcome := func(op Op) Outcome {
		return observed[int(op.Invoke/time.Millisecond)]
	}
	f := Entry{ID: 3, Name: "f"}
	setup := []Op{
		{Client: 1, Name: "mkdir", Path: "/a", Invoke: ms(0), Return: ms(1)},
		{Client: 1, Name: "mkdir", Path: "/b", Invoke: ms(1), Return: ms(2)},
		{Client: 1, Name: "create", Path: "/a/f", Invoke: ms(2), Return: ms(3)},
	}
	observed[0] = Outcome{Entry: Entry{ID: 2, Name: "a", Dir: true}}
	observed[1] = Outcome{Entry: Entry{ID: 4, Name: "b", Dir: true}}
	observed[2] = Outcome{Entry: f}
	history := func(renameErr, first, second error) []Op {
		observed[10] = Outcome{Err: renameErr}
		observed[11] = Outcome{Err: first, Entry: f}
		observed[13] = Outcome{Err: second, Entry: f}
		return append(setup[:3:3],
			Op{Client: 1, Name: "rename", Path: "/a/f", Dst: "/b/f", Invoke: ms(10), Return: ms(20)},
			Op{Client: 2, Name: "stat", Path: "/a/f", Invoke: ms(11), Return: ms(12)},
			Op{Client: 2, Name: "stat", Path: "/b/f", Invoke: ms(13), Return: ms(14)},
		)
	}
	for _, c := range []struct {
		name                     string
		renameErr, first, second error
		ok                       bool
	}{
		{"old name, then new", nil, nil, nil, true},
		{"old name, then not yet", nil, nil, ErrNotFound, true},
		{"neither name", nil, ErrNotFound, ErrNotFound, false},
		{"new name before the rename began", ErrExists, ErrNotFound, nil, false},
		{"unknown rename, applied", ErrUnknown, nil, nil, true},
		{"unknown rename, never applied", ErrUnknown, nil, ErrNotFound, true},
		{"unknown rename, neither name", ErrUnknown, ErrNotFound, ErrNotFound, false},
	} {
		err := Check(history(c.renameErr, c.first, c.second), outcome, FirstRenameErr)
		if (err == nil) != c.ok {
			t.Errorf("%s: Check = %v, want linearizable %v", c.name, err, c.ok)
		}
	}
	if err := Check([]Op{{Name: "setOwner", Path: "/a"}}, outcome, FirstRenameErr); err == nil {
		t.Error("Check accepted an operation it does not model")
	}
}

// TestCheckHoldsAFailedRenameToItsFirstError: a rename whose source is gone
// and whose destination is taken answers ErrNotFound on one cluster, the
// model's first error; a rename whose rows span shards may meet the taken
// destination first, so AnyRenameErr also accepts ErrExists.
func TestCheckHoldsAFailedRenameToItsFirstError(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	history := []Op{
		{Client: 1, Name: "mkdir", Path: "/a", Invoke: ms(0), Return: ms(1)},
		{Client: 1, Name: "mkdir", Path: "/b", Invoke: ms(1), Return: ms(2)},
		{Client: 1, Name: "rename", Path: "/a/f", Dst: "/b", Invoke: ms(2), Return: ms(3)},
	}
	for _, c := range []struct {
		err     error
		renames RenameErrs
		ok      bool
	}{
		{ErrNotFound, FirstRenameErr, true},
		{ErrExists, FirstRenameErr, false},
		{ErrNotFound, AnyRenameErr, true},
		{ErrExists, AnyRenameErr, true},
		{ErrCycle, AnyRenameErr, false},
	} {
		outcome := func(op Op) Outcome {
			if op.Name == "rename" {
				return Outcome{Err: c.err}
			}
			return Outcome{Entry: Entry{ID: uint64(2 + op.Invoke/time.Millisecond), Name: op.Path[1:], Dir: true}}
		}
		if err := Check(history, outcome, c.renames); (err == nil) != c.ok {
			t.Errorf("a rename answering %v, renames %d: Check = %v, want linearizable %v", c.err, c.renames, err, c.ok)
		}
	}
}

// TestCheckJudgesAListingByItsTwoReads: a listing resolves its directory,
// then reads its children, each read committed. One that overlaps a
// recursive delete of its directory may find the directory and then no
// children; it may not find children the directory never had.
func TestCheckJudgesAListingByItsTwoReads(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	outs := map[time.Duration]Outcome{
		ms(0): {Entry: Entry{ID: 2, Name: "d", Dir: true}},
		ms(1): {Entry: Entry{ID: 3, Name: "f"}},
	}
	history := func(list []Entry) []Op {
		outs[ms(11)] = Outcome{List: list}
		return []Op{
			{Client: 1, Name: "mkdir", Path: "/d", Invoke: ms(0), Return: ms(1)},
			{Client: 1, Name: "create", Path: "/d/f", Invoke: ms(1), Return: ms(2)},
			{Client: 1, Name: "delete", Path: "/d", Recursive: true, Invoke: ms(10), Return: ms(20)},
			{Client: 2, Name: "list", Path: "/d", Invoke: ms(11), Return: ms(12)},
		}
	}
	outcome := func(op Op) Outcome { return outs[op.Invoke] }
	if err := Check(history([]Entry{}), outcome, FirstRenameErr); err != nil {
		t.Errorf("a listing that found its directory, then none of its children: %v", err)
	}
	if err := Check(history([]Entry{{ID: 3, Name: "f"}}), outcome, FirstRenameErr); err != nil {
		t.Errorf("a listing before the delete: %v", err)
	}
	if err := Check(history([]Entry{{ID: 4, Name: "g"}}), outcome, FirstRenameErr); err == nil {
		t.Error("a listing of a child the directory never had was accepted")
	}
}
