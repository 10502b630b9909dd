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

// TestModelRefusals runs each call on a path it must refuse, or must
// resolve despite its spelling, and checks the error class it answers; then
// records a history, and looks up an op no row promises.
func TestModelRefusals(t *testing.T) {
	m := New()
	if err := m.Mkdir("/a", 2); err != nil {
		t.Fatal(err)
	}
	if err := m.Create("/a/f", 3, 0); err != nil {
		t.Fatal(err)
	}
	stat := func(path string) error { _, err := m.Stat(path); return err }
	read := func(path string) error { _, err := m.Read(path); return err }
	list := func(path string) error { _, err := m.List(path); return err }
	for _, c := range []struct {
		name      string
		err, want error
	}{
		{"stat of the root spelled //", stat("//"), nil},
		{"stat through a file", stat("/a/f/x"), ErrNotDir},
		{"read of a file", read("/a/f"), nil},
		{"read of a missing file", read("/a/g"), ErrNotFound},
		{"read of a directory", read("/a"), ErrIsDir},
		{"list of a missing directory", list("/b"), ErrNotFound},
		{"list of a file", list("/a/f"), ErrNotDir},
		{"attach to a missing file", m.Attach("/a/g", 4, 1), ErrNotFound},
		{"attach to a directory", m.Attach("/a", 2, 1), ErrNotFound},
		{"attach with another id", m.Attach("/a/f", 4, 1), ErrNotFound},
		{"delete under a missing directory", m.Delete("/b/f", false), ErrNotFound},
		{"rename from under a missing directory", m.Rename("/b/f", "/a/g"), ErrNotFound},
		{"rename into a missing directory", m.Rename("/a/f", "/b/g"), ErrNotFound},
		{"rename under a file", m.Rename("/a", "/a/f/g"), ErrNotDir},
		{"rename the root below itself", m.Rename("/", "/a/r"), ErrCycle},
	} {
		if c.err != c.want {
			t.Errorf("%s: %v, want %v", c.name, c.err, c.want)
		}
	}
	if f, err := m.Stat("/a/f"); err != nil || f != (Entry{ID: 3, Name: "f"}) {
		t.Errorf("stat /a/f = %+v, %v: a refused call changed the file", f, err)
	}

	var h History
	first := h.Invoke(Op{Client: 1, Name: "mkdir", Path: "/a", Invoke: time.Millisecond})
	second := h.Invoke(Op{Client: 2, Name: "stat", Path: "/a", Invoke: 2 * time.Millisecond})
	h.Return(second, 3*time.Millisecond, ErrNotFound)
	if first != 0 || second != 1 || len(h.Ops) != 2 {
		t.Fatalf("invoke indexes %d, %d of %d ops, want 0, 1 of 2", first, second, len(h.Ops))
	}
	if op := h.Ops[second]; op.Return != 3*time.Millisecond || op.Err != ErrNotFound || op.Name != "stat" {
		t.Errorf("returned op = %+v", op)
	}
	if op := h.Ops[first]; op.Return != 0 || op.Err != nil {
		t.Errorf("op in flight = %+v, want no return", op)
	}

	if p, ok := PromiseOf("fly"); ok {
		t.Errorf("PromiseOf(fly) = %+v, want no row", p)
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
		outs[ms(11)] = Outcome{List: entryList(list)}
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

// TestModelRollsBack: rolling the model's journal back to any mark restores
// the namespace, its indexes and its hash as the mark saw them, and one
// namespace has one hash however it was reached. A path with stray slashes
// names the inode its clean form does.
func TestModelRollsBack(t *testing.T) {
	m := New()
	m.journal = true
	state := func() string {
		kids := map[string][]Entry{}
		for dir, k := range m.kids {
			if len(k) > 0 {
				kids[dir] = k
			}
		}
		return fmt.Sprint(m.nodes, kids, m.dirs, m.sum)
	}
	type mark struct {
		undo  int
		state string
	}
	var marks []mark
	for _, step := range []func() error{
		func() error { return m.Mkdir("/a", 2) },
		func() error { return m.Mkdir("//a/b/", 3) },
		func() error { return m.Create("/a/b/f", 4, 1) },
		func() error { return m.Attach("a/b/f", 4, 9) },
		func() error { return m.Mkdir("/c", 5) },
		func() error { return m.Rename("/a/b", "/c/b") },
		func() error { return m.Delete("/c", true) },
	} {
		marks = append(marks, mark{len(m.undo), state()})
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	if kids, _ := m.List("/"); fmt.Sprint(kids) != fmt.Sprint([]Entry{{ID: 2, Name: "a", Dir: true}}) {
		t.Errorf("list / = %v after the recursive delete of /c", kids)
	}
	for i := len(marks) - 1; i >= 0; i-- {
		m.rollback(marks[i].undo)
		if got := state(); got != marks[i].state {
			t.Errorf("rolled back before step %d: %s, want %s", i, got, marks[i].state)
		}
	}
	direct, moved := New(), New()
	direct.Mkdir("/a", 2)
	direct.Create("/a/f", 3, 0)
	moved.Mkdir("/x", 2)
	moved.Create("/x/f", 3, 0)
	moved.Rename("/x", "/a")
	if direct.sum != moved.sum {
		t.Error("one namespace hashes two ways")
	}
	if _, err := moved.Read("/a"); err != ErrIsDir {
		t.Errorf("read of a directory: %v, want %v", err, ErrIsDir)
	}
}

// TestCheckLeavesOutWhatTookNoEffect: a create that took no effect
// (ErrNotApplied) is in no order, so a later stat must miss its file.
func TestCheckLeavesOutWhatTookNoEffect(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	history := []Op{
		{Client: 1, Name: "create", Path: "/f", Invoke: ms(0), Return: ms(1)},
		{Client: 2, Name: "stat", Path: "/f", Invoke: ms(2), Return: ms(3)},
	}
	for _, stat := range []error{ErrNotFound, nil} {
		outcome := func(op Op) Outcome {
			if op.Name == "create" {
				return Outcome{Err: ErrNotApplied}
			}
			return Outcome{Err: stat, Entry: Entry{ID: 2, Name: "f"}}
		}
		if err := Check(history, outcome, FirstRenameErr); (err == nil) != (stat != nil) {
			t.Errorf("a stat answering %v after a create that took no effect: Check = %v", stat, err)
		}
	}
}

// TestCheckSearchOrder pins the search's two ordering rules. A placed read
// is never swapped for another step, but the search still backtracks past
// it to the mutation placed before it: the first order tried places the
// create, then the stat, and only one that places the delete (it answered
// ErrNotFound) before the create fits. A step of unknown outcome is tried
// after the known ones, and still tried: the stat found a file only the
// unknown create made.
func TestCheckSearchOrder(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	d := Entry{ID: 2, Name: "d", Dir: true}
	past := []Op{
		{Client: 1, Name: "mkdir", Path: "/d", Invoke: ms(0), Return: ms(1)},
		{Client: 1, Name: "create", Path: "/d/x", Invoke: ms(2), Return: ms(10)},
		{Client: 2, Name: "delete", Path: "/d/x", Invoke: ms(3), Return: ms(10)},
		{Client: 3, Name: "stat", Path: "/d", Invoke: ms(4), Return: ms(10)},
	}
	outs := map[string]Outcome{
		"mkdir":  {Entry: d},
		"create": {Entry: Entry{ID: 3, Name: "x"}},
		"delete": {Err: ErrNotFound},
		"stat":   {Entry: d},
	}
	if err := Check(past, func(op Op) Outcome { return outs[op.Name] }, FirstRenameErr); err != nil {
		t.Errorf("a delete that missed a concurrent create, with a read placed after the create: %v", err)
	}
	late := []Op{
		{Client: 1, Name: "create", Path: "/f", Invoke: ms(0), Return: ms(1)},
		{Client: 2, Name: "stat", Path: "/f", Invoke: ms(2), Return: ms(3)},
	}
	outs = map[string]Outcome{"create": {Err: ErrUnknown}, "stat": {Entry: Entry{ID: 4, Name: "f"}}}
	if err := Check(late, func(op Op) Outcome { return outs[op.Name] }, FirstRenameErr); err != nil {
		t.Errorf("a stat finding the file of a create of unknown outcome: %v", err)
	}
}

// entryList is a listing held as a slice.
type entryList []Entry

func (l entryList) Len() int       { return len(l) }
func (l entryList) At(i int) Entry { return l[i] }
