package nsmodel

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"
)

// Effect is when an operation's outcome is decided, relative to its call.
type Effect uint8

const (
	// Atomic: a mutation takes effect at one instant between its invoke
	// and its return — or, when its outcome is unknown, at one instant
	// after its invoke or never.
	Atomic Effect = iota + 1
	// Snapshot: a read returns the namespace as committed at one instant
	// between its invoke and its return, and changes nothing.
	Snapshot
	// Listed: a listing resolves its directory at one instant and reads
	// that directory's children at a later one, both between its invoke
	// and its return: two reads, each read committed, with no lock to hold
	// the directory between them. A directory gone by the second instant
	// has no children.
	Listed
)

// Promise is one operation's row: when the metadata layer promises it
// takes effect, by which Check judges it.
type Promise struct {
	Op     string
	Effect Effect
}

// Promises holds one row per client operation, in the order reports list
// them, and its names are the client operations' names everywhere: root
// spans, per-op metrics, traces. A mutation's written rows
// are locked exclusively at their chain's heads, and a create's, a delete's
// or a rename's parent is share-locked. A read takes no lock: it is read
// committed at the replica nearest its transaction coordinator, which
// under Read Backup is in the coordinator's AZ. Rows are stored once, so
// every replica serves the committed value of the same instant, and two
// readers in different AZs cannot see a write that is not yet acked in
// opposite orders: each read sees the namespace of one instant. A
// cross-shard mutation shows at one instant, its writers' release.
var Promises = []Promise{
	{Op: "stat", Effect: Snapshot},
	{Op: "read", Effect: Snapshot},
	{Op: "list", Effect: Listed},
	{Op: "create", Effect: Atomic},
	{Op: "mkdir", Effect: Atomic},
	{Op: "delete", Effect: Atomic},
	{Op: "rename", Effect: Atomic},
	{Op: "setPermission", Effect: Atomic},
	{Op: "setOwner", Effect: Atomic},
	{Op: "setQuota", Effect: Atomic},
	{Op: "quota", Effect: Snapshot},
	{Op: "attachBlocks", Effect: Atomic},
	{Op: "contentSummary", Effect: Snapshot},
}

// PromiseOf returns op's row.
func PromiseOf(op string) (Promise, bool) {
	i := slices.IndexFunc(Promises, func(p Promise) bool { return p.Op == op })
	if i < 0 {
		return Promise{}, false
	}
	return Promises[i], true
}

// ErrUnknown is the outcome of an operation whose effect its client cannot
// know: it took effect at one instant after its invoke, or never.
var ErrUnknown = errors.New("nsmodel: outcome unknown")

// ErrNotApplied is the outcome of an operation that took no effect and
// answered nothing: its request never reached the metadata layer, or every
// attempt stopped before its commit point. Check leaves it out.
var ErrNotApplied = errors.New("nsmodel: not applied")

// Outcome is what an operation returned, in the model's terms.
type Outcome struct {
	// Err is nil, one of the model's error classes, ErrUnknown or
	// ErrNotApplied.
	Err error
	// Entry is the inode a create or a mkdir made, or the one a stat or a
	// read found.
	Entry Entry
	// List is a listing's children, name-sorted.
	List Entries
}

// Entries is a listing's children, name-sorted, read where it holds them.
type Entries interface {
	Len() int
	At(i int) Entry
}

// sameList compares the model's children with a listing's, nil if empty.
func sameList(want []Entry, got Entries) bool {
	if got == nil || len(want) != got.Len() {
		return got == nil && len(want) == 0
	}
	for i, e := range want {
		if !sameEntry(e, got.At(i)) {
			return false
		}
	}
	return true
}

// RenameErrs says which error a failed rename may answer.
type RenameErrs uint8

const (
	// FirstRenameErr: the model's (Model.Rename), as one cluster checks.
	FirstRenameErr RenameErrs = iota
	// AnyRenameErr: that of any check the rename fails (renameErrs), as a
	// rename whose rows span shards may answer.
	AnyRenameErr
)

// Check searches the history for a linearization: an order of its
// operations that respects real time — an operation that returned before
// another was invoked comes first — in which the model, applying each
// operation in turn, answers every one as it was answered, a failed rename
// as renames says. outcome maps an operation onto the model's terms. The
// search is Wing and Gong's, with Lowe's memo of (operations placed, model
// state) pairs kept as 128-bit hashes. An operation that took no effect
// (ErrNotApplied) is left out. It returns nil when the history has a
// linearization, and otherwise names the operation the longest order found
// could not place.
func Check(ops []Op, outcome func(Op) Outcome, renames RenameErrs) error {
	outs := make([]Outcome, len(ops))
	for i, op := range ops {
		if !slices.Contains(modelled, op.Name) {
			return fmt.Errorf("op %d: Check does not model %q", i, op.Name)
		}
		outs[i] = outcome(op)
	}
	return linearize(ops, outs, renames)
}

// step is one instant of an operation the search places: the whole of
// it, or one of a listing's two (see Listed).
type step struct {
	op    int
	phase Effect // Atomic or Snapshot: the whole op; Listed: resolve; scan: the children
}

// scan is the second step of a Listed operation.
const scan Effect = 0

// event is one end of a step's interval, linked in time order.
type event struct {
	step       int
	call       bool
	at         time.Duration
	match      *event
	prev, next *event
}

// linearize runs the search. A state's memo key is a 128-bit hash kept as
// the search goes — the model's, and that of each placed step and of each
// listing's pending scan with the directory its resolve found — and
// backtracking rolls the model back by its journal.
func linearize(ops []Op, outs []Outcome, renames RenameErrs) error {
	var steps []step
	var evs []*event
	unknown := map[int]bool{}
	add := func(st step, ret time.Duration) {
		c := &event{step: len(steps), call: true, at: ops[st.op].Invoke}
		r := &event{step: len(steps), at: ret}
		c.match = r
		steps = append(steps, st)
		evs = append(evs, c, r)
	}
	for i := range ops {
		promise, _ := PromiseOf(ops[i].Name)
		effect := promise.Effect
		ret := ops[i].Return
		switch {
		case outs[i].Err == ErrNotApplied:
			continue // it took no effect and answered nothing
		case outs[i].Err == ErrUnknown && effect != Atomic:
			continue // a read nobody saw the answer of constrains nothing
		case outs[i].Err == ErrUnknown:
			unknown[len(steps)], ret = true, math.MaxInt64
		case effect == Listed && outs[i].Err == nil:
			add(step{i, Listed}, ret)
			effect = scan
		case effect == Listed:
			effect = Snapshot // a refused listing resolved, and scanned nothing
		}
		add(step{i, effect}, ret)
	}
	// Time order; at one instant a return comes before a call: an
	// operation that returned as another was invoked precedes it.
	slices.SortStableFunc(evs, func(a, b *event) int {
		if a.at != b.at {
			return cmp.Compare(a.at, b.at)
		}
		if a.call != b.call {
			if a.call {
				return 1
			}
			return -1
		}
		return 0
	})
	head := &event{}
	prev := head
	for _, e := range evs {
		prev.next, e.prev = e, prev
		prev = e
	}
	lift := func(e *event) {
		for _, x := range []*event{e, e.match} {
			x.prev.next = x.next
			if x.next != nil {
				x.next.prev = x.prev
			}
		}
	}
	unlift := func(e *event) {
		for _, x := range []*event{e.match, e} {
			x.prev.next = x
			if x.next != nil {
				x.next.prev = x
			}
		}
	}
	// A frame is one placed step: its call, and the journal's length and
	// the steps' hash before it.
	type frame struct {
		e    *event
		undo int
		sum  [2]uint64
	}
	// placed marks the steps in the order so far; dir holds, for a
	// listing's scan whose resolve is placed, the directory it resolved.
	placed := make([]bool, len(steps))
	dir := make([]uint64, len(steps))
	var sum [2]uint64
	seen := map[[2]uint64]bool{}
	var stack []frame
	// The longest order found: its length, its last operations, and the
	// operation it could not place.
	longest, stuck := 0, -1
	var tail []int
	m := New()
	m.journal = true
	// Each level tries the steps of known outcome first, then (late) those
	// of unknown outcome: one that never took effect is then tried only
	// where nothing else fits.
	late := false
	for e := head.next; e != nil; {
		s := e.step
		if !e.call {
			if unknown[s] {
				// Every operation with a known outcome is placed: the rest
				// took effect after everything, or never.
				return nil
			}
			if !late {
				late, e = true, head.next
				continue
			}
			if len(stack) >= longest {
				longest, stuck, tail = len(stack), steps[s].op, tail[:0]
				for _, f := range stack[max(0, len(stack)-16):] {
					tail = append(tail, steps[f.e.step].op)
				}
			}
			// Backtrack to the last step placed in place of which another
			// could be. A read placed is not one: it changed nothing and
			// answered as the namespace stood, so any order that placed
			// another step there could have placed the read first.
			for {
				if len(stack) == 0 {
					return failure(ops, outs, longest, slices.Compact(tail), stuck)
				}
				f := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				m.rollback(f.undo)
				sum, placed[f.e.step] = f.sum, false
				unlift(f.e)
				if e, late = f.e.next, unknown[f.e.step]; steps[f.e.step].phase == Atomic || steps[f.e.step].phase == Listed {
					break
				}
			}
			continue
		}
		if unknown[s] != late {
			e = e.next
			continue
		}
		st, undo, next := steps[s], len(m.undo), sum
		ok := false
		switch st.phase {
		case Listed:
			d, err := m.Stat(ops[st.op].Path)
			ok, dir[s+1] = err == nil && d.Dir, d.ID
			toggle(&next, pending{s + 1, d.ID})
		case scan:
			ok = placed[s-1] && (dir[s] == 0 || sameList(m.children(dir[s]), outs[st.op].List))
			toggle(&next, pending{s, dir[s]})
		default:
			ok = apply(m, ops[st.op], outs[st.op], renames)
		}
		toggle(&next, s)
		if key := [2]uint64{next[0] ^ m.sum[0], next[1] ^ m.sum[1]}; ok && !seen[key] {
			seen[key] = true
			stack = append(stack, frame{e, undo, sum})
			sum, placed[s], late = next, true, false
			lift(e)
			e = head.next
			continue
		}
		m.rollback(undo)
		e = e.next
	}
	return nil
}

// pending is a listing's scan whose resolve is placed, by the directory
// the resolve found: part of the search's state.
type pending struct {
	step int
	dir  uint64
}

// failure describes a history without a linearization: the longest order
// the search found, and the operation it could not place before that
// operation returned.
func failure(ops []Op, outs []Outcome, steps int, tail []int, stuck int) error {
	var b strings.Builder
	fmt.Fprintf(&b, "no linearization; the longest order placed %d steps, ending:", steps)
	for _, i := range tail[max(0, len(tail)-8):] {
		b.WriteString("\n  " + describe(i, ops[i], outs[i]))
	}
	b.WriteString("\nand could not place:\n  " + describe(stuck, ops[stuck], outs[stuck]))
	return errors.New(b.String())
}

func describe(i int, op Op, out Outcome) string {
	s := fmt.Sprintf("op %d client %d [%v, %v] %s %s", i, op.Client, op.Invoke, op.Return, op.Name, op.Path)
	if op.Dst != "" {
		s += " -> " + op.Dst
	}
	if op.Recursive {
		s += " (recursive)"
	}
	switch {
	case out.Err != nil:
		s += ": " + out.Err.Error()
	case op.Name == "list" && out.List != nil:
		s += fmt.Sprintf(": %d children", out.List.Len())
	case out.Entry != (Entry{}):
		s += fmt.Sprintf(": %+v", out.Entry)
	}
	return s
}

// modelled names the operations apply runs.
var modelled = []string{"mkdir", "create", "attachBlocks", "delete", "rename", "stat", "read", "list"}

// apply runs op on m and reports whether the model answers it as it was
// answered, a failed rename as renames says; an operation whose outcome is
// unknown is answered either way. A listing here was refused: the search
// judges one that answered as its two reads.
func apply(m *Model, op Op, out Outcome, renames RenameErrs) bool {
	var err error
	var got Entry
	switch op.Name {
	case "mkdir":
		err = m.Mkdir(op.Path, out.Entry.ID)
	case "create":
		err = m.Create(op.Path, out.Entry.ID, op.Size)
	case "attachBlocks":
		err = m.Attach(op.Path, op.ID, op.Size)
	case "delete":
		err = m.Delete(op.Path, op.Recursive)
	case "rename":
		if renames == AnyRenameErr && slices.Contains(m.renameErrs(clean(op.Path), clean(op.Dst)), out.Err) {
			return true
		}
		err = m.Rename(op.Path, op.Dst)
	case "stat":
		got, err = m.Stat(op.Path)
	case "read":
		got, err = m.Read(op.Path)
	case "list":
		_, err = m.List(op.Path)
	}
	switch {
	case out.Err == ErrUnknown:
		return true
	case err != out.Err:
		return false
	case err != nil:
		return true
	case op.Name == "stat" || op.Name == "read":
		return sameEntry(got, out.Entry)
	}
	return true
}

// sameEntry compares the model's entry with an observed one; a model id of
// 0 is not known and matches any.
func sameEntry(want, got Entry) bool {
	return want.Name == got.Name && want.Dir == got.Dir && want.Size == got.Size && (want.ID == 0 || want.ID == got.ID)
}
