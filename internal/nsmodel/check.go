package nsmodel

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
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

// Outcome is what an operation returned, in the model's terms.
type Outcome struct {
	// Err is nil, one of the model's error classes, or ErrUnknown.
	Err error
	// Entry is the inode a create or a mkdir made, or the one a stat or a
	// read found.
	Entry Entry
	// List is a listing's children, name-sorted.
	List []Entry
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
// state) pairs, and it runs per partition of the history: operations that
// touch no common top-level directory are independent, and an operation on
// "/" itself joins them all. It returns nil when every partition has a linearization, and
// otherwise names the operation the longest one could not place.
func Check(ops []Op, outcome func(Op) Outcome, renames RenameErrs) error {
	outs := make([]Outcome, len(ops))
	for i, op := range ops {
		if !slices.Contains(modelled, op.Name) {
			return fmt.Errorf("op %d: Check does not model %q", i, op.Name)
		}
		outs[i] = outcome(op)
	}
	for _, part := range partitions(ops) {
		if err := linearize(ops, outs, part, renames); err != nil {
			return err
		}
	}
	return nil
}

// partitions groups the operations' indices by the connected sets of
// top-level directories they touch.
func partitions(ops []Op) [][]int {
	root := map[string]string{}
	var find func(string) string
	find = func(x string) string {
		r, ok := root[x]
		if !ok || r == x {
			root[x] = x
			return x
		}
		r = find(r)
		root[x] = r
		return r
	}
	top := func(path string) string {
		if comps := split(path); len(comps) > 0 {
			return comps[0]
		}
		return "/"
	}
	touched := func(op Op) []string {
		if op.Name == "rename" {
			return []string{top(op.Path), top(op.Dst)}
		}
		return []string{top(op.Path)}
	}
	for _, op := range ops {
		t := touched(op)
		for _, x := range t {
			root[find(x)] = find(t[0])
		}
	}
	if _, ok := root["/"]; ok {
		for x := range root {
			root[find(x)] = find("/")
		}
	}
	byRoot := map[string][]int{}
	var order []string
	for i, op := range ops {
		r := find(touched(op)[0])
		if _, ok := byRoot[r]; !ok {
			order = append(order, r)
		}
		byRoot[r] = append(byRoot[r], i)
	}
	out := make([][]int, len(order))
	for i, r := range order {
		out[i] = byRoot[r]
	}
	return out
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

// linearize runs the search over the operations part names.
func linearize(ops []Op, outs []Outcome, part []int, renames RenameErrs) error {
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
	for _, i := range part {
		promise, _ := PromiseOf(ops[i].Name)
		effect := promise.Effect
		ret := ops[i].Return
		switch {
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
	type frame struct {
		e *event
		m *Model
	}
	// placed marks the steps in the order so far; dir holds, for a
	// listing's scan whose resolve is placed, the directory it resolved.
	placed := make([]bool, len(steps))
	dir := make([]uint64, len(steps))
	seen := map[string]bool{}
	var stack []frame
	var longest []int
	stuck := -1
	m := New()
	for e := head.next; e != nil; {
		s := e.step
		if !e.call {
			if unknown[s] {
				// Every operation with a known outcome is placed: the rest
				// took effect after everything, or never.
				return nil
			}
			if len(stack) >= len(longest) {
				longest, stuck = longest[:0], steps[s].op
				for _, f := range stack {
					longest = append(longest, steps[f.e.step].op)
				}
			}
			if len(stack) == 0 {
				return failure(ops, outs, slices.Compact(longest), stuck)
			}
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			m, placed[f.e.step] = f.m, false
			unlift(f.e)
			e = f.e.next
			continue
		}
		st, next := steps[s], m
		ok := false
		switch st.phase {
		case Listed:
			var d Entry
			d, err := m.Stat(ops[st.op].Path)
			ok, dir[s+1] = err == nil && d.Dir, d.ID
		case scan:
			ok = placed[s-1] && (dir[s] == 0 || slices.EqualFunc(m.children(dir[s]), outs[st.op].List, sameEntry))
		default:
			next = m.clone()
			ok = apply(next, ops[st.op], outs[st.op], renames)
		}
		if ok {
			placed[s] = true
			if key := stateKey(placed, dir, steps) + next.key(); !seen[key] {
				seen[key] = true
				stack = append(stack, frame{e, m})
				m = next
				lift(e)
				e = head.next
				continue
			}
			placed[s] = false
		}
		e = e.next
	}
	return nil
}

// stateKey is the search's memo key but for the model: the steps placed,
// and the directory each listing whose scan is still to place resolved.
func stateKey(placed []bool, dir []uint64, steps []step) string {
	b := make([]byte, 0, len(placed)+1)
	for i, p := range placed {
		switch {
		case p:
			b = append(b, '1')
		case steps[i].phase == scan && placed[i-1]:
			b = strconv.AppendUint(append(b, '('), dir[i], 36)
			b = append(b, ')')
		default:
			b = append(b, '0')
		}
	}
	return string(append(b, '|'))
}

// failure describes a history without a linearization: the longest order
// the search found, and the operation it could not place before that
// operation returned.
func failure(ops []Op, outs []Outcome, longest []int, stuck int) error {
	var b strings.Builder
	fmt.Fprintf(&b, "no linearization; the longest order placed %d operations, ending:", len(longest))
	for _, i := range longest[max(0, len(longest)-8):] {
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
	case op.Name == "list":
		s += fmt.Sprintf(": %v", out.List)
	case out.Entry != (Entry{}):
		s += fmt.Sprintf(": %+v", out.Entry)
	}
	return s
}

// modelled names the operations apply runs.
var modelled = []string{"mkdir", "create", "attachBlocks", "delete", "rename", "stat", "read", "list"}

// apply runs op on m and reports whether the model answers it as it was
// answered, a failed rename as renames says; an operation whose outcome is
// unknown is answered either way.
func apply(m *Model, op Op, out Outcome, renames RenameErrs) bool {
	var err error
	var got Entry
	var list []Entry
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
		if renames == AnyRenameErr && slices.Contains(m.renameErrs(op.Path, op.Dst), out.Err) {
			return true
		}
		err = m.Rename(op.Path, op.Dst)
	case "stat":
		got, err = m.Stat(op.Path)
	case "read":
		got, err = m.Read(op.Path)
	case "list":
		list, err = m.List(op.Path)
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
	case op.Name == "list":
		return slices.EqualFunc(list, out.List, sameEntry)
	}
	return true
}

// sameEntry compares the model's entry with an observed one; a model id of
// 0 is not known and matches any.
func sameEntry(want, got Entry) bool {
	return want.Name == got.Name && want.Dir == got.Dir && want.Size == got.Size && (want.ID == 0 || want.ID == got.ID)
}
