// Package nsmodel is the namespace's sequential oracle and the client
// history it judges. Model is a plain in-memory tree that answers mkdir,
// create, delete, rename, list and stat the way the metadata layer promises
// to, with the same classes of error; History is what a client records of
// each operation it ran: what it invoked, when, and what came back.
package nsmodel

import (
	"errors"
	"slices"
	"strings"
	"time"
)

// The model's error classes. A caller comparing an implementation against
// the model maps the implementation's errors onto these.
var (
	ErrNotFound = errors.New("nsmodel: no such file or directory")
	ErrExists   = errors.New("nsmodel: file exists")
	ErrNotDir   = errors.New("nsmodel: not a directory")
	ErrNotEmpty = errors.New("nsmodel: directory not empty")
	ErrCycle    = errors.New("nsmodel: rename would create a cycle")
)

// Entry is what the model answers about one inode. ID is the model's own,
// numbered in creation order from RootID, so an implementation's inode ids
// compare with the model's only up to renaming.
type Entry struct {
	ID   uint64
	Name string
	Dir  bool
}

// RootID is the model's id of the root directory.
const RootID = 1

type node struct {
	Entry
	children map[string]*node
}

// Model is the oracle's tree. The zero value is not usable; see New.
type Model struct {
	root *node
	next uint64
}

// New returns a model holding only the root directory.
func New() *Model {
	return &Model{root: &node{Entry: Entry{ID: RootID, Dir: true}, children: map[string]*node{}}, next: RootID + 1}
}

// split returns an absolute path's components; "/" has none. Paths are
// taken as valid: the model does not judge path syntax.
func split(path string) []string {
	if path = strings.Trim(path, "/"); path == "" {
		return nil
	}
	return strings.Split(path, "/")
}

func (m *Model) walk(comps []string) (*node, error) {
	cur := m.root
	for _, c := range comps {
		if !cur.Dir {
			return nil, ErrNotDir
		}
		next, ok := cur.children[c]
		if !ok {
			return nil, ErrNotFound
		}
		cur = next
	}
	return cur, nil
}

// parentOf resolves the directory that holds the last component.
func (m *Model) parentOf(comps []string) (*node, string, error) {
	parent, err := m.walk(comps[:len(comps)-1])
	if err != nil {
		return nil, "", err
	}
	if !parent.Dir {
		return nil, "", ErrNotDir
	}
	return parent, comps[len(comps)-1], nil
}

func (m *Model) add(path string, dir bool) error {
	parent, name, err := m.parentOf(split(path))
	if err != nil {
		return err
	}
	if _, ok := parent.children[name]; ok {
		return ErrExists
	}
	n := &node{Entry: Entry{ID: m.next, Name: name, Dir: dir}}
	if dir {
		n.children = map[string]*node{}
	}
	m.next++
	parent.children[name] = n
	return nil
}

// Mkdir creates a directory.
func (m *Model) Mkdir(path string) error { return m.add(path, true) }

// Create creates a file.
func (m *Model) Create(path string) error { return m.add(path, false) }

// Delete removes a path; a non-empty directory only when recursive.
func (m *Model) Delete(path string, recursive bool) error {
	parent, name, err := m.parentOf(split(path))
	if err != nil {
		return err
	}
	n, ok := parent.children[name]
	if !ok {
		return ErrNotFound
	}
	if n.Dir && len(n.children) > 0 && !recursive {
		return ErrNotEmpty
	}
	delete(parent.children, name)
	return nil
}

// Rename moves src to dst, keeping its id. The checks run in the metadata
// layer's order: source parent, source, destination parent chain, cycle,
// destination.
func (m *Model) Rename(src, dst string) error {
	srcComps, dstComps := split(src), split(dst)
	srcParent, srcName, err := m.parentOf(srcComps)
	if err != nil {
		return err
	}
	n, ok := srcParent.children[srcName]
	if !ok {
		return ErrNotFound
	}
	dstParent, err := m.walk(dstComps[:len(dstComps)-1])
	if err != nil {
		return err
	}
	if !dstParent.Dir {
		return ErrNotDir
	}
	// Cycle: the destination parent chain must not pass through n.
	cur := m.root
	for _, c := range dstComps[:len(dstComps)-1] {
		if cur == n {
			return ErrCycle
		}
		cur = cur.children[c]
	}
	if cur == n {
		return ErrCycle
	}
	dstName := dstComps[len(dstComps)-1]
	if _, ok := dstParent.children[dstName]; ok {
		return ErrExists
	}
	delete(srcParent.children, srcName)
	n.Name = dstName
	dstParent.children[dstName] = n
	return nil
}

// List returns a directory's children sorted by name.
func (m *Model) List(path string) ([]Entry, error) {
	n, err := m.walk(split(path))
	if err != nil {
		return nil, err
	}
	if !n.Dir {
		return nil, ErrNotDir
	}
	out := make([]Entry, 0, len(n.children))
	for _, c := range n.children {
		out = append(out, c.Entry)
	}
	slices.SortFunc(out, func(a, b Entry) int { return strings.Compare(a.Name, b.Name) })
	return out, nil
}

// Stat returns the inode a path names.
func (m *Model) Stat(path string) (Entry, error) {
	n, err := m.walk(split(path))
	if err != nil {
		return Entry{}, err
	}
	return n.Entry, nil
}

// Op is one client operation as its client saw it. Name is the operation
// ("mkdir", "create", "delete", "rename", "list", "stat", ...), Path its
// target, Dst a rename's destination and Recursive a delete's flag. Return
// is zero and Err nil while the operation is in flight; Result is what a
// successful operation returned, nil for an operation that returns nothing.
type Op struct {
	Client         int
	Name           string
	Path, Dst      string
	Recursive      bool
	Invoke, Return time.Duration
	Err            error
	Result         any
}

// History is a record of client operations in invoke order. Clients that
// share one record their operations interleaved.
type History struct {
	Ops []Op
}

// Invoke records op as invoked and returns its index.
func (h *History) Invoke(op Op) int {
	h.Ops = append(h.Ops, op)
	return len(h.Ops) - 1
}

// Return records the outcome of the operation at index i.
func (h *History) Return(i int, at time.Duration, err error) {
	h.Ops[i].Return, h.Ops[i].Err = at, err
}
