// Package nsmodel is the namespace's sequential oracle, the client history
// it judges, and the check that judges it. Model is a plain in-memory
// namespace that answers mkdir, create, delete, rename, attach, list, stat
// and read the way the metadata layer promises to, with the same classes of
// error; History is what clients record of each operation they ran: what
// they invoked, when, and what came back; WriteOps and ReadOps carry what
// operations ran as text, a trace; Check searches a concurrent history for
// an order of its operations that the model accepts (check.go).
package nsmodel

import (
	"bufio"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
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
	ErrIsDir    = errors.New("nsmodel: is a directory")
)

// Entry is what the model answers about one inode. ID is the
// implementation's inode id, which the caller hands the model when it
// creates the inode — the model never numbers inodes itself — and 0 where
// the caller does not know it, which matches any id. Size is a file's
// logical size; a directory's is 0.
type Entry struct {
	ID   uint64
	Name string
	Dir  bool
	Size int64
}

// RootID is the id of the root directory.
const RootID = 1

// Model is the oracle's namespace: every inode by its absolute path, "/"
// the root, with two indexes — each directory's children, and each
// directory's path by its id — and a hash of the whole. The zero value is
// not usable; see New.
type Model struct {
	nodes map[string]Entry
	// kids holds each directory's children sorted by name, by the
	// directory's path.
	kids map[string][]Entry
	// dirs holds each directory's path by its id, where the id is known.
	dirs map[uint64]string
	// sum is a 128-bit hash of the namespace: the XOR of every inode's
	// (path, entry) hash but the root's, the same for equal namespaces.
	sum [2]uint64
	// While journal is set, write notes in undo what each path held
	// before, so that rollback can restore it: Check's search backtracks
	// this way.
	journal bool
	undo    []change
}

// change is what one write replaced: path held e, or nothing when !had.
type change struct {
	path string
	e    Entry
	had  bool
}

// node is what the namespace hash hashes: one inode at its path.
type node struct {
	path string
	e    Entry
}

// New returns a model holding only the root directory.
func New() *Model {
	return &Model{
		nodes: map[string]Entry{"/": {ID: RootID, Dir: true}},
		kids:  map[string][]Entry{},
		dirs:  map[uint64]string{RootID: "/"},
	}
}

// hashSeeds seed the 128-bit hashes of a model and of Check's search.
var hashSeeds = [2]maphash.Seed{maphash.MakeSeed(), maphash.MakeSeed()}

// toggle adds v to the XOR hash h, or takes it out again.
func toggle[T comparable](h *[2]uint64, v T) {
	h[0] ^= maphash.Comparable(hashSeeds[0], v)
	h[1] ^= maphash.Comparable(hashSeeds[1], v)
}

// split returns an absolute path's components; "/" has none. Paths are
// taken as valid: the model does not judge path syntax.
func split(path string) []string {
	if path = strings.Trim(path, "/"); path == "" {
		return nil
	}
	return strings.Split(path, "/")
}

// join is split's inverse.
func join(comps []string) string { return "/" + strings.Join(comps, "/") }

// clean returns path as the model keys it: one slash before each component
// and none after the last, "/" for the root.
func clean(path string) string {
	if !strings.HasPrefix(path, "/") || strings.Contains(path, "//") || len(path) > 1 && strings.HasSuffix(path, "/") {
		return join(split(path))
	}
	return path
}

// under reports whether path lies strictly below dir.
func under(path, dir string) bool {
	if dir == "/" {
		return path != "/"
	}
	return strings.HasPrefix(path, dir) && strings.HasPrefix(path[len(dir):], "/")
}

// parent returns the path of the directory that holds path.
func parent(path string) string {
	if i := strings.LastIndexByte(path, '/'); i > 0 {
		return path[:i]
	}
	return "/"
}

// base returns the last component of a clean path.
func base(path string) string { return path[strings.LastIndexByte(path, '/')+1:] }

// walk resolves a clean path one component at a time.
func (m *Model) walk(path string) (Entry, error) {
	cur := m.nodes["/"]
	for i := 2; i <= len(path); i++ {
		if i < len(path) && path[i] != '/' {
			continue
		}
		if !cur.Dir {
			return Entry{}, ErrNotDir
		}
		next, ok := m.nodes[path[:i]]
		if !ok {
			return Entry{}, ErrNotFound
		}
		cur = next
	}
	return cur, nil
}

// parentOf resolves the directory that holds a clean path's last component.
func (m *Model) parentOf(path string) error {
	parent, err := m.walk(parent(path))
	if err == nil && !parent.Dir {
		err = ErrNotDir
	}
	return err
}

// write makes path hold e, or nothing when !ok, keeping the indexes and
// the hash, and, while journaling, notes what path held.
func (m *Model) write(path string, e Entry, ok bool) {
	old, had := m.nodes[path]
	if m.journal {
		m.undo = append(m.undo, change{path, old, had})
	}
	dir := parent(path)
	kids := m.kids[dir]
	i, _ := slices.BinarySearchFunc(kids, base(path), func(k Entry, name string) int { return strings.Compare(k.Name, name) })
	if had {
		toggle(&m.sum, node{path, old})
		if old.Dir && m.dirs[old.ID] == path {
			delete(m.dirs, old.ID)
		}
		kids = slices.Delete(kids, i, i+1)
		delete(m.nodes, path)
	}
	if ok {
		toggle(&m.sum, node{path, e})
		if e.Dir && e.ID != 0 {
			m.dirs[e.ID] = path
		}
		kids = slices.Insert(kids, i, e)
		m.nodes[path] = e
	}
	m.kids[dir] = kids
}

// rollback restores the namespace the journal held n changes ago.
func (m *Model) rollback(n int) {
	m.journal = false
	for len(m.undo) > n {
		c := m.undo[len(m.undo)-1]
		m.undo = m.undo[:len(m.undo)-1]
		m.write(c.path, c.e, c.had)
	}
	m.journal = true
}

// subtree lists path and every path below it, each directory before its
// children.
func (m *Model) subtree(path string) []string {
	out := []string{path}
	for i := 0; i < len(out); i++ {
		for _, k := range m.kids[out[i]] {
			out = append(out, out[i]+"/"+k.Name)
		}
	}
	return out
}

func (m *Model) add(path string, e Entry) error {
	path = clean(path)
	if err := m.parentOf(path); err != nil {
		return err
	}
	if _, ok := m.nodes[path]; ok {
		return ErrExists
	}
	e.Name = base(path)
	m.write(path, e, true)
	return nil
}

// Mkdir creates a directory with the given id.
func (m *Model) Mkdir(path string, id uint64) error { return m.add(path, Entry{ID: id, Dir: true}) }

// Create creates a file with the given id and size.
func (m *Model) Create(path string, id uint64, size int64) error {
	return m.add(path, Entry{ID: id, Size: size})
}

// Attach gives the file id at path its block list of size bytes. It
// answers ErrNotFound when path holds another inode, or a directory: a
// write's blocks land on the file it created, or the write fails.
func (m *Model) Attach(path string, id uint64, size int64) error {
	path = clean(path)
	e, err := m.walk(path)
	if err != nil {
		return err
	}
	if e.Dir || (id != 0 && e.ID != 0 && e.ID != id) {
		return ErrNotFound
	}
	e.Size = size
	m.write(path, e, true)
	return nil
}

// Delete removes a path; a non-empty directory only when recursive.
func (m *Model) Delete(path string, recursive bool) error {
	path = clean(path)
	if err := m.parentOf(path); err != nil {
		return err
	}
	if _, ok := m.nodes[path]; !ok {
		return ErrNotFound
	}
	if len(m.kids[path]) > 0 && !recursive {
		return ErrNotEmpty
	}
	sub := m.subtree(path)
	for i := len(sub) - 1; i >= 0; i-- {
		m.write(sub[i], Entry{}, false)
	}
	return nil
}

// Rename moves src to dst, keeping its id. When it fails, it answers the
// first of renameErrs.
func (m *Model) Rename(src, dst string) error {
	src, dst = clean(src), clean(dst)
	if errs := m.renameErrs(src, dst); len(errs) > 0 {
		return errs[0]
	}
	sub := m.subtree(src)
	moved := make([]Entry, len(sub))
	for i := len(sub) - 1; i >= 0; i-- {
		moved[i] = m.nodes[sub[i]]
		m.write(sub[i], Entry{}, false)
	}
	moved[0].Name = base(dst)
	for i, path := range sub {
		m.write(dst+path[len(src):], moved[i], true)
	}
	return nil
}

// renameErrs lists every reason a rename of src to dst fails, in the
// metadata layer's order of checks on one cluster: the source's parent
// chain, the source, the destination's parent chain, a cycle, the
// destination. A rename whose rows live on two shards meets its checks in
// shard order, so it may answer any of them. Both paths are clean.
func (m *Model) renameErrs(src, dst string) []error {
	var errs []error
	srcOK := false
	if err := m.parentOf(src); err != nil {
		errs = append(errs, err)
	} else if _, ok := m.nodes[src]; !ok {
		errs = append(errs, ErrNotFound)
	} else {
		srcOK = true
	}
	up := parent(dst)
	dstParent, err := m.walk(up)
	switch {
	case err != nil:
		errs = append(errs, err)
	case !dstParent.Dir:
		errs = append(errs, ErrNotDir)
	case srcOK && (up == src || under(up, src)):
		errs = append(errs, ErrCycle)
	}
	if _, ok := m.nodes[dst]; ok {
		errs = append(errs, ErrExists)
	}
	return errs
}

// List returns a directory's children sorted by name.
func (m *Model) List(path string) ([]Entry, error) {
	path = clean(path)
	n, err := m.walk(path)
	if err != nil {
		return nil, err
	}
	if !n.Dir {
		return nil, ErrNotDir
	}
	return append([]Entry{}, m.kids[path]...), nil
}

// children returns the children of the directory with the given id, sorted
// by name: none when no directory has that id.
func (m *Model) children(id uint64) []Entry {
	if path, ok := m.dirs[id]; ok {
		return m.kids[path]
	}
	return nil
}

// Stat returns the inode a path names.
func (m *Model) Stat(path string) (Entry, error) {
	return m.walk(clean(path))
}

// Read returns the file a path names, as reading it does.
func (m *Model) Read(path string) (Entry, error) {
	e, err := m.walk(clean(path))
	if err == nil && e.Dir {
		return Entry{}, ErrIsDir
	}
	return e, err
}

// Op is one client operation as its client saw it. Name is the operation
// ("mkdir", "create", "delete", "rename", "list", "stat", ...), Path its
// target, Dst a rename's destination and Recursive a delete's flag; Size is
// a create's or an attach's size, and ID the inode an attach addresses.
// Return is zero and Err nil while the operation is in flight; Result is
// what a successful operation returned — the inode a create or a mkdir
// made — nil for an operation that returns nothing.
type Op struct {
	Client         int
	Name           string
	Path, Dst      string
	Recursive      bool
	Size           int64
	ID             uint64
	Invoke, Return time.Duration
	Err            error
	Result         any
}

// WriteOps writes what each operation ran, one a line, as ReadOps reads it:
//
//	<name> [-r] <path> [<dst>]
//
// where -r marks a recursive delete and dst is a rename's destination. It
// is a trace: a recorded run that another deployment can replay.
func WriteOps(w io.Writer, ops []Op) error {
	bw := bufio.NewWriter(w)
	for _, op := range ops {
		bw.WriteString(op.Name)
		if op.Recursive {
			bw.WriteString(" -r")
		}
		bw.WriteString(" " + op.Path)
		if op.Dst != "" {
			bw.WriteString(" " + op.Dst)
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// ReadOps parses WriteOps's format, skipping blank lines and # comments.
// Each name is a row of Promises; a line with a field too many or too few
// is refused, naming its line, since replaying it would run another
// operation than the one recorded.
func ReadOps(r io.Reader) ([]Op, error) {
	var ops []Op
	sc := bufio.NewScanner(r)
	for line := 1; sc.Scan(); line++ {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		op := Op{Name: f[0]}
		if _, ok := PromiseOf(op.Name); !ok {
			return nil, fmt.Errorf("nsmodel: line %d: unknown op %q", line, op.Name)
		}
		f = f[1:]
		if op.Name == "delete" && len(f) > 0 && f[0] == "-r" {
			op.Recursive, f = true, f[1:]
		}
		paths := 1
		if op.Name == "rename" {
			paths = 2
		}
		if len(f) != paths {
			return nil, fmt.Errorf("nsmodel: line %d: %s takes %d path(s), not %d", line, op.Name, paths, len(f))
		}
		op.Path = f[0]
		if paths == 2 {
			op.Dst = f[1]
		}
		ops = append(ops, op)
	}
	return ops, sc.Err()
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
