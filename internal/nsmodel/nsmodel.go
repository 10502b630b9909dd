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
	"io"
	"maps"
	"slices"
	"strconv"
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
// the root. The zero value is not usable; see New.
type Model struct {
	nodes map[string]Entry
}

// New returns a model holding only the root directory.
func New() *Model {
	return &Model{nodes: map[string]Entry{"/": {ID: RootID, Dir: true}}}
}

// clone returns an independent copy of the model.
func (m *Model) clone() *Model {
	return &Model{nodes: maps.Clone(m.nodes)}
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

func (m *Model) walk(comps []string) (Entry, error) {
	cur := m.nodes["/"]
	for i := range comps {
		if !cur.Dir {
			return Entry{}, ErrNotDir
		}
		next, ok := m.nodes[join(comps[:i+1])]
		if !ok {
			return Entry{}, ErrNotFound
		}
		cur = next
	}
	return cur, nil
}

// parentOf resolves the directory that holds the last component.
func (m *Model) parentOf(comps []string) error {
	parent, err := m.walk(comps[:len(comps)-1])
	if err == nil && !parent.Dir {
		err = ErrNotDir
	}
	return err
}

func (m *Model) add(path string, e Entry) error {
	comps := split(path)
	if err := m.parentOf(comps); err != nil {
		return err
	}
	path = join(comps)
	if _, ok := m.nodes[path]; ok {
		return ErrExists
	}
	e.Name = comps[len(comps)-1]
	m.nodes[path] = e
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
	e, err := m.walk(split(path))
	if err != nil {
		return err
	}
	if e.Dir || (id != 0 && e.ID != 0 && e.ID != id) {
		return ErrNotFound
	}
	e.Size = size
	m.nodes[join(split(path))] = e
	return nil
}

// Delete removes a path; a non-empty directory only when recursive.
func (m *Model) Delete(path string, recursive bool) error {
	comps := split(path)
	if err := m.parentOf(comps); err != nil {
		return err
	}
	path = join(comps)
	if _, ok := m.nodes[path]; !ok {
		return ErrNotFound
	}
	for k := range m.nodes {
		if under(k, path) && !recursive {
			return ErrNotEmpty
		}
	}
	for k := range m.nodes {
		if k == path || under(k, path) {
			delete(m.nodes, k)
		}
	}
	return nil
}

// Rename moves src to dst, keeping its id. When it fails, it answers the
// first of renameErrs.
func (m *Model) Rename(src, dst string) error {
	if errs := m.renameErrs(src, dst); len(errs) > 0 {
		return errs[0]
	}
	srcComps, dstComps := split(src), split(dst)
	src, dst = join(srcComps), join(dstComps)
	n := m.nodes[src]
	moved := map[string]Entry{}
	for k, v := range m.nodes {
		if under(k, src) {
			moved[dst+k[len(src):]] = v
			delete(m.nodes, k)
		}
	}
	delete(m.nodes, src)
	n.Name = dstComps[len(dstComps)-1]
	moved[dst] = n
	for k, v := range moved {
		m.nodes[k] = v
	}
	return nil
}

// renameErrs lists every reason a rename of src to dst fails, in the
// metadata layer's order of checks on one cluster: the source's parent
// chain, the source, the destination's parent chain, a cycle, the
// destination. A rename whose rows live on two shards meets its checks in
// shard order, so it may answer any of them.
func (m *Model) renameErrs(src, dst string) []error {
	srcComps, dstComps := split(src), split(dst)
	var errs []error
	srcOK := false
	if err := m.parentOf(srcComps); err != nil {
		errs = append(errs, err)
	} else if _, ok := m.nodes[join(srcComps)]; !ok {
		errs = append(errs, ErrNotFound)
	} else {
		srcOK = true
	}
	dstParent, err := m.walk(dstComps[:len(dstComps)-1])
	switch up := join(dstComps[:len(dstComps)-1]); {
	case err != nil:
		errs = append(errs, err)
	case !dstParent.Dir:
		errs = append(errs, ErrNotDir)
	case srcOK && (up == join(srcComps) || under(up, join(srcComps))):
		errs = append(errs, ErrCycle)
	}
	if _, ok := m.nodes[join(dstComps)]; ok {
		errs = append(errs, ErrExists)
	}
	return errs
}

// List returns a directory's children sorted by name.
func (m *Model) List(path string) ([]Entry, error) {
	comps := split(path)
	n, err := m.walk(comps)
	if err != nil {
		return nil, err
	}
	if !n.Dir {
		return nil, ErrNotDir
	}
	dir := join(comps)
	out := []Entry{}
	for k, v := range m.nodes {
		if k != "/" && parent(k) == dir {
			out = append(out, v)
		}
	}
	slices.SortFunc(out, func(a, b Entry) int { return strings.Compare(a.Name, b.Name) })
	return out, nil
}

// children returns the children of the directory with the given id, sorted
// by name: none when no directory has that id.
func (m *Model) children(id uint64) []Entry {
	for k, v := range m.nodes {
		if v.ID == id && v.Dir {
			kids, _ := m.List(k)
			return kids
		}
	}
	return []Entry{}
}

// Stat returns the inode a path names.
func (m *Model) Stat(path string) (Entry, error) {
	return m.walk(split(path))
}

// Read returns the file a path names, as reading it does.
func (m *Model) Read(path string) (Entry, error) {
	e, err := m.walk(split(path))
	if err == nil && e.Dir {
		return Entry{}, ErrIsDir
	}
	return e, err
}

// key is the model's state as one string, the same for equal states.
func (m *Model) key() string {
	paths := make([]string, 0, len(m.nodes))
	for k := range m.nodes {
		paths = append(paths, k)
	}
	slices.Sort(paths)
	var b strings.Builder
	for _, k := range paths {
		e := m.nodes[k]
		b.WriteString(k)
		b.WriteByte(0)
		b.WriteString(strconv.FormatUint(e.ID, 36))
		if e.Dir {
			b.WriteByte('d')
		}
		b.WriteString(strconv.FormatInt(e.Size, 36))
		b.WriteByte(0)
	}
	return b.String()
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
