package namenode

import "strings"

// fsPath is a validated absolute path, parsed once per operation: the
// caller's string plus the offset just past each component. Components and
// every ancestor prefix ("/a", "/a/b", ...) are substrings of that one
// string, so resolution, the partition hint, the hint cache and its
// invalidation all share it instead of splitting and re-joining. The zero
// value is "no path".
type fsPath struct {
	raw string // the caller's string, untouched
	// lo is the offset of the last leading slash — prefixes start there, so
	// "//a/b/" yields the same "/a" and "/a/b" as "/a/b".
	lo int
	// The n components end just before offsets ends[i] in raw: the first
	// eight inline, the rest spilled to more[i-8].
	n    int
	ends [8]int
	more []int
}

// splitPath is the one path validator: absolute, no empty, "." or ".."
// component. Runs of leading and of trailing slashes are tolerated; "/"
// alone is the root (depth 0).
func splitPath(path string) (fsPath, error) {
	if path == "" || path[0] != '/' {
		return fsPath{}, ErrInvalidPath
	}
	if path == "/" {
		return fsPath{raw: path}, nil
	}
	lo, hi := 0, len(path)
	for lo+1 < hi && path[lo+1] == '/' {
		lo++
	}
	for hi > lo+1 && path[hi-1] == '/' {
		hi--
	}
	// An all-slash path longer than "/" falls out below as an empty component.
	fp := fsPath{raw: path, lo: lo}
	for start := lo + 1; start <= hi; {
		end := hi
		if i := strings.IndexByte(path[start:hi], '/'); i >= 0 {
			end = start + i
		}
		if c := path[start:end]; c == "" || c == "." || c == ".." {
			return fsPath{}, ErrInvalidPath
		}
		if fp.n < len(fp.ends) {
			fp.ends[fp.n] = end
		} else {
			fp.more = append(fp.more, end)
		}
		fp.n++
		start = end + 1
	}
	return fp, nil
}

// depth is the number of components ("/" has none).
func (fp *fsPath) depth() int { return fp.n }

// end is the offset in raw just past component i.
func (fp *fsPath) end(i int) int {
	if i < len(fp.ends) {
		return fp.ends[i]
	}
	return fp.more[i-len(fp.ends)]
}

// comp returns component i.
func (fp *fsPath) comp(i int) string {
	start := fp.lo + 1
	if i > 0 {
		start = fp.end(i-1) + 1
	}
	return fp.raw[start:fp.end(i)]
}

// name is the last component: the operation's target under its parent.
func (fp *fsPath) name() string { return fp.comp(fp.n - 1) }

// prefix returns the normalized path of the first n components — "/" for
// none — which is what the hint cache is keyed by.
func (fp *fsPath) prefix(n int) string {
	if n == 0 {
		return fp.raw[fp.lo : fp.lo+1]
	}
	return fp.raw[fp.lo:fp.end(n-1)]
}

// parent is the path without its last component.
func (fp fsPath) parent() fsPath {
	fp.n--
	fp.more = fp.more[:max(0, fp.n-len(fp.ends))]
	return fp
}
