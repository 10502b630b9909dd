package workload

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// Namespace is the shared, mutable view of the file tree the generators
// operate on. The simulation kernel serializes access. Files are indexed
// per directory so generators with directory affinity (modelling per-job
// dataset locality) pick efficiently.
type Namespace struct {
	Dirs []string

	// leafDirs are the directories seeded with files — the datasets
	// clients take affinity to.
	leafDirs []string

	byDir     map[string]*dirFiles
	fileCount int
	seq       int
	zipf      *rand.Zipf
	rng       *rand.Rand
}

type dirFiles struct {
	files []string
	pos   map[string]int
}

// BuildNamespace materializes a spec into directory and file path lists.
// Callers seed the actual file system (directly, to skip warm-up traffic)
// with Dirs then Files.
func BuildNamespace(spec NamespaceSpec, seed int64) *Namespace {
	ns := &Namespace{
		byDir: make(map[string]*dirFiles),
		rng:   rand.New(rand.NewSource(seed)),
	}
	for t := 0; t < spec.TopDirs; t++ {
		top := fmt.Sprintf("/proj%03d", t)
		ns.addDir(top)
		for s := 0; s < spec.SubDirs; s++ {
			dir := fmt.Sprintf("%s/ds%02d", top, s)
			ns.addDir(dir)
			ns.leafDirs = append(ns.leafDirs, dir)
			for f := 0; f < spec.FilesPerDir; f++ {
				ns.addFile(dir, fmt.Sprintf("%s/part-%05d", dir, f))
			}
		}
	}
	if spec.ZipfS > 1 && len(ns.Dirs) > 1 {
		ns.zipf = rand.NewZipf(ns.rng, spec.ZipfS, 1, uint64(len(ns.Dirs)-1))
	}
	return ns
}

// addDir adds a directory; its file index comes with its first file.
func (ns *Namespace) addDir(path string) { ns.Dirs = append(ns.Dirs, path) }

func (ns *Namespace) addFile(dir, path string) {
	df := ns.byDir[dir]
	if df == nil {
		df = &dirFiles{pos: make(map[string]int)}
		ns.byDir[dir] = df
	}
	if _, exists := df.pos[path]; exists {
		return
	}
	df.pos[path] = len(df.files)
	df.files = append(df.files, path)
	ns.fileCount++
}

func (ns *Namespace) removeFile(dir, path string) {
	df := ns.byDir[dir]
	if df == nil {
		return
	}
	idx, ok := df.pos[path]
	if !ok {
		return
	}
	last := len(df.files) - 1
	df.files[idx] = df.files[last]
	df.pos[df.files[idx]] = idx
	df.files = df.files[:last]
	delete(df.pos, path)
	ns.fileCount--
}

// AllFiles returns every live file path (for seeding), in directory order.
func (ns *Namespace) AllFiles() []string {
	out := make([]string, 0, ns.fileCount)
	for _, dir := range ns.Dirs {
		if df := ns.byDir[dir]; df != nil {
			out = append(out, df.files...)
		}
	}
	return out
}

// pickDir returns a directory, Zipf-skewed toward hot directories.
func (ns *Namespace) pickDir(rng *rand.Rand) string {
	if len(ns.Dirs) == 0 {
		return "/"
	}
	if ns.zipf != nil {
		return ns.Dirs[int(ns.zipf.Uint64())%len(ns.Dirs)]
	}
	return ns.Dirs[rng.Intn(len(ns.Dirs))]
}

// pickFileIn returns a live file in dir ("" if none), biased by a
// power law toward low-index (popular) files: real metadata traces re-read
// a small working set of hot files per dataset.
func (ns *Namespace) pickFileIn(rng *rand.Rand, dir string) string {
	df := ns.byDir[dir]
	if df == nil || len(df.files) == 0 {
		return ""
	}
	u := rng.Float64()
	idx := int(u * u * u * float64(len(df.files)))
	if idx >= len(df.files) {
		idx = len(df.files) - 1
	}
	return df.files[idx]
}

// freshName returns a unique new path under dir — dir, a slash, prefix and
// the sequence number zero-padded to eight digits — in one allocation.
func (ns *Namespace) freshName(dir, prefix string) string {
	ns.seq++
	var num [20]byte
	digits := strconv.AppendInt(num[:0], int64(ns.seq), 10)
	zeros := "00000000"[min(8, len(digits)):]
	var b strings.Builder
	b.Grow(len(dir) + 1 + len(prefix) + len(zeros) + len(digits))
	for _, part := range [...]string{dir, "/", prefix, zeros} {
		b.WriteString(part)
	}
	b.Write(digits)
	return b.String()
}

// dirOf returns the parent directory of a generated path.
func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			if i == 0 {
				return "/"
			}
			return path[:i]
		}
	}
	return "/"
}
