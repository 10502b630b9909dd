// Package workload generates the evaluation workloads of the paper's §V:
// a synthetic reproduction of the Spotify Hadoop operational mix used for
// the throughput and latency experiments, and the four micro-benchmarks
// (mkdir, createFile, readFile, deleteFile) of §V-B2.
//
// The real Spotify trace is proprietary; what matters for the reproduced
// results is its operation mix (heavily read-dominated metadata traffic),
// its hierarchical namespace with skewed directory popularity, and the
// per-client dataset locality of Hadoop jobs (each task works over its own
// datasets repeatedly — which is what makes CephFS's capability-based
// kernel cache effective). All three are encoded here.
package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"hopsfscl/internal/sim"
)

// FS is the file system surface the workloads drive. Both HopsFS/HopsFS-CL
// clients and CephFS clients are adapted to it (see internal/core).
type FS interface {
	Mkdir(p *sim.Proc, path string) error
	Create(p *sim.Proc, path string) error
	Stat(p *sim.Proc, path string) error
	Read(p *sim.Proc, path string) error
	List(p *sim.Proc, path string) error
	Delete(p *sim.Proc, path string) error
	Rename(p *sim.Proc, src, dst string) error
	SetPermission(p *sim.Proc, path string) error
}

// Op enumerates file system operation types.
type Op int

// Operation types.
const (
	OpMkdir Op = iota + 1
	OpCreate
	OpStat
	OpRead
	OpList
	OpDelete
	OpRename
	OpSetPerm

	numOps
)

// String returns the operation's display name.
func (o Op) String() string {
	switch o {
	case OpMkdir:
		return "mkdir"
	case OpCreate:
		return "createFile"
	case OpStat:
		return "stat"
	case OpRead:
		return "readFile"
	case OpList:
		return "listDir"
	case OpDelete:
		return "deleteFile"
	case OpRename:
		return "rename"
	case OpSetPerm:
		return "setPermission"
	default:
		return "?"
	}
}

// Mix is a discrete distribution over operations.
type Mix map[Op]float64

// SpotifyMix is the synthetic stand-in for the operation mix of Spotify's
// Hadoop cluster trace ([23]): metadata traffic dominated by reads —
// stat/getFileInfo, read/getBlockLocations and directory listings — with a
// thin tail of namespace mutations. Weights sum to 1.
var SpotifyMix = Mix{
	OpStat:    0.350,
	OpRead:    0.330,
	OpList:    0.250,
	OpCreate:  0.025,
	OpDelete:  0.015,
	OpMkdir:   0.005,
	OpRename:  0.007,
	OpSetPerm: 0.018,
}

// MicroMix returns a single-operation mix (the §V-B2 micro-benchmarks).
func MicroMix(op Op) Mix { return Mix{op: 1} }

// NamespaceSpec shapes the pre-seeded namespace.
type NamespaceSpec struct {
	// TopDirs is the number of first-level directories (project roots).
	TopDirs int
	// SubDirs is the number of second-level directories per top dir.
	SubDirs int
	// FilesPerDir seeds this many files in every leaf directory.
	FilesPerDir int
	// ZipfS is the skew of directory popularity (1.01 mild, 1.5 heavy).
	ZipfS float64
}

// DefaultNamespace returns the evaluation namespace: 256 projects x 6
// subdirectories with 12 files each (18432 files, depth 3), mildly skewed.
// The tree is wide enough that even the largest deployments' clients do
// not over-share datasets (Spotify's production namespace has millions of
// directories).
func DefaultNamespace() NamespaceSpec {
	return NamespaceSpec{TopDirs: 256, SubDirs: 6, FilesPerDir: 12, ZipfS: 1.1}
}

// Generator draws operations from a mix and executes them against an FS,
// keeping the shared namespace view consistent. A generator models one
// client (a Hadoop task): it has home directories it prefers with
// probability Affinity, the dataset locality that makes client-side
// caching effective.
type Generator struct {
	ns  *Namespace
	mix []weightedOp
	rng *rand.Rand

	// home are this client's preferred directories; empty disables
	// affinity.
	home []string
	// affinity is the probability an operation targets a home directory.
	affinity float64

	// Executed counts operations per type; Errors counts failures per
	// type (benign races like delete/delete are expected under load).
	Executed [numOps]int64
	Errors   [numOps]int64
}

type weightedOp struct {
	op  Op
	cum float64
}

// NewGenerator builds a generator over a shared namespace with no
// directory affinity.
func NewGenerator(ns *Namespace, mix Mix, seed int64) *Generator {
	return NewAffineGenerator(ns, mix, seed, nil, 0)
}

// NewAffineGenerator builds a generator that targets the given home
// directories with probability affinity, and the global Zipf-skewed
// namespace otherwise.
func NewAffineGenerator(ns *Namespace, mix Mix, seed int64, home []string, affinity float64) *Generator {
	g := &Generator{
		ns:       ns,
		rng:      rand.New(rand.NewSource(seed)),
		home:     home,
		affinity: affinity,
	}
	var cum float64
	for op := Op(1); op < numOps; op++ {
		w := mix[op]
		if w <= 0 {
			continue
		}
		cum += w
		g.mix = append(g.mix, weightedOp{op: op, cum: cum})
	}
	for i := range g.mix {
		g.mix[i].cum /= cum
	}
	return g
}

// NextOp draws the next operation type.
func (g *Generator) NextOp() Op {
	x := g.rng.Float64()
	for _, w := range g.mix {
		if x <= w.cum {
			return w.op
		}
	}
	return g.mix[len(g.mix)-1].op
}

// pickDir draws a target directory honoring affinity.
func (g *Generator) pickDir() string {
	if len(g.home) > 0 && g.rng.Float64() < g.affinity {
		return g.home[g.rng.Intn(len(g.home))]
	}
	return g.ns.pickDir(g.rng)
}

// pickFile draws an existing file, preferring home directories.
func (g *Generator) pickFile() string {
	if f := g.ns.pickFileIn(g.rng, g.pickDir()); f != "" {
		return f
	}
	// The chosen directory was empty; try a few global draws.
	for i := 0; i < 4; i++ {
		if f := g.ns.pickFileIn(g.rng, g.ns.pickDir(g.rng)); f != "" {
			return f
		}
	}
	return ""
}

// Step executes one operation against fs and returns the type executed and
// its error (nil on success; benign namespace races surface as errors and
// are also tallied; ErrNoTarget marks skipped no-target draws).
func (g *Generator) Step(p *sim.Proc, fs FS) (Op, error) {
	op := g.NextOp()
	err := g.execute(p, fs, op)
	g.Executed[op]++
	if err != nil && !errors.Is(err, ErrNoTarget) {
		g.Errors[op]++
	}
	return op, err
}

// ErrNoTarget reports that an operation had nothing to act on (e.g. every
// file was already deleted). The generator charges a small back-off so the
// simulation never runs a zero-virtual-time loop; measurement harnesses
// exclude these from throughput.
var ErrNoTarget = errors.New("workload: no target for operation")

// idle charges the back-off delay and reports ErrNoTarget.
func idle(p *sim.Proc) error {
	p.Sleep(200 * time.Microsecond)
	return ErrNoTarget
}

func (g *Generator) execute(p *sim.Proc, fs FS, op Op) error {
	ns := g.ns
	switch op {
	case OpMkdir:
		dir := ns.freshName(g.pickDir(), "dir")
		if err := fs.Mkdir(p, dir); err != nil {
			return err
		}
		ns.addDir(dir)
		return nil
	case OpCreate:
		dir := g.pickDir()
		path := ns.freshName(dir, "part-")
		if err := fs.Create(p, path); err != nil {
			return err
		}
		ns.addFile(dir, path)
		return nil
	case OpStat:
		if f := g.pickFile(); f != "" {
			return fs.Stat(p, f)
		}
		return fs.Stat(p, g.pickDir())
	case OpRead:
		f := g.pickFile()
		if f == "" {
			return idle(p)
		}
		return fs.Read(p, f)
	case OpList:
		return fs.List(p, g.pickDir())
	case OpDelete:
		f := g.pickFile()
		if f == "" {
			return idle(p)
		}
		ns.removeFile(dirOf(f), f)
		return fs.Delete(p, f)
	case OpRename:
		f := g.pickFile()
		if f == "" {
			return idle(p)
		}
		dstDir := g.pickDir()
		dst := ns.freshName(dstDir, "moved-")
		ns.removeFile(dirOf(f), f)
		if err := fs.Rename(p, f, dst); err != nil {
			return err
		}
		ns.addFile(dstDir, dst)
		return nil
	case OpSetPerm:
		f := g.pickFile()
		if f == "" {
			return idle(p)
		}
		return fs.SetPermission(p, f)
	default:
		return fmt.Errorf("workload: unknown op %d", op)
	}
}

// HomeDirsFor deterministically assigns count home directories to client i
// from the namespace's leaf (dataset) directories — a client's affinity is
// to datasets that actually hold files, like a task reading its input
// partitions.
func (ns *Namespace) HomeDirsFor(i, count int) []string {
	pool := ns.leafDirs
	if len(pool) == 0 {
		pool = ns.Dirs
	}
	if len(pool) == 0 || count <= 0 {
		return nil
	}
	out := make([]string, 0, count)
	for k := 0; k < count; k++ {
		out = append(out, pool[(i*count+k)%len(pool)])
	}
	return out
}
