package workload

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"hopsfscl/internal/sim"
)

// fakeFS records operations and always succeeds.
type fakeFS struct {
	calls map[string]int
	paths map[string]bool
}

func newFakeFS() *fakeFS {
	return &fakeFS{calls: make(map[string]int), paths: make(map[string]bool)}
}

func (f *fakeFS) Mkdir(p *sim.Proc, path string) error {
	f.calls["mkdir"]++
	f.paths[path] = true
	return nil
}
func (f *fakeFS) Create(p *sim.Proc, path string) error {
	f.calls["create"]++
	f.paths[path] = true
	return nil
}
func (f *fakeFS) Stat(p *sim.Proc, path string) error   { f.calls["stat"]++; return nil }
func (f *fakeFS) Read(p *sim.Proc, path string) error   { f.calls["read"]++; return nil }
func (f *fakeFS) List(p *sim.Proc, path string) error   { f.calls["list"]++; return nil }
func (f *fakeFS) Delete(p *sim.Proc, path string) error { f.calls["delete"]++; return nil }
func (f *fakeFS) Rename(p *sim.Proc, src, dst string) error {
	f.calls["rename"]++
	return nil
}
func (f *fakeFS) SetPermission(p *sim.Proc, path string) error { f.calls["setperm"]++; return nil }

func TestBuildNamespaceShape(t *testing.T) {
	spec := NamespaceSpec{TopDirs: 4, SubDirs: 3, FilesPerDir: 5, ZipfS: 1.1}
	ns := BuildNamespace(spec, 1)
	if got := len(ns.Dirs); got != 4+4*3 {
		t.Fatalf("dirs = %d, want 16", got)
	}
	if got := ns.fileCount; got != 4*3*5 {
		t.Fatalf("files = %d, want 60", got)
	}
	for _, f := range ns.AllFiles() {
		if !strings.HasPrefix(f, "/proj") || strings.Count(f, "/") != 3 {
			t.Fatalf("file path %q has unexpected shape", f)
		}
	}
}

// TestFreshNameMatchesSprintf pins freshName to the format it replaced,
// byte for byte, across the widths the zero padding meets: below, at and
// beyond eight digits.
func TestFreshNameMatchesSprintf(t *testing.T) {
	ns := BuildNamespace(NamespaceSpec{}, 1)
	for _, seq := range []int{1, 99999999, 100000000, 1 << 40} {
		for _, dir := range []string{"/", "/proj000/ds01"} {
			for _, prefix := range []string{"dir", "part-", "moved-"} {
				ns.seq = seq - 1
				want := fmt.Sprintf("%s/%s%08d", dir, prefix, seq)
				if got := ns.freshName(dir, prefix); got != want {
					t.Errorf("freshName(%q, %q) at seq %d = %q, want %q", dir, prefix, seq, got, want)
				}
			}
		}
	}
}

func TestSpotifyMixProportions(t *testing.T) {
	var total float64
	for _, w := range SpotifyMix {
		total += w
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("mix sums to %f, want 1", total)
	}
	reads := SpotifyMix[OpStat] + SpotifyMix[OpRead] + SpotifyMix[OpList]
	if reads < 0.8 {
		t.Fatalf("read share = %f; the Spotify workload is read-dominated", reads)
	}
}

func TestGeneratorFollowsMix(t *testing.T) {
	ns := BuildNamespace(DefaultNamespace(), 1)
	g := NewGenerator(ns, SpotifyMix, 7)
	const draws = 100000
	counts := map[Op]int{}
	for i := 0; i < draws; i++ {
		counts[g.NextOp()]++
	}
	for op, w := range SpotifyMix {
		got := float64(counts[op]) / draws
		if got < w*0.9-0.005 || got > w*1.1+0.005 {
			t.Errorf("op %v frequency %f, want ~%f", op, got, w)
		}
	}
}

func TestGeneratorKeepsNamespaceConsistent(t *testing.T) {
	env := sim.New(1)
	defer env.Close()
	ns := BuildNamespace(NamespaceSpec{TopDirs: 2, SubDirs: 2, FilesPerDir: 3, ZipfS: 0}, 1)
	g := NewGenerator(ns, SpotifyMix, 7)
	fs := newFakeFS()
	env.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < 2000; i++ {
			if _, err := g.Step(p, fs); err != nil && !errors.Is(err, ErrNoTarget) {
				t.Errorf("step %d: %v", i, err)
				return
			}
		}
	})
	env.Run()
	// Every file in the namespace view must be unique.
	seen := map[string]bool{}
	for _, f := range ns.AllFiles() {
		if seen[f] {
			t.Fatalf("duplicate file %q in namespace", f)
		}
		seen[f] = true
	}
	// Per-directory indexes must agree with the slices.
	for dir, df := range ns.byDir {
		for path, idx := range df.pos {
			if df.files[idx] != path {
				t.Fatalf("index inconsistent for %q in %q", path, dir)
			}
		}
	}
	if len(seen) != ns.fileCount {
		t.Fatalf("file count %d != %d live files", ns.fileCount, len(seen))
	}
	var executed int64
	for op := Op(1); op < numOps; op++ {
		executed += g.Executed[op]
	}
	if executed != 2000 {
		t.Fatalf("executed = %d, want 2000", executed)
	}
}

func TestMicroMixOnlyDrawsOneOp(t *testing.T) {
	ns := BuildNamespace(DefaultNamespace(), 1)
	g := NewGenerator(ns, MicroMix(OpMkdir), 7)
	for i := 0; i < 100; i++ {
		if op := g.NextOp(); op != OpMkdir {
			t.Fatalf("draw %d = %v, want mkdir", i, op)
		}
	}
}

func TestZipfSkewsDirectoryChoice(t *testing.T) {
	ns := BuildNamespace(NamespaceSpec{TopDirs: 50, SubDirs: 1, FilesPerDir: 0, ZipfS: 1.5}, 1)
	counts := map[string]int{}
	for i := 0; i < 10000; i++ {
		counts[ns.pickDir(ns.rng)]++
	}
	// The hottest directory should be much hotter than the median.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 10000/10 {
		t.Fatalf("hottest dir got %d/10000 picks; Zipf skew not applied", max)
	}
}

func TestOpStrings(t *testing.T) {
	names := map[Op]string{
		OpMkdir: "mkdir", OpCreate: "createFile", OpStat: "stat",
		OpRead: "readFile", OpList: "listDir", OpDelete: "deleteFile",
		OpRename: "rename", OpSetPerm: "setPermission",
	}
	for op, want := range names {
		if got := op.String(); got != want {
			t.Errorf("op %d = %q, want %q", op, got, want)
		}
	}
}
