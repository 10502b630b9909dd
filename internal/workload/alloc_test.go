//go:build !race

package workload

import (
	"testing"

	"hopsfscl/internal/sim"
)

// TestGeneratorStepAllocs pins what one Generator.Step allocates over an FS
// already held as an interface value: nothing for an operation on an
// existing path — stat, read, list, delete, setPermission — and, amortized,
// one for an operation that names a new path — create, mkdir, rename — the
// fresh name itself. A harness that converts a non-pointer FS to the
// interface on every call pays one more allocation per Step than this, the
// box. Excluded under -race, whose instrumentation allocates.
func TestGeneratorStepAllocs(t *testing.T) {
	env := sim.New(1)
	defer env.Close()
	var fs FS = nopFS{}
	env.Spawn("client", func(p *sim.Proc) {
		for _, op := range []struct {
			op   Op
			want float64
		}{
			{OpStat, 0}, {OpRead, 0}, {OpList, 0}, {OpDelete, 0}, {OpSetPerm, 0},
			{OpCreate, 1}, {OpMkdir, 1}, {OpRename, 1},
		} {
			ns := BuildNamespace(NamespaceSpec{TopDirs: 16, SubDirs: 4, FilesPerDir: 12, ZipfS: 1.1}, 1)
			g := NewGenerator(ns, MicroMix(op.op), 1)
			var err error
			allocs := testing.AllocsPerRun(100, func() {
				if _, e := g.Step(p, fs); e != nil {
					err = e
				}
			})
			if err != nil {
				t.Errorf("%v: %v", op.op, err)
			}
			if allocs > op.want {
				t.Errorf("Step(%v): %.0f allocations per call, want at most %.0f", op.op, allocs, op.want)
			}
		}
	})
	env.Run()
}

// nopFS is the FS on which every call succeeds at once and does nothing.
type nopFS struct{}

func (nopFS) Mkdir(*sim.Proc, string) error          { return nil }
func (nopFS) Create(*sim.Proc, string) error         { return nil }
func (nopFS) Stat(*sim.Proc, string) error           { return nil }
func (nopFS) Read(*sim.Proc, string) error           { return nil }
func (nopFS) List(*sim.Proc, string) error           { return nil }
func (nopFS) Delete(*sim.Proc, string) error         { return nil }
func (nopFS) Rename(*sim.Proc, string, string) error { return nil }
func (nopFS) SetPermission(*sim.Proc, string) error  { return nil }
