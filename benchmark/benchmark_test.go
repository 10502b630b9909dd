package main

import (
	"bytes"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"hopsfscl/internal/sim"
)

func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(1)
	logw = io.Discard
	os.Exit(m.Run())
}

// tiny is a 3-NN × 8-client instance of a workload whose W1 is 60 ms of
// virtual time per round at --seconds 1.
func tiny(s spec) spec {
	s.nns, s.clientsPerNN = 3, 8
	s.virtualPerSecond, s.slice = rounds*60*time.Millisecond, 10*time.Millisecond
	return s
}

// virtualNames are the end-to-end metrics on the virtual clock.
var virtualNames = []string{"vops_per_s", "vlat_p50_ms", "vlat_p99_ms", "vlat_p999_ms", "xaz_bytes_per_vop"}

func runTiny(t *testing.T, s spec, traced bool) (*result, map[string]float64) {
	t.Helper()
	res, err := run(s, 1, 1, traced)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.violations) > 0 {
		t.Fatalf("%s: violations: %v", s.name, res.violations)
	}
	if res.failed != 0 {
		t.Fatalf("%s: %d failed operations", s.name, res.failed)
	}
	if traced {
		return res, res.perLayerValues()
	}
	// A 60 ms window has too few samples beyond p99.9; that complaint is
	// for real runs.
	values, _ := res.endToEndValues()
	return res, values
}

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}

func keys(m map[string]float64) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestManifestMatchesFile holds BENCHMARK.json and the tables it is printed
// from together.
func TestManifestMatchesFile(t *testing.T) {
	file, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, manifestJSON()) {
		t.Fatal("BENCHMARK.json differs from `benchmark -manifest`; print it again")
	}
	if n := len(perLayer); n > 128 {
		t.Fatalf("%d per-layer metrics, the limit is 128", n)
	}
}

func TestWorkloads(t *testing.T) {
	for _, full := range specs {
		s := tiny(full)
		t.Run(s.name, func(t *testing.T) {
			// (a) every run emits exactly the declared names.
			_, a := runTiny(t, s, false)
			if !equal(keys(a), names(endToEnd)) {
				t.Fatalf("end-to-end names %v, declared %v", keys(a), names(endToEnd))
			}
			_, layers := runTiny(t, s, true)
			if !equal(keys(layers), names(perLayer)) {
				t.Fatalf("per-layer names %v, declared %v", keys(layers), names(perLayer))
			}
			var cp float64
			for name, v := range layers {
				if strings.HasPrefix(name, "cp.") {
					cp += v
				}
			}
			if cp < 0.99 || cp > 1.01 {
				t.Errorf("the critical-path shares sum to %v", cp)
			}
			sharded := layers["shard.txn.local_per_vop"] > 0
			if sharded != (full.shards > 1) {
				t.Fatalf("shard.txn.local_per_vop = %v on a deployment of %d shards", layers["shard.txn.local_per_vop"], full.shards)
			}

			// (b) one seed, two runs: the virtual clock repeats bit for bit.
			_, b := runTiny(t, s, false)
			for _, name := range virtualNames {
				if a[name] != b[name] {
					t.Errorf("%s: %v then %v on the same seed", name, a[name], b[name])
				}
			}
			if lo, hi := a["allocs_per_vop"]*0.98, a["allocs_per_vop"]*1.02; b["allocs_per_vop"] < lo || b["allocs_per_vop"] > hi {
				t.Errorf("allocs_per_vop: %v then %v on the same seed", a["allocs_per_vop"], b["allocs_per_vop"])
			}

			// (c) slicing does not perturb the schedule.
			one := s
			one.slice = 60 * time.Millisecond
			_, c := runTiny(t, one, false)
			for _, name := range virtualNames {
				if a[name] != c[name] {
					t.Errorf("%s: %v in 6 slices, %v in 1", name, a[name], c[name])
				}
			}
		})
	}
}

// nopFS answers every call at once.
type nopFS struct{}

func (nopFS) Mkdir(*sim.Proc, string) error          { return nil }
func (nopFS) Create(*sim.Proc, string) error         { return nil }
func (nopFS) Stat(*sim.Proc, string) error           { return nil }
func (nopFS) Read(*sim.Proc, string) error           { return nil }
func (nopFS) List(*sim.Proc, string) error           { return nil }
func (nopFS) Delete(*sim.Proc, string) error         { return nil }
func (nopFS) Rename(*sim.Proc, string, string) error { return nil }
func (nopFS) SetPermission(*sim.Proc, string) error  { return nil }

// TestDriverAllocatesNothingPerOp is (d): what the driver puts around a
// file system call — timing, the sample, the ring of removed paths — is
// free of allocations, so allocs_per_vop is the simulator's alone.
func TestDriverAllocatesNothingPerOp(t *testing.T) {
	env := sim.New(1)
	defer env.Close()
	rec := newRecorder(1 << 16)
	rec.on = true
	fs := recFS{fs: nopFS{}, b: &bed{rec: rec}}
	var allocs float64
	env.Spawn("client", func(p *sim.Proc) {
		allocs = testing.AllocsPerRun(1000, func() {
			_ = fs.Stat(p, "/a")
			_ = fs.Create(p, "/b")
			_ = fs.Delete(p, "/b")
			_ = fs.Rename(p, "/a", "/c")
		})
	})
	env.Run()
	if allocs != 0 {
		t.Fatalf("the driver allocates %v times per 4 ops", allocs)
	}
	if rec.n == 0 {
		t.Fatal("nothing was recorded")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Fatalf("quartiles %v %v, Python gives 3.5 and 31.0", q1, q3)
	}
}
