//go:build !race

package bench

import (
	"runtime"
	"testing"
	"time"

	"hopsfscl/internal/core"
	"hopsfscl/internal/heat"
)

// TestGridPointAllocCeiling pins the steady-state allocations of a full grid
// point (the shape every sweep experiment measures), per served virtual
// operation, with heat attached. A warm operation allocates little beyond
// what it keeps — its storage transaction, its target's row key, the rows it
// returns or stores; its commit train sits in the transaction and its row
// locks in the rows — so the unsharded point measures 5.6
// (history/BENCH_8.json holds the kernel's trajectory). The two-shard point
// adds the routed path — one dispatcher object per transaction, which also
// holds the gather buffers of a read batch that spans shards, and a
// sub-transaction per further shard touched — and measures 10.5. Each
// ceiling is 1.5x its measurement: a lost pool, a cached key rebuilt per
// operation or a reintroduced per-event allocation fails it.
// Excluded under -race, whose instrumentation allocates.
func TestGridPointAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("grid point drives a full deployment")
	}
	for _, pt := range []struct {
		name    string
		shards  int
		ceiling float64
	}{
		{"unsharded", 1, 8.4},
		{"shards=2", 2, 15.8},
	} {
		t.Run(pt.name, func(t *testing.T) {
			setup, ok := core.SetupByName("HopsFS-CL (3,3)")
			if !ok {
				t.Fatal("setup not found")
			}
			opts := core.DefaultOptions(setup)
			opts.MetadataServers = 12
			opts.ClientsPerServer = 32
			opts.Shards = pt.shards
			opts.Seed = 1
			d, err := core.Build(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			cfg := DefaultRunConfig()
			cfg.Window = 150 * time.Millisecond
			// Heat sketches ride the hot path (op subscriber, path/inode/partition
			// touches in the namenode and NDB layers); the ceiling must hold with
			// them on. Tracked-key touches are alloc-free by design.
			cfg.Heat = &heat.Config{}
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			res := Run(d, cfg)
			runtime.ReadMemStats(&m1)
			if res.Ops == 0 {
				t.Fatal("grid point served no operations")
			}
			perVop := float64(m1.Mallocs-m0.Mallocs) / float64(res.Ops)
			if perVop > pt.ceiling {
				t.Fatalf("grid point allocates %.1f objects per virtual op, ceiling %.1f", perVop, pt.ceiling)
			}
			t.Logf("grid point: %.1f allocs per virtual op (ceiling %.1f)", perVop, pt.ceiling)
		})
	}
}
