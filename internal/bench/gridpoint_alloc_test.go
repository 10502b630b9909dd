//go:build !race

package bench

import (
	"runtime"
	"testing"
	"time"

	"hopsfscl/internal/core"
	"hopsfscl/internal/heat"
)

// TestGridPointAllocCeiling pins the kernel-overhaul acceptance criterion
// as a test: a full grid point (the shape every sweep experiment measures)
// must stay at least 2x below the pre-overhaul kernel's 164 heap
// allocations per served virtual operation. The recorded trajectory lives
// in history/BENCH_8.json; the post-overhaul kernel measures ~54, so the 82
// ceiling leaves headroom for legitimate feature work while catching a
// lost pool or a reintroduced per-event allocation. The two-shard point
// gives the routed path — one dispatcher object per transaction, one gather
// buffer per batch that spans shards — a ceiling of its own: it measures
// 66.5 (69.7 before the dispatcher replaced the converting wrapper), and the
// same 1.5x headroom makes 100.
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
		{"unsharded", 1, 82},
		{"shards=2", 2, 100},
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
				t.Fatalf("grid point allocates %.1f objects per virtual op, ceiling %.0f "+
					"(unsharded: pre-overhaul kernel 164, post-overhaul ~54 — see history/BENCH_8.json)", perVop, pt.ceiling)
			}
			t.Logf("grid point: %.1f allocs per virtual op (ceiling %.0f)", perVop, pt.ceiling)
		})
	}
}
