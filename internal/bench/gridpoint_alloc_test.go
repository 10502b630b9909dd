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
// the values it commits: it addresses a row by its parent's cached children
// partition and its name, so it builds no key; its storage transaction is
// the one the previous operation's InTx freed, its commit trains sit in that
// transaction, its row locks in the rows, a new row is one a delete freed,
// and a scan or a listing is a window of its bucket's sorted snapshot — so
// the unsharded point measures 1.30 (history/BENCH_8.json holds the kernel's
// trajectory). The two-shard point adds the routed path — a pooled
// dispatcher per transaction, which also holds the gather buffers of a read
// batch that spans shards — but an inode's id names its own row's shard, so
// a path resolves on one shard and the point measures 1.35, close to the
// unsharded one. The AZ-unaware HopsFS (3,3) point is the one whose
// Completes are fire-and-forget (no Read Backup); it measures 1.50. Each
// ceiling is about 1.5x its measurement: a lost pool, a row key built per
// operation or a reintroduced per-event allocation fails it.
//
// It also pins the kernel's switches: coroutine resumes per virtual op, which
// repeat bit for bit per seed. A fan-out arm that cannot block is a stackless
// step, not a resume, so the points measure 8.52 and 8.63 (13.78 with every
// arm a coroutine at the unsharded point): a path's reads fan out inside one
// cluster rather than running as one single-target sub-batch per shard. A
// fire-and-forget Complete runs its handler where it arrives, not in a
// datanode's server process, so the AZ-unaware point measures 10.55 (11.27
// with the server). Beside them it pins the events scheduled per virtual op
// — timer wake-ups and callbacks, 9.74, 9.81 and 11.16 — which also repeat
// bit for bit. Each of these ceilings sits about 5 % above its measurement,
// so an arm that goes back to a coroutine, or a sleep loop that wakes more
// often, fails it. Excluded under -race, whose instrumentation allocates.
func TestGridPointAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("grid point drives a full deployment")
	}
	for _, pt := range []struct {
		name    string
		setup   string
		shards  int
		ceiling float64
		resumes float64
		events  float64
	}{
		{"unsharded", "HopsFS-CL (3,3)", 1, 2.0, 9.0, 10.2},
		{"shards=2", "HopsFS-CL (3,3)", 2, 2.0, 9.1, 10.3},
		{"az-unaware", "HopsFS (3,3)", 1, 2.3, 11.2, 11.7},
	} {
		t.Run(pt.name, func(t *testing.T) {
			setup, ok := core.SetupByName(pt.setup)
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
			r0, e0, c0 := d.Env.Resumes(), d.Env.Scheduled(), d.Env.Cancelled()
			res := Run(d, cfg)
			runtime.ReadMemStats(&m1)
			if res.Ops == 0 {
				t.Fatal("grid point served no operations")
			}
			perVop := float64(m1.Mallocs-m0.Mallocs) / float64(res.Ops)
			resumes := float64(d.Env.Resumes()-r0) / float64(res.Ops)
			events := float64(d.Env.Scheduled()-e0) / float64(res.Ops)
			cancelled := float64(d.Env.Cancelled()-c0) / float64(res.Ops)
			t.Logf("grid point: %.2f allocs per virtual op (ceiling %.1f), %.2f coroutine resumes (ceiling %.1f), %.2f events scheduled (ceiling %.1f) of which %.2f cancelled",
				perVop, pt.ceiling, resumes, pt.resumes, events, pt.events, cancelled)
			if perVop > pt.ceiling {
				t.Errorf("grid point allocates %.1f objects per virtual op, ceiling %.1f", perVop, pt.ceiling)
			}
			if resumes > pt.resumes {
				t.Errorf("grid point switches into a coroutine %.2f times per virtual op, ceiling %.1f", resumes, pt.resumes)
			}
			if events > pt.events {
				t.Errorf("grid point schedules %.2f events per virtual op, ceiling %.1f", events, pt.events)
			}
		})
	}
}
