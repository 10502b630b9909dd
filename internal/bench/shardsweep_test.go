package bench

import (
	"testing"
	"time"

	"hopsfscl/internal/core"
)

// measureShardPoint is the smoke-test variant of MeasureShards: the full
// sweep's offered load (the single-shard plateau only shows up overrun),
// but a shortened warm-up and window so three points fit a unit-test
// budget.
func measureShardPoint(t *testing.T, o ExpOptions, shards int) *Result {
	t.Helper()
	d, err := core.Build(ShardSweepOptions(o, shardSweepServers, shards))
	if err != nil {
		t.Fatalf("%d shards: %v", shards, err)
	}
	defer d.Close()
	cfg := DefaultRunConfig()
	cfg.Seed = o.Seed
	cfg.WarmOpsPerClient = 40
	cfg.Window = 100 * time.Millisecond
	return Run(d, cfg)
}

// TestShardSweepScalesAndDeterministic is the CI shardsweep smoke: with
// the offered load overrunning one shard's ceiling, two shards must beat
// one by a clear margin — a path resolves on one shard, so two shards come
// close to doubling the plateau (1.94x at seed 1) — and repeating a measurement at the same seed must
// reproduce it exactly (the sweep's numbers are simulation outputs, not
// samples).
func TestShardSweepScalesAndDeterministic(t *testing.T) {
	o := ExpOptions{Seed: 1}

	r1 := measureShardPoint(t, o, 1)
	r2 := measureShardPoint(t, o, 2)
	t.Logf("1 shard: %.0f ops/s (p99 %v)  2 shards: %.0f ops/s (p99 %v)",
		r1.Throughput, r1.P99, r2.Throughput, r2.P99)
	if r1.Ops == 0 || r2.Ops == 0 {
		t.Fatalf("a sweep point measured zero operations")
	}
	if r2.Throughput <= r1.Throughput*1.15 {
		t.Fatalf("2 shards did not scale: %.0f ops/s vs %.0f ops/s at 1 shard (want >1.15x)",
			r2.Throughput, r1.Throughput)
	}
	if testing.Short() {
		return
	}

	r2b := measureShardPoint(t, o, 2)
	if r2b.Ops != r2.Ops || r2b.Throughput != r2.Throughput ||
		r2b.P50 != r2.P50 || r2b.P99 != r2.P99 {
		t.Fatalf("2-shard point not deterministic: ops %d vs %d, p99 %v vs %v",
			r2.Ops, r2b.Ops, r2.P99, r2b.P99)
	}
}
