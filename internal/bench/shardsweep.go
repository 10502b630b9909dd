package bench

import (
	"fmt"
	"strings"
	"time"

	"hopsfscl/internal/core"
	"hopsfscl/internal/metrics"
	"hopsfscl/internal/trace"
)

// The shard sweep holds the offered load fixed — the same metadata-server
// and client counts at every point — and varies only Options.Shards, so
// any throughput change is attributable to namespace sharding alone. Each
// shard is a deliberately small NDB cluster (one node group) whose ceiling
// the fixed load overruns: the single-shard point sits on the storage
// plateau the paper's single-cluster deployments hit at scale, and extra
// shards add whole clusters of capacity under the same namespace.
const (
	shardSweepServers    = 24
	shardSweepClients    = 128
	shardSweepStorageDNs = 3
	shardSweepPartitions = 24
)

// shardSweepCounts returns the swept shard counts.
func shardSweepCounts(o ExpOptions) []int {
	if o.Full {
		return []int{1, 2, 4, 8}
	}
	return []int{1, 2, 4}
}

// ShardSweepOptions returns the deployment options of one sweep point:
// HopsFS-CL (3,3) with the sweep's fixed server/client load and
// shardSweepStorageDNs datanodes per shard. The default client count must
// overrun one shard's ceiling, or the sweep measures closed-loop latency
// instead of the plateau. Exported for the CI smoke test, which runs
// 2-vs-1 shards under a shortened measurement.
func ShardSweepOptions(o ExpOptions, servers, shards int) core.Options {
	opts := pointOptions(o, core.PaperSetups[5], servers) // HopsFS-CL (3,3)
	if o.ClientsPerServer <= 0 {
		opts.ClientsPerServer = shardSweepClients
	}
	opts.StorageNodes = shardSweepStorageDNs
	opts.PartitionsPerTable = shardSweepPartitions
	opts.Shards = shards
	return opts
}

// MeasureShards builds and measures one shard-sweep point.
func MeasureShards(o ExpOptions, servers, shards int) (*Result, error) {
	return measure(ShardSweepOptions(o, servers, shards), runConfigFor(o))
}

// ShardSweep sweeps the shard count at fixed offered load: throughput,
// latency, and CPU per point, the 4-vs-1-shard scaling factor against the
// 2.8x acceptance floor, and the cost of the cross-shard rename path
// (ordered two-cluster commits) reported separately from the shard-local
// fast path.
func ShardSweep(o ExpOptions) (string, error) {
	counts := shardSweepCounts(o)
	results := make(map[int]*Result, len(counts))
	for _, shards := range counts {
		res, err := MeasureShards(o, shardSweepServers, shards)
		if err != nil {
			return "", fmt.Errorf("shardsweep @%d shards: %w", shards, err)
		}
		results[shards] = res
	}

	clients := o.ClientsPerServer
	if clients <= 0 {
		clients = shardSweepClients
	}
	var b strings.Builder
	fmt.Fprintf(&b, "shard sweep: namespace sharded by subtree across independent NDB clusters, HopsFS-CL (3,3)\n")
	fmt.Fprintf(&b, "fixed offered load: %d metadata servers x %d clients; %d datanodes (one node group) per shard\n\n",
		shardSweepServers, shardSweepServers*clients, shardSweepStorageDNs)

	base := results[counts[0]].Throughput
	tbl := metrics.NewTable("shards", "ops/s", "vs 1 shard", "avg latency", "p99", "storage CPU", "server CPU")
	for _, n := range counts {
		r := results[n]
		tbl.AddRow(fmt.Sprintf("%d", n),
			metrics.FormatOps(r.Throughput),
			fmt.Sprintf("%.2fx", r.Throughput/base),
			fmtMS(r.AvgLatency), fmtMS(r.P99),
			fmt.Sprintf("%.0f%%", r.StorageCPU*100),
			fmt.Sprintf("%.0f%%", r.ServerCPU*100))
	}
	b.WriteString(tbl.String())

	if r4, ok := results[4]; ok {
		scale := r4.Throughput / base
		verdict := "PASS"
		if scale < 2.8 {
			verdict = "FAIL"
		}
		fmt.Fprintf(&b, "scaling at 4 shards: %.2fx over the single-cluster plateau (floor 2.8x) %s\n", scale, verdict)
	}

	// The cross-shard rename path, reported separately: how many commits
	// left the single-cluster fast path, and what the ordered two-cluster
	// protocol cost them. Aborts and indeterminate outcomes stay zero on a
	// healthy sweep — they only appear under faults (see the chaos suite).
	b.WriteString("\ncross-shard commit cost (two-cluster ordered commit vs shard-local fast path):\n")
	ctbl := metrics.NewTable("shards", "local txns", "cross txns", "cross share",
		"cross commit mean", "cross commit max", "aborts", "indeterminate")
	for _, n := range counts {
		reg := results[n].Registry
		local, _ := trace.Lookup(reg, "shard.txn.local")
		cross, _ := trace.Lookup(reg, "shard.txn.cross")
		aborts, _ := trace.Lookup(reg, "shard.txn.cross_aborts")
		indet, _ := trace.Lookup(reg, "shard.txn.cross_indeterminate")
		count, _ := trace.Lookup(reg, "shard.txn.cross_commit.count")
		sum, _ := trace.Lookup(reg, "shard.txn.cross_commit.sum_ns")
		maxNS, _ := trace.Lookup(reg, "shard.txn.cross_commit.max_ns")
		if n == 1 {
			ctbl.AddRow("1", "-", "-", "-", "-", "-", "-", "-")
			continue
		}
		mean := time.Duration(0)
		if count > 0 {
			mean = time.Duration(sum / count)
		}
		share := "-"
		if local+cross > 0 {
			share = fmt.Sprintf("%.2f%%", cross/(local+cross)*100)
		}
		ctbl.AddRow(fmt.Sprintf("%d", n),
			fmt.Sprintf("%.0f", local), fmt.Sprintf("%.0f", cross), share,
			fmtMS(mean), fmtMS(time.Duration(maxNS)),
			fmt.Sprintf("%.0f", aborts), fmt.Sprintf("%.0f", indet))
	}
	b.WriteString(ctbl.String())
	return b.String(), nil
}
