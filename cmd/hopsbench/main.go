// Command hopsbench regenerates the tables and figures of "Distributed
// Hierarchical File Systems strike back in the Cloud" (ICDCS 2020) against
// this repository's HopsFS-CL reproduction.
//
// Usage:
//
//	hopsbench [flags] <experiment>...
//	hopsbench list
//	hopsbench all
//
// Experiments: table1 table2 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12
// fig13 fig14 writefan failures chaos autoscale ablations phases hotspot
// shardsweep. "chaos" runs the seeded random fault-campaign sweep
// (deterministic per seed) with cross-layer invariant auditing; "failures"
// runs the §V-F scripted drills on the same engine; "writefan" measures
// multi-row write-transaction latency and wire footprint against rows per
// transaction, with the batched write path and node-group-coalesced commit
// trains (ndb.batch_write.* and ndb.commit.trains /
// ndb.commit.rows_per_train counters) against the serial one-chain-per-row
// protocol, including a where-the-time-went critical-path table per point;
// "autoscale" drives a compressed diurnal week against the elastic
// metadata tier (online commission/drain under the autoscale controller,
// audited at every transition) and against static-min and static-peak
// provisioning, checking the acceptance inequalities inline;
// "hotspot" drives a planted skewed workload with the namespace heat
// sketches and tail-based exemplar capture enabled, checks that the
// planted subtrees rank first at every depth and that every p99-breaching
// op class pinned a breach exemplar, and renders the slowest exemplar
// through the critical-path profiler; "shardsweep" holds the offered load
// fixed and sweeps the number of independent NDB clusters the namespace
// is sharded across by subtree (Options.Shards), checking the 2.8x
// 4-vs-1-shard scaling floor inline and reporting the cross-shard rename
// path (ordered two-cluster commits with durable intents) separately
// from the shard-local fast path — the run recorded in history/BENCH_10.json.
//
// The simulator's own wall-clock cost (and the recorded perf trajectory)
// is measured by the benchmark in benchmark/, not here.
//
// Arguments are checked before anything runs: an unknown experiment id, or a
// flag placed after an id (flags go before experiment ids), fails at once
// instead of after the experiments in front of it.
//
// Flags:
//
//	-full     run the paper's complete server-count grid (slower)
//	-seed N   simulation seed (default 1)
//	-clients N  closed-loop clients per metadata server (default 64)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"hopsfscl/internal/bench"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hopsbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("hopsbench", flag.ContinueOnError)
	full := fs.Bool("full", false, "run the paper's complete server-count grid")
	seed := fs.Int64("seed", 1, "simulation seed")
	clients := fs.Int("clients", 0, "closed-loop clients per metadata server (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ids := fs.Args()
	if len(ids) == 0 {
		usage()
		return fmt.Errorf("no experiment given")
	}
	if len(ids) == 1 && ids[0] == "list" {
		usage()
		return nil
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = nil
		for _, e := range bench.Experiments {
			ids = append(ids, e.ID)
		}
	}
	// Every argument is checked before the first experiment runs: a typo in
	// the last id must not cost the minutes the first ones take.
	exps := make([]bench.Experiment, 0, len(ids))
	for _, id := range ids {
		if strings.HasPrefix(id, "-") {
			return fmt.Errorf("flag %s follows an experiment id: flags go before experiment ids", id)
		}
		exp, ok := bench.ExperimentByID(id)
		if !ok {
			return fmt.Errorf("unknown experiment %q (try: hopsbench list)", id)
		}
		exps = append(exps, exp)
	}
	opts := bench.ExpOptions{Full: *full, Seed: *seed, ClientsPerServer: *clients}
	for _, exp := range exps {
		fmt.Printf("=== %s — %s ===\n", exp.ID, exp.Title)
		t0 := time.Now()
		out, err := exp.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", exp.ID, err)
		}
		fmt.Println(out)
		fmt.Printf("(%s completed in %s)\n\n", exp.ID, time.Since(t0).Round(time.Millisecond))
	}
	return nil
}

func usage() {
	fmt.Println("hopsbench — regenerate the paper's tables and figures")
	fmt.Println("\nexperiments:")
	for _, e := range bench.Experiments {
		fmt.Printf("  %-9s %s\n", e.ID, e.Title)
	}
	fmt.Println("\nusage: hopsbench [-full] [-seed N] [-clients N] <experiment>... | all | list")
}
