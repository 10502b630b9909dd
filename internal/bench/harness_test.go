package bench

import (
	"math"
	"strings"
	"testing"
	"time"

	"hopsfscl/internal/core"
	"hopsfscl/internal/workload"
)

// tinyConfig keeps harness tests fast.
func tinyConfig() RunConfig {
	cfg := DefaultRunConfig()
	cfg.Warmup = 20 * time.Millisecond
	cfg.MaxWarmup = 200 * time.Millisecond
	cfg.WarmOpsPerClient = 5
	cfg.Window = 50 * time.Millisecond
	return cfg
}

func tinyMeasure(t *testing.T, name string) *Result {
	t.Helper()
	setup, ok := core.SetupByName(name)
	if !ok {
		t.Fatalf("unknown setup %q", name)
	}
	res, err := measure(pointOptions(ExpOptions{ClientsPerServer: 8, Seed: 1}, setup, 3), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunProducesConsistentResult(t *testing.T) {
	res := tinyMeasure(t, "HopsFS-CL (3,3)")
	if res.Ops <= 0 || res.Throughput <= 0 {
		t.Fatalf("no throughput: %+v", res)
	}
	if res.AvgLatency <= 0 || res.P99 < res.P50 {
		t.Fatalf("latency stats inconsistent: avg=%v p50=%v p99=%v", res.AvgLatency, res.P50, res.P99)
	}
	// Little's law sanity: clients / latency ~ throughput (within 3x; the
	// retry/backoff paths add slack).
	expected := 24.0 / res.AvgLatency.Seconds()
	if res.Throughput > 3*expected || res.Throughput < expected/3 {
		t.Fatalf("throughput %f violates Little's law estimate %f", res.Throughput, expected)
	}
	if res.ServerRequestRate <= 0 {
		t.Fatal("no server-side requests measured")
	}
	if res.StorageCPU <= 0 || res.ServerCPU <= 0 {
		t.Fatal("no CPU utilization measured")
	}
	if res.ThreadCPU["RECV"] <= 0 {
		t.Fatal("no RECV thread utilization")
	}
	if res.StorageNetRead <= 0 || res.ServerNetRead <= 0 {
		t.Fatal("no network rates measured")
	}
	if len(res.ReadSlots) == 0 {
		t.Fatal("no partition read counters")
	}
}

func TestRunCephHasNoHopsOnlyMetrics(t *testing.T) {
	res := tinyMeasure(t, "CephFS")
	if res.ThreadCPU != nil {
		t.Fatal("ceph result carries NDB thread metrics")
	}
	if res.ReadSlots != nil {
		t.Fatal("ceph result carries partition read counters")
	}
	if res.Throughput <= 0 {
		t.Fatal("no ceph throughput")
	}
}

func TestRunIsDeterministic(t *testing.T) {
	a := tinyMeasure(t, "HopsFS (2,3)")
	b := tinyMeasure(t, "HopsFS (2,3)")
	if a.Ops != b.Ops || a.AvgLatency != b.AvgLatency || a.Errors != b.Errors {
		t.Fatalf("runs diverge: %+v vs %+v", a, b)
	}
}

func TestAdaptiveWarmupExtends(t *testing.T) {
	setup, _ := core.SetupByName("HopsFS-CL (3,3)")
	opts := core.DefaultOptions(setup)
	opts.MetadataServers = 3
	opts.ClientsPerServer = 8
	d, err := core.Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	cfg := tinyConfig()
	cfg.WarmOpsPerClient = 50 // needs far more than the 20ms minimum
	start := d.Env.Now()
	res := Run(d, cfg)
	elapsed := d.Env.Now() - start
	if elapsed <= cfg.Warmup+cfg.Window {
		t.Fatalf("warmup did not extend: %v", elapsed)
	}
	if res.Ops <= 0 {
		t.Fatal("no measured ops")
	}
}

func TestMicroMixesRun(t *testing.T) {
	for _, op := range []workload.Op{workload.OpMkdir, workload.OpRead} {
		setup, _ := core.SetupByName("HopsFS-CL (3,3)")
		cfg := tinyConfig()
		cfg.Mix = workload.MicroMix(op)
		res, err := measure(pointOptions(ExpOptions{ClientsPerServer: 8, Seed: 1}, setup, 3), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Throughput <= 0 {
			t.Fatalf("%v micro mix produced no throughput", op)
		}
	}
}

func TestReadSlotDiffing(t *testing.T) {
	now := []PartitionReads{{Index: 0, Counts: []int64{10, 5, 5}}, {Index: 1, Counts: []int64{4, 0, 0}}}
	before := []PartitionReads{{Index: 0, Counts: []int64{7, 5, 1}}, {Index: 1, Counts: []int64{1, 0, 0}}}
	diff := diffReadSlots(now, before)
	if diff[0].Counts[0] != 3 || diff[0].Counts[2] != 4 || diff[1].Counts[0] != 3 {
		t.Fatalf("diff = %+v", diff)
	}
	if diffReadSlots(nil, before) != nil {
		t.Fatal("nil now should diff to nil")
	}
}

func TestExperimentRegistry(t *testing.T) {
	ids := []string{"table1", "table2", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "fig14", "pathdepth", "writefan", "failures", "chaos", "autoscale", "ablations", "phases", "hotspot", "shardsweep"}
	if len(Experiments) != len(ids) {
		t.Fatalf("registry has %d experiments, want %d", len(Experiments), len(ids))
	}
	for _, id := range ids {
		e, ok := ExperimentByID(id)
		if !ok || e.Run == nil || e.Title == "" {
			t.Fatalf("experiment %q missing or incomplete", id)
		}
	}
	if _, ok := ExperimentByID("fig99"); ok {
		t.Fatal("bogus experiment id resolved")
	}
}

func TestServerCountGrids(t *testing.T) {
	quick := ExpOptions{}.ServerCounts()
	full := ExpOptions{Full: true}.ServerCounts()
	if len(full) != 8 || full[0] != 1 || full[7] != 60 {
		t.Fatalf("full grid = %v", full)
	}
	if len(quick) >= len(full) {
		t.Fatalf("quick grid (%v) not smaller than full", quick)
	}
	custom := ExpOptions{Counts: []int{3}}.ServerCounts()
	if len(custom) != 1 || custom[0] != 3 {
		t.Fatalf("custom grid = %v", custom)
	}
}

func TestTable1Output(t *testing.T) {
	out, err := Table1(ExpOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"us-west1-a", "us-west1-b", "us-west1-c", "0.36", "0.399"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table1 output missing %q:\n%s", want, out)
		}
	}
}

func TestTable2Output(t *testing.T) {
	out, err := Table2(ExpOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"LDM", "12", "TC", "RECV", "27 CPUs"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table2 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig14ShowsReadBackupContrast(t *testing.T) {
	out, err := Fig14(ExpOptions{Seed: 1, ClientsPerServer: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Read Backup ENABLED") || !strings.Contains(out, "Read Backup DISABLED") {
		t.Fatalf("fig14 output incomplete:\n%s", out)
	}
	// The disabled half must contain all-primary rows.
	disabled := out[strings.Index(out, "DISABLED"):]
	if !strings.Contains(disabled, "100%") {
		t.Fatalf("fig14 disabled section shows no 100%% primary rows:\n%s", disabled)
	}
}

// TestExperimentsSmoke runs every sweep-based figure at a tiny grid (2
// servers, 4 clients) to exercise the full rendering paths end to end.
func TestExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke drives many deployments")
	}
	o := ExpOptions{Seed: 1, Counts: []int{2}, ClientsPerServer: 4}
	for _, id := range []string{"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13"} {
		exp, ok := ExperimentByID(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		out, err := exp.Run(o)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(out) < 40 {
			t.Fatalf("%s output suspiciously short:\n%s", id, out)
		}
	}
}

func TestFailuresExperimentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("failure drill drives a full deployment")
	}
	out, err := Failures(ExpOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"baseline", "zone 2 failed", "partitioned", "recovered", "timeline"} {
		if !strings.Contains(out, want) {
			t.Fatalf("failures output missing %q:\n%s", want, out)
		}
	}
}

// TestSeedVarianceIsModest guards the calibration: measured throughput
// across different seeds must agree within a reasonable band, or the
// figures would be noise.
func TestSeedVarianceIsModest(t *testing.T) {
	setup, _ := core.SetupByName("HopsFS-CL (3,3)")
	var rates []float64
	for seed := int64(1); seed <= 3; seed++ {
		cfg := tinyConfig()
		cfg.Seed = seed
		res, err := measure(pointOptions(ExpOptions{ClientsPerServer: 8, Seed: seed}, setup, 3), cfg)
		if err != nil {
			t.Fatal(err)
		}
		rates = append(rates, res.Throughput)
	}
	min, max := rates[0], rates[0]
	for _, r := range rates {
		if r < min {
			min = r
		}
		if r > max {
			max = r
		}
	}
	if max > 1.3*min {
		t.Fatalf("seed variance too high: %v", rates)
	}
}

// TestShardedRunReadsEveryCluster checks the per-cluster reads of a sharded
// measurement: the per-thread-type utilizations average to the all-cluster
// storage utilization (which they can only do if they cover the same
// datanodes), and the contention ledgers and their report cover both
// clusters.
func TestShardedRunReadsEveryCluster(t *testing.T) {
	setup, _ := core.SetupByName("HopsFS-CL (3,3)")
	opts := core.DefaultOptions(setup)
	opts.MetadataServers = 3
	opts.ClientsPerServer = 8
	opts.Shards = 2
	d, err := core.Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	cfg := tinyConfig()
	cfg.Profile = true
	res := Run(d, cfg)

	var sum float64
	for _, u := range res.ThreadCPU {
		sum += u
	}
	if mean := sum / float64(len(res.ThreadCPU)); math.Abs(mean-res.StorageCPU) > 1e-9*res.StorageCPU {
		t.Fatalf("mean of the %d per-thread utilizations = %.9f, all-cluster storage utilization = %.9f: ThreadCPU does not span both clusters",
			len(res.ThreadCPU), mean, res.StorageCPU)
	}
	if len(res.Contention) != 2 {
		t.Fatalf("result carries %d contention ledgers, want one per cluster", len(res.Contention))
	}
	rep := d.ContentionReport(5)
	for s := 0; s < 2; s++ {
		if label := d.ShardLabel(s); label == "" || !strings.Contains(rep, "lock contention"+label+":") {
			t.Fatalf("contention report has no section for shard %d:\n%s", s, rep)
		}
	}
}

// TestCephRunsRepeat measures every CephFS setup twice at one seed: DESIGN
// §6 promises bit-for-bit repeatability, which capability revocation broke
// while it fanned out in map order. Only the dynamic balancer amplified a
// reordered revocation into different totals, and reliably only from this
// scale up, so it alone runs large (cephfs's TestRevocationOrderRepeats pins
// the cause itself).
func TestCephRunsRepeat(t *testing.T) {
	type outcome struct {
		ops, crossZone, dropped int64
		p99                     time.Duration
	}
	for _, tc := range []struct {
		setup            core.Setup
		servers, clients int
	}{
		{core.PaperSetups[6], 12, 64},
		{core.PaperSetups[7], 6, 16},
		{core.PaperSetups[8], 6, 16},
	} {
		measure := func() outcome {
			opts := core.DefaultOptions(tc.setup)
			opts.MetadataServers = tc.servers
			opts.ClientsPerServer = tc.clients
			d, err := core.Build(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			res := Run(d, DefaultRunConfig())
			return outcome{ops: res.Ops, crossZone: d.Net.CrossZoneBytes(), dropped: d.Net.Dropped(), p99: res.P99}
		}
		if a, b := measure(), measure(); a != b {
			t.Errorf("%s: two runs at seed 1 differ: %+v vs %+v", tc.setup.Name, a, b)
		}
	}
}
