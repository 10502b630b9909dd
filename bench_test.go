package hopsfscl

// One benchmark per table and figure of the paper's evaluation. Each
// benchmark regenerates its artefact at reduced scale (few server counts,
// short measurement windows) and reports the headline quantity as a custom
// metric; `go run ./cmd/hopsbench -full all` regenerates everything at the
// paper's full grid. A single iteration of a benchmark is one complete
// experiment, so b.N is typically 1.

import (
	"strings"
	"testing"
	"time"

	"hopsfscl/internal/bench"
	"hopsfscl/internal/core"
	"hopsfscl/internal/workload"
)

// benchOpts is the reduced grid used by the testing.B targets.
func benchOpts() bench.ExpOptions {
	return bench.ExpOptions{Seed: 1, Counts: []int{6, 12}, ClientsPerServer: 32}
}

// measureSetup runs one setup at one size and reports throughput metrics.
func measureSetup(b *testing.B, name string, servers int) *bench.Result {
	b.Helper()
	setup, ok := core.SetupByName(name)
	if !ok {
		b.Fatalf("unknown setup %q", name)
	}
	opts := core.DefaultOptions(setup)
	opts.MetadataServers, opts.ClientsPerServer, opts.Seed = servers, 32, 1
	d, err := core.Build(opts)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	cfg := bench.DefaultRunConfig()
	cfg.Window = 150 * time.Millisecond
	return bench.Run(d, cfg)
}

func BenchmarkTable1LatencyMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := bench.Table1(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if !strings.Contains(out, "us-west1-a") {
			b.Fatal("unexpected table1 output")
		}
	}
}

func BenchmarkTable2ThreadConfig(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := bench.Table2(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if !strings.Contains(out, "27 CPUs") {
			b.Fatal("unexpected table2 output")
		}
	}
}

func BenchmarkFig5Throughput(b *testing.B) {
	// The headline comparison at one size: AZ-aware vs unaware vs CephFS.
	for i := 0; i < b.N; i++ {
		cl := measureSetup(b, "HopsFS-CL (3,3)", 12)
		un := measureSetup(b, "HopsFS (3,3)", 12)
		ceph := measureSetup(b, "CephFS", 12)
		b.ReportMetric(cl.Throughput, "cl-ops/s")
		b.ReportMetric(un.Throughput, "hops-ops/s")
		b.ReportMetric(ceph.Throughput, "ceph-ops/s")
		if cl.Throughput <= un.Throughput {
			b.Fatalf("AZ awareness did not help: %f <= %f", cl.Throughput, un.Throughput)
		}
		if cl.Throughput <= ceph.Throughput {
			b.Fatalf("HopsFS-CL did not beat CephFS: %f <= %f", cl.Throughput, ceph.Throughput)
		}
	}
}

func BenchmarkFig6PerServer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cl := measureSetup(b, "HopsFS-CL (3,3)", 12)
		ceph := measureSetup(b, "CephFS - DirPinned", 12)
		b.ReportMetric(cl.ServerRequestRate, "cl-req/s/server")
		b.ReportMetric(ceph.ServerRequestRate, "mds-req/s/server")
		if cl.ServerRequestRate < 4*ceph.ServerRequestRate {
			b.Fatalf("per-server gap too small: %f vs %f (paper: ~23X)",
				cl.ServerRequestRate, ceph.ServerRequestRate)
		}
	}
}

func BenchmarkFig7MicroOps(b *testing.B) {
	ops := []workload.Op{workload.OpMkdir, workload.OpCreate, workload.OpDelete, workload.OpRead}
	for _, op := range ops {
		b.Run(op.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				setup, _ := core.SetupByName("HopsFS-CL (3,3)")
				cfg := bench.DefaultRunConfig()
				cfg.Mix = workload.MicroMix(op)
				cfg.Window = 150 * time.Millisecond
				opts := core.DefaultOptions(setup)
				opts.MetadataServers = 12
				opts.ClientsPerServer = 32
				opts.Namespace.FilesPerDir = 80
				d, err := core.Build(opts)
				if err != nil {
					b.Fatal(err)
				}
				res := bench.Run(d, cfg)
				d.Close()
				b.ReportMetric(res.Throughput, "vops/s")
			}
		})
	}
}

func BenchmarkFig8Latency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cl := measureSetup(b, "HopsFS-CL (3,3)", 12)
		un := measureSetup(b, "HopsFS (3,3)", 12)
		ceph := measureSetup(b, "CephFS", 12)
		b.ReportMetric(float64(cl.AvgLatency.Microseconds()), "cl-us")
		b.ReportMetric(float64(un.AvgLatency.Microseconds()), "hops-us")
		b.ReportMetric(float64(ceph.AvgLatency.Microseconds()), "ceph-us")
		if cl.AvgLatency >= un.AvgLatency {
			b.Fatalf("AZ awareness did not lower latency: %v >= %v", cl.AvgLatency, un.AvgLatency)
		}
	}
}

func BenchmarkFig9Percentiles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		setup, _ := core.SetupByName("HopsFS-CL (3,3)")
		cfg := bench.DefaultRunConfig()
		cfg.Mix = workload.MicroMix(workload.OpCreate)
		cfg.Window = 150 * time.Millisecond
		opts := core.DefaultOptions(setup)
		opts.MetadataServers = 12
		opts.ClientsPerServer = 8 // unloaded
		d, err := core.Build(opts)
		if err != nil {
			b.Fatal(err)
		}
		res := bench.Run(d, cfg)
		d.Close()
		b.ReportMetric(float64(res.P50.Microseconds()), "p50-us")
		b.ReportMetric(float64(res.P99.Microseconds()), "p99-us")
		if res.P99 < res.P50 {
			b.Fatal("percentiles inverted")
		}
	}
}

func BenchmarkFig10CPU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := measureSetup(b, "HopsFS-CL (3,3)", 12)
		b.ReportMetric(res.StorageCPU*100, "storage-cpu-%")
		b.ReportMetric(res.ServerCPU*100, "server-cpu-%")
		if res.StorageCPU <= 0 || res.ServerCPU <= 0 {
			b.Fatal("no CPU utilization measured")
		}
	}
}

func BenchmarkFig11ThreadCPU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := measureSetup(b, "HopsFS-CL (3,3)", 12)
		for _, ty := range []string{"LDM", "TC", "RECV", "SEND", "REP"} {
			b.ReportMetric(res.ThreadCPU[ty]*100, ty+"-%")
		}
		// The paper's Fig 11 structure: RECV is the hottest thread class;
		// IO and MAIN stay idle under the metadata workload.
		if res.ThreadCPU["RECV"] <= res.ThreadCPU["MAIN"] {
			b.Fatal("RECV not busier than MAIN")
		}
	}
}

func BenchmarkFig12StorageIO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := measureSetup(b, "HopsFS-CL (3,3)", 12)
		b.ReportMetric(res.StorageNetRead/1e6, "net-read-MB/s")
		b.ReportMetric(res.StorageNetWrite/1e6, "net-write-MB/s")
		b.ReportMetric(res.StorageDiskWrite/1e6, "disk-write-MB/s")
		if res.StorageNetRead == 0 {
			b.Fatal("no storage network traffic measured")
		}
	}
}

func BenchmarkFig13ServerIO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := measureSetup(b, "HopsFS-CL (3,3)", 12)
		b.ReportMetric(res.ServerNetRead/1e6, "net-read-MB/s")
		b.ReportMetric(res.ServerNetWrite/1e6, "net-write-MB/s")
		if res.ServerNetRead == 0 {
			b.Fatal("no server network traffic measured")
		}
	}
}

func BenchmarkFig14ReadBackup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := bench.Fig14(bench.ExpOptions{Seed: 1, ClientsPerServer: 32})
		if err != nil {
			b.Fatal(err)
		}
		if !strings.Contains(out, "Read Backup ENABLED") {
			b.Fatal("unexpected fig14 output")
		}
	}
}

func BenchmarkFailureDrills(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := bench.Failures(bench.ExpOptions{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if !strings.Contains(out, "zone 2 failed") {
			b.Fatal("unexpected failures output")
		}
	}
}

// BenchmarkAblationInterAZBandwidth quantifies the DESIGN.md design choice:
// finite shared inter-AZ links are what separates AZ-aware from unaware
// deployments at scale. It compares cross-zone byte rates directly.
func BenchmarkAblationInterAZBandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cl := measureSetup(b, "HopsFS-CL (3,3)", 12)
		un := measureSetup(b, "HopsFS (3,3)", 12)
		b.ReportMetric(cl.CrossZoneRate/1e6, "cl-xAZ-MB/s")
		b.ReportMetric(un.CrossZoneRate/1e6, "hops-xAZ-MB/s")
		if cl.CrossZoneRate >= un.CrossZoneRate {
			b.Fatal("AZ awareness did not reduce cross-AZ traffic")
		}
	}
}

// BenchmarkAblationObjectStoreBlocks compares the two block backends — DN
// pipeline replication vs the §VII future-work cloud object store — on a
// 256 MB file write + read, reporting virtual I/O time and cross-AZ bytes.
func BenchmarkAblationObjectStoreBlocks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		type outcome struct {
			writeMS, readMS float64
			crossAZ         float64
		}
		run := func(objectStore bool) outcome {
			opts := []Option{WithSeed(7)}
			if objectStore {
				opts = append(opts, WithObjectStoreBlocks())
			}
			c, err := New(opts...)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			fs := c.Client(1)
			base := c.Stats().CrossZoneBytes
			t0 := c.now()
			if err := fs.WriteFile("/f", 256<<20); err != nil {
				b.Fatal(err)
			}
			t1 := c.now()
			if _, err := fs.ReadFile("/f"); err != nil {
				b.Fatal(err)
			}
			t2 := c.now()
			return outcome{
				writeMS: float64((t1 - t0).Milliseconds()),
				readMS:  float64((t2 - t1).Milliseconds()),
				crossAZ: float64(c.Stats().CrossZoneBytes-base) / 1e6,
			}
		}
		dn := run(false)
		cloud := run(true)
		b.ReportMetric(dn.writeMS, "dn-write-ms")
		b.ReportMetric(cloud.writeMS, "cloud-write-ms")
		b.ReportMetric(dn.readMS, "dn-read-ms")
		b.ReportMetric(cloud.readMS, "cloud-read-ms")
		b.ReportMetric(dn.crossAZ, "dn-xAZ-MB")
		b.ReportMetric(cloud.crossAZ, "cloud-xAZ-MB")
	}
}
