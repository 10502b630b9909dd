package core

import (
	"testing"
	"time"

	"hopsfscl/internal/ndb"
	"hopsfscl/internal/sim"
	"hopsfscl/internal/workload"
)

// smallOptions returns a deployment small enough for fast tests.
func smallOptions(setup Setup) Options {
	opts := DefaultOptions(setup)
	opts.MetadataServers = 3
	opts.ClientsPerServer = 4
	opts.StorageNodes = 6
	opts.PartitionsPerTable = 12
	opts.Namespace = workload.NamespaceSpec{TopDirs: 8, SubDirs: 2, FilesPerDir: 5, ZipfS: 1.1}
	return opts
}

// TestBuildAllPaperSetups builds every one of the nine evaluation setups
// and runs a short workload through each.
func TestBuildAllPaperSetups(t *testing.T) {
	for _, setup := range PaperSetups {
		setup := setup
		t.Run(setup.Name, func(t *testing.T) {
			d, err := Build(smallOptions(setup))
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			if len(d.Clients) != 12 {
				t.Fatalf("clients = %d, want 12", len(d.Clients))
			}
			gen := workload.NewGenerator(d.Namespace, workload.SpotifyMix, 1)
			var errs, ops int
			d.Env.Spawn("driver", func(p *sim.Proc) {
				for i := 0; i < 200; i++ {
					if _, err := gen.Step(p, d.Clients[i%len(d.Clients)]); err != nil {
						errs++
					}
					ops++
				}
			})
			d.Env.RunFor(30 * time.Second)
			if ops != 200 {
				t.Fatalf("only %d/200 ops completed", ops)
			}
			if errs > 10 {
				t.Fatalf("%d/200 ops errored", errs)
			}
		})
	}
}

// TestShardedDeployment builds a two-shard HopsFS-CL deployment, drives a
// mixed workload through it (including renames, some of which cross the
// shard boundary), and checks the namespace actually spread across both
// clusters with no pending cross-shard intents left behind.
func TestShardedDeployment(t *testing.T) {
	opts := smallOptions(PaperSetups[5])
	opts.Shards = 2
	d, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if got := len(d.MetaClusters()); got != 2 {
		t.Fatalf("meta clusters = %d, want 2", got)
	}
	if got := len(d.StorageNodes()); got != 12 {
		t.Fatalf("storage nodes = %d, want 12 across both shards", got)
	}
	gen := workload.NewGenerator(d.Namespace, workload.SpotifyMix, 1)
	var errs, ops int
	d.Env.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < 400; i++ {
			if _, err := gen.Step(p, d.Clients[i%len(d.Clients)]); err != nil {
				errs++
			}
			ops++
		}
	})
	d.Env.RunFor(time.Minute)
	if ops != 400 {
		t.Fatalf("only %d/400 ops completed", ops)
	}
	if errs > 20 {
		t.Fatalf("%d/400 ops errored", errs)
	}
	for s := 0; s < 2; s++ {
		rows := 0
		d.MetaClusters()[s].Table("inodes").ForEachCommitted(func(_, _ string, _ ndb.Value) {
			rows++
		})
		if rows == 0 {
			t.Fatalf("shard %d holds no inode rows: namespace did not spread", s)
		}
	}
	if pending := d.NS.PendingIntents(); pending != 0 {
		t.Fatalf("%d cross-shard intents left pending after quiesce", pending)
	}
}

// TestShardedDeterminism checks that a sharded deployment is bit-for-bit
// reproducible under load, like its unsharded counterpart.
func TestShardedDeterminism(t *testing.T) {
	run := func() (int64, int64) {
		opts := smallOptions(PaperSetups[5])
		opts.Shards = 3
		d, err := Build(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		gen := workload.NewGenerator(d.Namespace, workload.SpotifyMix, 3)
		d.Env.Spawn("driver", func(p *sim.Proc) {
			for i := 0; i < 300; i++ {
				_, _ = gen.Step(p, d.Clients[i%len(d.Clients)])
			}
		})
		d.Env.RunFor(30 * time.Second)
		var committed int64
		for _, c := range d.MetaClusters() {
			committed += c.Stats.Committed
		}
		return committed, d.Net.CrossZoneBytes()
	}
	c1, x1 := run()
	c2, x2 := run()
	if c1 != c2 || x1 != x2 {
		t.Fatalf("sharded deployments diverge: (%d,%d) vs (%d,%d)", c1, x1, c2, x2)
	}
}

// TestOneShardIsUnsharded checks that Shards=1 is the unsharded deployment,
// schedule for schedule: the same workload sends the same number of
// messages and bytes, commits the same transactions, and leaves the
// environment's RNG at the same point of its stream (the next draw of both
// is the same value only if both consumed the same number before it).
func TestOneShardIsUnsharded(t *testing.T) {
	run := func(shards int) (msgs, bytes, committed, nextDraw int64) {
		opts := smallOptions(PaperSetups[5])
		opts.Shards = shards
		d, err := Build(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		gen := workload.NewGenerator(d.Namespace, workload.SpotifyMix, 3)
		d.Env.Spawn("driver", func(p *sim.Proc) {
			for i := 0; i < 300; i++ {
				_, _ = gen.Step(p, d.Clients[i%len(d.Clients)])
			}
		})
		d.Env.RunFor(30 * time.Second)
		return d.Net.TotalMessages(), d.Net.TotalBytes(), d.MetaStats().Committed, d.Env.Rand().Int63()
	}
	m0, b0, c0, r0 := run(0)
	m1, b1, c1, r1 := run(1)
	if m0 != m1 || b0 != b1 || c0 != c1 || r0 != r1 {
		t.Fatalf("Shards=1 diverges from unsharded: msgs %d/%d bytes %d/%d commits %d/%d next RNG draw %d/%d",
			m0, m1, b0, b1, c0, c1, r0, r1)
	}
	if c0 == 0 {
		t.Fatal("the workload committed nothing")
	}
}

func TestSetupByName(t *testing.T) {
	for _, s := range PaperSetups {
		got, ok := SetupByName(s.Name)
		if !ok || got != s {
			t.Fatalf("SetupByName(%q) = %+v, %v", s.Name, got, ok)
		}
	}
	if _, ok := SetupByName("nope"); ok {
		t.Fatal("bogus name found")
	}
}

func TestDeploymentAccessorsHops(t *testing.T) {
	d, err := Build(smallOptions(PaperSetups[5])) // HopsFS-CL (3,3)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if got := len(d.ServerCPUs()); got != 3 {
		t.Fatalf("server CPUs = %d", got)
	}
	if got := len(d.StorageCPUs()); got != 6*7 {
		t.Fatalf("storage CPUs = %d, want 42 thread pools", got)
	}
	if got := len(d.StorageNodes()); got != 6 {
		t.Fatalf("storage nodes = %d", got)
	}
	if got := len(d.ServerNodes()); got != 3 {
		t.Fatalf("server nodes = %d", got)
	}
	if got := len(d.ServerRequests()); got != 3 {
		t.Fatalf("server requests = %d entries", got)
	}
}

func TestDeploymentAccessorsCeph(t *testing.T) {
	d, err := Build(smallOptions(PaperSetups[6])) // CephFS
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.MetaClusters() != nil || d.NS != nil {
		t.Fatal("ceph deployment has hops components")
	}
	if got := len(d.ServerCPUs()); got != 3 {
		t.Fatalf("MDS CPUs = %d", got)
	}
	if got := len(d.StorageNodes()); got != 6 {
		t.Fatalf("OSDs = %d", got)
	}
	if got := len(d.StorageCPUs()); got != 0 {
		t.Fatalf("ceph storage CPUs = %d, want 0", got)
	}
}

// TestZoneAssignmentsFollowSetup checks the single- and triple-AZ layouts.
func TestZoneAssignmentsFollowSetup(t *testing.T) {
	single, err := Build(smallOptions(PaperSetups[0])) // HopsFS (2,1)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	for _, n := range single.StorageNodes() {
		if n.Zone() != 2 {
			t.Fatalf("single-AZ deployment placed %s in zone %d", n.Name(), n.Zone())
		}
	}
	triple, err := Build(smallOptions(PaperSetups[5]))
	if err != nil {
		t.Fatal(err)
	}
	defer triple.Close()
	zones := map[int]bool{}
	for _, n := range triple.StorageNodes() {
		zones[int(n.Zone())] = true
	}
	if len(zones) != 3 {
		t.Fatalf("triple-AZ storage spans %d zones", len(zones))
	}
}

// TestAwarenessWiring checks that AZ awareness flags flow to every layer.
func TestAwarenessWiring(t *testing.T) {
	aware, err := Build(smallOptions(PaperSetups[5]))
	if err != nil {
		t.Fatal(err)
	}
	defer aware.Close()
	for _, dn := range aware.MetaClusters()[0].DataNodes() {
		if dn.Domain == 0 {
			t.Fatal("HopsFS-CL datanode has no LocationDomainId")
		}
	}
	unaware, err := Build(smallOptions(PaperSetups[3])) // HopsFS (3,3)
	if err != nil {
		t.Fatal(err)
	}
	defer unaware.Close()
	for _, dn := range unaware.MetaClusters()[0].DataNodes() {
		if dn.Domain != 0 {
			t.Fatal("vanilla HopsFS datanode has a LocationDomainId")
		}
	}
	if unaware.MetaClusters()[0].Table("inodes").Options().ReadBackup {
		t.Fatal("vanilla HopsFS has Read Backup enabled")
	}
	if !aware.MetaClusters()[0].Table("inodes").Options().ReadBackup {
		t.Fatal("HopsFS-CL lacks Read Backup")
	}
}

// TestDisableReadBackupAblation checks the Figure 14 toggle.
func TestDisableReadBackupAblation(t *testing.T) {
	opts := smallOptions(PaperSetups[5])
	opts.DisableReadBackup = true
	d, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.MetaClusters()[0].Table("inodes").Options().ReadBackup {
		t.Fatal("Read Backup still enabled under the ablation")
	}
	// The deployment remains AZ-aware at the other layers.
	if d.MetaClusters()[0].DataNodes()[0].Domain == 0 {
		t.Fatal("ablation disabled LocationDomainIds too")
	}
}

// TestWorkloadMidAZFailure drives the workload while an AZ dies and checks
// the error rate stays bounded (retries + failover mask the failure).
func TestWorkloadMidAZFailure(t *testing.T) {
	opts := smallOptions(PaperSetups[5])
	opts.MetadataServers = 6
	d, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var ops, errs int
	stop := false
	for i, fs := range d.Clients {
		fs := fs
		gen := workload.NewGenerator(d.Namespace, workload.SpotifyMix, int64(i))
		d.Env.Spawn("client", func(p *sim.Proc) {
			for !stop {
				if _, err := gen.Step(p, fs); err != nil {
					errs++
				}
				ops++
			}
		})
	}
	d.Env.RunFor(200 * time.Millisecond)
	d.FailZone(3)
	d.Env.RunFor(2 * time.Second)
	stop = true
	d.Env.RunFor(time.Second)
	if ops == 0 {
		t.Fatal("no operations completed")
	}
	if float64(errs) > 0.1*float64(ops) {
		t.Fatalf("error rate too high across AZ failure: %d/%d", errs, ops)
	}
}

// TestDeterministicDeployments checks bit-for-bit reproducibility of whole
// deployments under load.
func TestDeterministicDeployments(t *testing.T) {
	run := func() (int64, int64) {
		d, err := Build(smallOptions(PaperSetups[5]))
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		gen := workload.NewGenerator(d.Namespace, workload.SpotifyMix, 3)
		d.Env.Spawn("driver", func(p *sim.Proc) {
			for i := 0; i < 300; i++ {
				_, _ = gen.Step(p, d.Clients[i%len(d.Clients)])
			}
		})
		d.Env.RunFor(30 * time.Second)
		return d.MetaStats().Committed, d.Net.CrossZoneBytes()
	}
	c1, x1 := run()
	c2, x2 := run()
	if c1 != c2 || x1 != x2 {
		t.Fatalf("deployments diverge: (%d,%d) vs (%d,%d)", c1, x1, c2, x2)
	}
}
