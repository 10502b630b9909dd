package hopsfscl_test

import (
	"fmt"
	"log"

	"hopsfscl"
)

// Example builds the paper's headline deployment, writes a small and a
// large file, survives an AZ failure, and performs the atomic rename that
// object stores cannot.
func Example() {
	cluster, err := hopsfscl.New()
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	fs := cluster.Client(1)
	if err := fs.MkdirAll("/data"); err != nil {
		log.Fatal(err)
	}
	if err := fs.WriteFile("/data/small", 64<<10); err != nil {
		log.Fatal(err)
	}
	if err := fs.WriteFile("/data/large", 300<<20); err != nil {
		log.Fatal(err)
	}

	small, _ := fs.ReadFile("/data/small")
	large, _ := fs.ReadFile("/data/large")
	fmt.Printf("small inline=%v blocks=%d\n", small.Inline, small.Blocks)
	fmt.Printf("large inline=%v blocks=%d\n", large.Inline, large.Blocks)

	cluster.FailZone(2)
	if _, err := fs.ReadFile("/data/large"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("readable after AZ failure: true")

	if err := fs.Rename("/data", "/archive"); err != nil {
		log.Fatal(err)
	}
	kids, _ := fs.List("/archive")
	fmt.Printf("entries after atomic rename: %d\n", len(kids))

	// Output:
	// small inline=true blocks=0
	// large inline=false blocks=3
	// readable after AZ failure: true
	// entries after atomic rename: 2
}

// ExampleRunExperiment regenerates one of the paper's artefacts.
func ExampleRunExperiment() {
	out, err := hopsfscl.RunExperiment("table2", false, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(out) > 0)
	// Output: true
}

// Example_quickstart builds a three-AZ HopsFS-CL cluster, uses it like a
// file system, and peeks at what the AZ-aware stack did under the hood.
func Example_quickstart() {
	// HopsFS-CL (3,3): metadata replicated three ways, one replica per
	// availability zone, Read Backup enabled on all tables, AZ-aware
	// transaction coordinators and block placement — the paper's headline
	// deployment (Figure 4).
	cluster, err := hopsfscl.New()
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	fmt.Println("zones:", cluster.Zones())

	// A client in us-west1-a. Its locationDomainId steers it to an
	// AZ-local metadata server and AZ-local replicas.
	fs := cluster.Client(1)
	if err := fs.MkdirAll("/data/logs"); err != nil {
		log.Fatal(err)
	}
	// Small files (<= 128 KB) are stored inline in the metadata layer
	// (NDB), so a read never touches the block storage layer.
	if err := fs.WriteFile("/data/logs/app.log", 64<<10); err != nil {
		log.Fatal(err)
	}
	// Large files are split into 128 MB blocks, each replicated with at
	// least one copy in every AZ.
	if err := fs.WriteFile("/data/logs/archive.bin", 300<<20); err != nil {
		log.Fatal(err)
	}
	for _, path := range []string{"/data/logs/app.log", "/data/logs/archive.bin"} {
		info, err := fs.ReadFile(path)
		if err != nil {
			log.Fatal(err)
		}
		placement := "inline in NDB"
		if info.Blocks > 0 {
			placement = fmt.Sprintf("%d blocks across the AZs", info.Blocks)
		}
		fmt.Printf("%-28s %12d bytes  (%s)\n", path, info.Size, placement)
	}

	// Atomic rename: the operation object stores cannot provide.
	if err := fs.Rename("/data/logs", "/data/archive-2026"); err != nil {
		log.Fatal(err)
	}
	kids, err := fs.List("/data/archive-2026")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("after rename, /data/archive-2026 holds:")
	for _, k := range kids {
		fmt.Println("  ", k.Name)
	}

	stats := cluster.Stats()
	fmt.Printf("committed metadata transactions: %d\n", stats.CommittedTxns)
	fmt.Printf("cross-AZ traffic: %.1f MB of %.1f MB total\n",
		float64(stats.CrossZoneBytes)/1e6, float64(stats.TotalBytes)/1e6)

	// Output:
	// zones: [us-west1-a us-west1-b us-west1-c]
	// /data/logs/app.log                  65536 bytes  (inline in NDB)
	// /data/logs/archive.bin          314572800 bytes  (3 blocks across the AZs)
	// after rename, /data/archive-2026 holds:
	//    app.log
	//    archive.bin
	// committed metadata transactions: 21
	// cross-AZ traffic: 629.2 MB of 1258.5 MB total
}

// Example_rename commits a job the way data lake frameworks do, by renaming
// its staging directory into place (§I). On an object store that copies
// every object; here it is one metadata transaction whatever the directory
// holds. A directory's children are keyed by its inode id, not by its name,
// so the rename rewrites the directory's own row and none of its children's:
// it sends the bytes an empty directory's rename sends. It stays atomic
// across an AZ failure.
func Example_rename() {
	cluster, err := hopsfscl.New(hopsfscl.WithoutBlockLayer())
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	fs := cluster.Client(1)

	// A job writes 100 output files into its staging directory; another
	// job's stays empty.
	for _, dir := range []string{"/warehouse/sales/.staging", "/warehouse/sales/.empty"} {
		if err := fs.MkdirAll(dir); err != nil {
			log.Fatal(err)
		}
	}
	const files = 100
	for i := 0; i < files; i++ {
		if err := fs.Create(fmt.Sprintf("/warehouse/sales/.staging/part-%05d", i)); err != nil {
			log.Fatal(err)
		}
	}
	rename := func(src, dst string) (txns, bytes int64) {
		before := cluster.Stats()
		if err := fs.Rename(src, dst); err != nil {
			log.Fatal(err)
		}
		after := cluster.Stats()
		return after.CommittedTxns - before.CommittedTxns, after.TotalBytes - before.TotalBytes
	}
	txns, bytes := rename("/warehouse/sales/.staging", "/warehouse/sales/2026-07-05")
	_, empty := rename("/warehouse/sales/.empty", "/warehouse/sales/2026-07-06")
	fmt.Printf("renamed a %d-file directory in %d metadata transaction\n", files, txns)
	fmt.Println("sent the bytes of an empty directory's rename:", bytes == empty)

	kids, err := fs.List("/warehouse/sales/2026-07-05")
	if err != nil {
		log.Fatal(err)
	}
	_, err = fs.Stat("/warehouse/sales/.staging")
	fmt.Printf("under the new name: %d files; the old name is gone: %v\n", len(kids), err != nil)

	cluster.FailZone(3)
	if err := fs.Rename("/warehouse/sales/2026-07-05", "/warehouse/sales/final"); err != nil {
		log.Fatal(err)
	}
	if kids, err = fs.List("/warehouse/sales/final"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("renamed again after an AZ failure: %d files\n", len(kids))

	// Output:
	// renamed a 100-file directory in 1 metadata transaction
	// sent the bytes of an empty directory's rename: true
	// under the new name: 100 files; the old name is gone: true
	// renamed again after an AZ failure: 100 files
}

// Example_spotify runs a scaled-down version of the paper's industrial
// workload scenario: analytics clients in all three availability zones
// hammer a Hadoop-style namespace, once on AZ-aware HopsFS-CL and once on
// unaware HopsFS, and the example compares how much traffic crossed AZ
// boundaries — the cost the paper's design minimizes (challenge C2, §III).
func Example_spotify() {
	// A small analytics project layout.
	dataset := []string{
		"/spotify/playlists/2026-07-04",
		"/spotify/playlists/2026-07-05",
		"/spotify/streams/2026-07-04",
		"/spotify/streams/2026-07-05",
		"/spotify/users/profiles",
		"/spotify/users/sessions",
	}
	run := func(setup string) (crossAZ, total, txns int64) {
		cluster, err := hopsfscl.New(
			hopsfscl.WithSetup(setup),
			hopsfscl.WithoutBlockLayer(), // metadata-only, like the paper's benchmarks
			hopsfscl.WithMetadataServers(3),
		)
		if err != nil {
			log.Fatal(err)
		}
		defer cluster.Close()

		// Build the namespace from zone 1.
		seed := cluster.Client(1)
		for _, dir := range dataset {
			if err := seed.MkdirAll(dir); err != nil {
				log.Fatal(err)
			}
			for i := 0; i < 8; i++ {
				if err := seed.Create(fmt.Sprintf("%s/part-%05d", dir, i)); err != nil {
					log.Fatal(err)
				}
			}
		}
		base := cluster.Stats()

		// Analytics tasks in every zone: read-dominated metadata traffic
		// over their own datasets (stat + open + list), plus a thin stream
		// of output writes — the shape of the Spotify trace.
		for z := 1; z <= 3; z++ {
			fs := cluster.Client(z)
			home := dataset[(z-1)*2 : (z-1)*2+2]
			for round := 0; round < 10; round++ {
				for _, dir := range home {
					if _, err := fs.List(dir); err != nil {
						log.Fatal(err)
					}
					for i := 0; i < 4; i++ {
						path := fmt.Sprintf("%s/part-%05d", dir, i)
						if _, err := fs.Stat(path); err != nil {
							log.Fatal(err)
						}
						if _, err := fs.ReadFile(path); err != nil {
							log.Fatal(err)
						}
					}
				}
				if err := fs.Create(fmt.Sprintf("%s/out-z%d-%03d", home[0], z, round)); err != nil {
					log.Fatal(err)
				}
			}
		}
		s := cluster.Stats()
		return s.CrossZoneBytes - base.CrossZoneBytes, s.TotalBytes - base.TotalBytes,
			s.CommittedTxns - base.CommittedTxns
	}
	for _, setup := range []string{"HopsFS-CL (3,3)", "HopsFS (3,3)"} {
		crossAZ, total, txns := run(setup)
		fmt.Printf("%-18s committed txns: %5d   cross-AZ: %7.2f MB of %7.2f MB (%.0f%%)\n",
			setup, txns, float64(crossAZ)/1e6, float64(total)/1e6,
			100*float64(crossAZ)/float64(total))
	}
	fmt.Println("AZ awareness keeps metadata traffic inside each zone: local transaction")
	fmt.Println("coordinators, Read Backup replicas, and AZ-local metadata servers (§IV).")

	// Output:
	// HopsFS-CL (3,3)    committed txns:   579   cross-AZ:    0.08 MB of    0.66 MB (13%)
	// HopsFS (3,3)       committed txns:   579   cross-AZ:    0.61 MB of    0.64 MB (96%)
	// AZ awareness keeps metadata traffic inside each zone: local transaction
	// coordinators, Read Backup replicas, and AZ-local metadata servers (§IV).
}

// Example_azfailover walks §V-F of the paper: the file system tolerates the
// failure of an entire availability zone, resolves a split brain through
// the management-node arbitrator, and re-replicates blocks whose replicas
// were lost — all while continuing to serve clients.
func Example_azfailover() {
	cluster, err := hopsfscl.New(hopsfscl.WithMetadataServers(6))
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	report := func(label string) {
		s := cluster.Stats()
		fmt.Printf("[%-22s] storage nodes up: %d  metadata servers up: %d  leader: nn-%d  re-replications: %d\n",
			label, s.AliveStorageNodes, s.AliveNameNodes, cluster.LeaderID(), s.ReReplications)
	}

	fs := cluster.Client(1)
	if err := fs.MkdirAll("/prod/db"); err != nil {
		log.Fatal(err)
	}
	if err := fs.WriteFile("/prod/db/snapshot", 256<<20); err != nil {
		log.Fatal(err)
	}
	report("steady state")

	// An availability zone goes dark. Metadata: NDB promotes backup
	// partition replicas within each node group (every group spans all
	// three AZs, Figure 4). Serving: clients stuck to zone-2 NNs pick
	// surviving servers; a new leader is elected if the leader was in
	// zone 2. Blocks: the leader NN triggers re-replication of block
	// replicas lost with the zone.
	fmt.Println("*** zone 2 fails ***")
	cluster.FailZone(2)
	report("after AZ failure")
	if _, err := fs.ReadFile("/prod/db/snapshot"); err != nil {
		log.Fatal("read after AZ failure: ", err)
	}
	if err := fs.WriteFile("/prod/db/wal", 64<<10); err != nil {
		log.Fatal("write after AZ failure: ", err)
	}
	fmt.Println("reads and writes keep working")

	// Give the re-replication monitor time to restore the replication
	// factor of the snapshot's blocks.
	cluster.Advance(5e9)
	report("after re-replication")

	// Split brain between the surviving zones. Zone 1 hosts the elected
	// arbitrator (M1). When zones 1 and 3 partition, the side that reaches
	// the arbitrator first survives; the other side shuts itself down
	// rather than risk divergence.
	fmt.Println("*** network partition between zone 1 and zone 3 ***")
	cluster.PartitionZones(1, 3)
	report("after split brain")
	if err := fs.Create("/prod/db/marker"); err != nil {
		log.Fatal("write after split brain: ", err)
	}
	fmt.Println("the surviving side keeps accepting writes")

	cluster.HealZones(1, 3)
	fmt.Println("partition healed (shut-down nodes stay out until operator re-join)")
	report("final")

	// Output:
	// [steady state          ] storage nodes up: 6  metadata servers up: 6  leader: nn-1  re-replications: 0
	// *** zone 2 fails ***
	// [after AZ failure      ] storage nodes up: 4  metadata servers up: 4  leader: nn-1  re-replications: 2
	// reads and writes keep working
	// [after re-replication  ] storage nodes up: 4  metadata servers up: 4  leader: nn-1  re-replications: 2
	// *** network partition between zone 1 and zone 3 ***
	// [after split brain     ] storage nodes up: 2  metadata servers up: 4  leader: nn-1  re-replications: 2
	// the surviving side keeps accepting writes
	// partition healed (shut-down nodes stay out until operator re-join)
	// [final                 ] storage nodes up: 2  metadata servers up: 4  leader: nn-1  re-replications: 2
}

// ExampleWithShards shards the namespace by subtree across two NDB
// clusters: a subtree lives on one shard, and a rename between subtrees
// commits atomically across them.
func ExampleWithShards() {
	cluster, err := hopsfscl.New(hopsfscl.WithShards(2))
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	fs := cluster.Client(1)
	for _, dir := range []string{"/proj/a", "/stage"} {
		if err := fs.MkdirAll(dir); err != nil {
			log.Fatal(err)
		}
	}
	if err := fs.WriteFile("/proj/a/x", 4096); err != nil {
		log.Fatal(err)
	}
	if err := fs.Rename("/proj/a/x", "/stage/x"); err != nil {
		log.Fatal(err)
	}
	src, _ := fs.Exists("/proj/a/x")
	dst, _ := fs.Exists("/stage/x")
	fmt.Printf("at source %v, at destination %v, %d storage nodes\n", src, dst, cluster.Stats().AliveStorageNodes)
	// Output: at source false, at destination true, 12 storage nodes
}

// ExampleCluster_ScaleDown grows the stateless metadata tier online and
// drains it back; it never drains the last serving server.
func ExampleCluster_ScaleDown() {
	cluster, err := hopsfscl.New()
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	fmt.Println("serving:", cluster.ServingNameNodes())
	if err := cluster.ScaleUp(2); err != nil {
		log.Fatal(err)
	}
	fmt.Println("after ScaleUp(2):", cluster.ServingNameNodes())
	fmt.Println("ScaleDown(2) drains:", cluster.ScaleDown(2))
	fmt.Println("ScaleDown(100) drains:", cluster.ScaleDown(100))
	fmt.Println("serving:", cluster.ServingNameNodes())
	fmt.Println("ScaleUp(0):", cluster.ScaleUp(0))
	fmt.Println("mkdir on the last server:", cluster.Client(1).MkdirAll("/elastic"))
	// Output:
	// serving: 3
	// after ScaleUp(2): 5
	// ScaleDown(2) drains: 2
	// ScaleDown(100) drains: 2
	// serving: 1
	// ScaleUp(0): hopsfscl: ScaleUp(0)
	// mkdir on the last server: <nil>
}

// ExampleWithObjectStoreBlocks keeps large-file blocks in a cloud object
// store, the integration §VII names: the provider owns their durability, so
// an AZ failure leaves them readable and re-replicates nothing.
func ExampleWithObjectStoreBlocks() {
	cluster, err := hopsfscl.New(hopsfscl.WithObjectStoreBlocks())
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	fs := cluster.Client(1)
	if err := fs.WriteFile("/cloud.bin", 300<<20); err != nil {
		log.Fatal(err)
	}
	cluster.FailZone(2)
	info, err := fs.ReadFile("/cloud.bin")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("blocks=%d re-replications=%d\n", info.Blocks, cluster.Stats().ReReplications)
	fmt.Println("delete:", fs.Delete("/cloud.bin", false))
	// Output:
	// blocks=3 re-replications=0
	// delete: <nil>
}
