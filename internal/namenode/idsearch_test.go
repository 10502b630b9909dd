package namenode

import (
	"fmt"
	"testing"

	"hopsfscl/internal/ndb"
	"hopsfscl/internal/shard"
	"hopsfscl/internal/sim"
	"hopsfscl/internal/simnet"
)

// TestIDSearchEnds: nextID's search ends for every shard count and partition
// count the deployments and tests use, on every shard and for every
// partition, within a small multiple of the partition count of draws — the
// draws are consecutive ids of the shard's residue, and their decimal forms
// hash over all partitions. Each id it returns names its row: its shard's
// residue, and children in the row's partition.
func TestIDSearchEnds(t *testing.T) {
	zones := []simnet.ZoneID{1, 2, 3}
	mgmt := []ndb.Placement{{Zone: 1, Host: 900}}
	for _, shards := range []int{1, 2, 4, 8} {
		for _, parts := range []int{4, 6, 8, 12, 24, 48} {
			env := sim.New(1)
			net := simnet.New(env, simnet.USWest1())
			clusters := make([]*ndb.Cluster, shards)
			for i := range clusters {
				cfg := ndb.DefaultConfig()
				cfg.DataNodes, cfg.Replication, cfg.PartitionsPerTable = 3, 3, parts
				db, err := ndb.New(env, net, cfg, ndb.SpreadPlacement(3, zones, 100*(i+1)), mgmt)
				if err != nil {
					t.Fatal(err)
				}
				clusters[i] = db
			}
			router, err := shard.NewRouter(clusters)
			if err != nil {
				t.Fatal(err)
			}
			ns := &Namesystem{router: router, inodes: router.NewTableSet("inodes", 256, ndb.TableOptions{}), idSeq: RootID}
			worst := uint64(0)
			for s := range shards {
				table := ns.inodes.At(s)
				for _, pk := range onePerPartition(table, parts) {
					for range 32 {
						seq := ns.idSeq
						id := ns.nextID(table, pk)
						worst = max(worst, ns.idSeq-seq)
						if id%uint64(shards) != uint64(s) || !table.SamePartition([]byte(partKey(id)), pk) {
							t.Fatalf("shards=%d parts=%d: id %d for row %q of shard %d names another place", shards, parts, id, pk, s)
						}
					}
				}
			}
			if worst > uint64(16*parts) {
				t.Errorf("shards=%d parts=%d: a search took %d draws, want at most %d", shards, parts, worst, 16*parts)
			}
			env.Close()
		}
	}
}

// onePerPartition returns a root child's partition key ("c:<name>") in each
// of table's parts partitions.
func onePerPartition(table *ndb.Table, parts int) []string {
	var out []string
	for i := 0; len(out) < parts; i++ {
		pk := partKeyOf(RootID, fmt.Sprint("d", i))
		fresh := true
		for _, o := range out {
			fresh = fresh && !table.SamePartition([]byte(pk), o)
		}
		if fresh {
			out = append(out, pk)
		}
	}
	return out
}
