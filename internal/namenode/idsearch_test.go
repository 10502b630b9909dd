package namenode

import (
	"fmt"
	"hash/fnv"
	"strconv"
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
	for _, shards := range []int{1, 2, 4, 8} {
		for _, parts := range []int{4, 6, 8, 12, 24, 48} {
			ns := idSearchNamesystem(t, shards, parts)
			worst := uint64(0)
			for s := range shards {
				table := ns.inodes.At(s)
				for _, pk := range onePerPartition(table, parts) {
					for range 32 {
						seq := ns.idSeq
						id := ns.nextID(table, pk)
						worst = max(worst, ns.idSeq-seq)
						if id%uint64(shards) != uint64(s) || table.PartitionOf([]byte(partKey(id))) != table.PartitionOf([]byte(pk)) {
							t.Fatalf("shards=%d parts=%d: id %d for row %q of shard %d names another place", shards, parts, id, pk, s)
						}
					}
				}
			}
			if worst > uint64(16*parts) {
				t.Errorf("shards=%d parts=%d: a search took %d draws, want at most %d", shards, parts, worst, 16*parts)
			}
		}
	}
}

// TestNextIDHashesOnlyTheDraw: nextID, which finds pk's partition once and
// hashes only each drawn id, returns the ids of the rule it replaced, which
// compared the two keys' hashes on every draw — 10,000 ids over rows of
// every partition and of two shards, bit for bit.
func TestNextIDHashesOnlyTheDraw(t *testing.T) {
	const shards, parts = 2, 48
	ns, old := idSearchNamesystem(t, shards, parts), idSearchNamesystem(t, shards, parts)
	hash := func(key string) uint32 {
		h := fnv.New32a()
		_, _ = h.Write([]byte(key))
		return h.Sum32() % parts
	}
	// oldID is the per-draw rule: both keys hashed on every draw.
	oldID := func(s int, pk string) uint64 {
		for {
			old.idSeq++
			if id := old.idSeq*shards + uint64(s); hash(strconv.FormatUint(id, 10)) == hash(pk) {
				return id
			}
		}
	}
	var pks [shards][]string
	for s := range shards {
		pks[s] = append(onePerPartition(ns.inodes.At(s), parts), "1", "123", "98765")
	}
	for i := range 10000 {
		s := i % shards
		pk := pks[s][i/shards%len(pks[s])]
		if got, want := ns.nextID(ns.inodes.At(s), pk), oldID(s, pk); got != want {
			t.Fatalf("draw %d (row %q of shard %d): id %d, the per-draw rule gives %d", i, pk, s, got, want)
		}
	}
}

// BenchmarkNextID draws ids for rows of every partition of a one-shard
// table of 48 partitions, the benchmark deployments' count.
func BenchmarkNextID(b *testing.B) {
	const parts = 48
	ns := idSearchNamesystem(b, 1, parts)
	table := ns.inodes.At(0)
	pks := onePerPartition(table, parts)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		ns.nextID(table, pks[i%parts])
	}
}

// idSearchNamesystem returns a namesystem with only what nextID reads: a
// router over shards clusters of parts partitions per table, and the inodes
// table set.
func idSearchNamesystem(tb testing.TB, shards, parts int) *Namesystem {
	zones := []simnet.ZoneID{1, 2, 3}
	mgmt := []ndb.Placement{{Zone: 1, Host: 900}}
	env := sim.New(1)
	tb.Cleanup(env.Close)
	net := simnet.New(env, simnet.USWest1())
	clusters := make([]*ndb.Cluster, shards)
	for i := range clusters {
		cfg := ndb.DefaultConfig()
		cfg.DataNodes, cfg.Replication, cfg.PartitionsPerTable = 3, 3, parts
		db, err := ndb.New(env, net, cfg, ndb.SpreadPlacement(3, zones, 100*(i+1)), mgmt)
		if err != nil {
			tb.Fatal(err)
		}
		clusters[i] = db
	}
	router, err := shard.NewRouter(clusters)
	if err != nil {
		tb.Fatal(err)
	}
	return &Namesystem{router: router, inodes: router.NewTableSet("inodes", 256, ndb.TableOptions{}), idSeq: RootID}
}

// onePerPartition returns a root child's partition key ("c:<name>") in each
// of table's parts partitions.
func onePerPartition(table *ndb.Table, parts int) []string {
	var out []string
	for i := 0; len(out) < parts; i++ {
		pk := partKeyOf(RootID, fmt.Sprint("d", i))
		fresh := true
		for _, o := range out {
			fresh = fresh && table.PartitionOf([]byte(pk)) != table.PartitionOf([]byte(o))
		}
		if fresh {
			out = append(out, pk)
		}
	}
	return out
}
