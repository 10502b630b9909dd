package namenode_test

import (
	"fmt"
	"path"
	"testing"
	"time"

	"hopsfscl/internal/core"
	"hopsfscl/internal/namenode"
	"hopsfscl/internal/ndb"
	"hopsfscl/internal/sim"
	"hopsfscl/internal/workload"
)

// buildSharded builds HopsFS-CL (3,3) over the given number of shards with
// the benchmark namespace (depth 3: /topN/subM/file) seeded.
func buildSharded(t *testing.T, shards int) *core.Deployment {
	t.Helper()
	setup, _ := core.SetupByName("HopsFS-CL (3,3)")
	o := core.DefaultOptions(setup)
	o.MetadataServers = 3
	o.ClientsPerServer = 0
	o.Namespace = workload.DefaultNamespace()
	o.Seed = 1
	o.Shards = shards
	d, err := core.Build(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

// forEachInode visits every committed inode row, addressed by its partition
// key and row key, with the shard that stores it.
func forEachInode(d *core.Deployment, fn func(s int, pk, key string, ino *namenode.Inode)) {
	for s, db := range d.MetaClusters() {
		db.Table("inodes").ForEachCommitted(func(pk, key string, val ndb.Value) {
			fn(s, pk, key, val.(*namenode.Inode))
		})
	}
}

// shardOfRow returns the shard storing the inode row (pk, key), or -1.
func shardOfRow(d *core.Deployment, pk, key string) int {
	at := -1
	forEachInode(d, func(s int, p, k string, _ *namenode.Inode) {
		if p == pk && k == key {
			at = s
		}
	})
	return at
}

// TestInodeIDNamesItsRowShard checks the placement rule on the seeded
// benchmark namespace: every inode's id (the root's, fixed before any shard
// is chosen, aside) is congruent to the shard of its own row, and since the
// root's children scatter by name, each shard holds its fair share of the
// rows — 40–60 % at two shards.
func TestInodeIDNamesItsRowShard(t *testing.T) {
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			d := buildSharded(t, shards)
			rows := make([]int, shards)
			total := 0
			forEachInode(d, func(s int, pk, key string, ino *namenode.Inode) {
				rows[s]++
				total++
				if ino.ID != namenode.RootID && ino.ID%uint64(shards) != uint64(s) {
					t.Errorf("inode %d (row %s/%s) is stored on shard %d, but its id names shard %d",
						ino.ID, pk, key, s, ino.ID%uint64(shards))
				}
			})
			fair := float64(total) / float64(shards)
			for s, n := range rows {
				if share := float64(n) / fair; share < 0.8 || share > 1.2 {
					t.Errorf("shard %d holds %d of %d inode rows (%.1f%%), want within 20%% of a fair %.1f%%",
						s, n, total, 100*float64(n)/float64(total), 100/float64(shards))
				}
			}
		})
	}
}

// TestWarmOpStaysOnOneShard checks that a path below a top-level directory
// resolves, and commits, on one shard: a warm stat, create and list each
// begin exactly one storage transaction summed over all clusters, and the
// router counts it as shard-local.
func TestWarmOpStaysOnOneShard(t *testing.T) {
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			d := buildSharded(t, shards)
			nn := d.NS.NameNodes()[0]
			file := d.Namespace.AllFiles()[0]
			dir := path.Dir(file)
			begun := func() (n int64) {
				for _, db := range d.MetaClusters() {
					n += db.Stats.Begun
				}
				return n
			}
			local := d.Registry.Counter("shard.txn.local")
			done := false
			d.Env.Spawn("probe", func(p *sim.Proc) {
				// Start between election rounds, whose transactions would
				// count too, and warm the hint cache.
				p.Sleep(d.NS.Config().ElectionRound / 2)
				if _, err := nn.Stat(p, file); err != nil {
					t.Error(err)
					return
				}
				for _, op := range []struct {
					name string
					run  func() error
				}{
					{"stat " + file, func() error { _, err := nn.Stat(p, file); return err }},
					{"create " + dir + "/fresh", func() error { _, err := nn.Create(p, dir+"/fresh", 0); return err }},
					{"list " + dir, func() error { _, err := nn.List(p, dir); return err }},
				} {
					b0, l0 := begun(), local.Value()
					if err := op.run(); err != nil {
						t.Errorf("%s: %v", op.name, err)
						continue
					}
					if n := begun() - b0; n != 1 {
						t.Errorf("%s began %d storage transactions, want 1", op.name, n)
					}
					if n := local.Value() - l0; n != 1 {
						t.Errorf("%s counted %d shard-local commits, want 1", op.name, n)
					}
				}
				done = true
			})
			d.Env.RunFor(time.Minute)
			if !done {
				t.Fatal("probe did not finish")
			}
		})
	}
}

// TestPinnedSubtreeFollowsWithoutPin checks subtree pinning under id
// routing: a directory made under a pinned directory gets an id on the
// pinned shard, so its own children land there too with no pin of its own.
func TestPinnedSubtreeFollowsWithoutPin(t *testing.T) {
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			d := buildSharded(t, shards)
			nn := d.NS.NameNodes()[0]
			var top, sub *namenode.Inode
			var pinned int
			done := false
			d.Env.Spawn("pinner", func(p *sim.Proc) {
				if _, err := nn.Mkdir(p, "/pinned", 0o755); err != nil {
					t.Error(err)
					return
				}
				var err error
				if top, err = nn.Stat(p, "/pinned"); err != nil {
					t.Error(err)
					return
				}
				pinned = int(top.ID+1) % shards
				if err := d.NS.PinSubtree(top.ID, pinned); err != nil {
					t.Error(err)
					return
				}
				if _, err := nn.Mkdir(p, "/pinned/d", 0o755); err != nil {
					t.Error(err)
					return
				}
				if sub, err = nn.Stat(p, "/pinned/d"); err != nil {
					t.Error(err)
					return
				}
				if _, err := nn.Create(p, "/pinned/d/f", 0); err != nil {
					t.Error(err)
					return
				}
				done = true
			})
			d.Env.RunFor(time.Minute)
			if !done {
				t.Fatal("pinner did not finish")
			}
			if s := shardOfRow(d, fmt.Sprint(top.ID), "d"); s != pinned {
				t.Errorf("/pinned/d is stored on shard %d, want the pinned %d", s, pinned)
			}
			if s := int(sub.ID % uint64(shards)); s != pinned {
				t.Errorf("/pinned/d has id %d, naming shard %d, want the pinned %d", sub.ID, s, pinned)
			}
			if s := shardOfRow(d, fmt.Sprint(sub.ID), "f"); s != pinned {
				t.Errorf("/pinned/d/f is stored on shard %d, want the pinned %d", s, pinned)
			}
		})
	}
}
