package namenode_test

import (
	"fmt"
	"path"
	"strconv"
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
					{"list " + dir, func() error { _, err := nn.List(p, dir, namenode.Listing{}); return err }},
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

// inodesByID indexes every committed inode by id, and each row's shard and
// partition key by the inode's id.
func inodesByID(d *core.Deployment) (map[uint64]*namenode.Inode, map[uint64]rowAt) {
	byID, at := map[uint64]*namenode.Inode{}, map[uint64]rowAt{}
	forEachInode(d, func(s int, pk, _ string, ino *namenode.Inode) {
		byID[ino.ID], at[ino.ID] = ino, rowAt{s, pk}
	})
	return byID, at
}

// rowAt is where a row is stored: its shard and partition key.
type rowAt struct {
	shard int
	pk    string
}

// topOf returns the top-level directory above (or at) ino.
func topOf(byID map[uint64]*namenode.Inode, ino *namenode.Inode) *namenode.Inode {
	for ino.Parent != namenode.RootID {
		ino = byID[ino.Parent]
	}
	return ino
}

// TestSubtreeLivesInItsTopPartition checks the placement rule one level
// below the shard: an inode's id names its own row's partition, so every row
// under a top-level directory — seeded inode rows, a created file and
// directory, inline payloads, a quota'd directory's quota rows — is stored in
// the partition, and on the shard, of that directory's own row.
func TestSubtreeLivesInItsTopPartition(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			d := buildSharded(t, shards)
			nn := d.NS.NameNodes()[0]
			top := path.Dir(path.Dir(d.Namespace.AllFiles()[0]))
			done := false
			d.Env.Spawn("writer", func(p *sim.Proc) {
				for _, step := range []func() error{
					func() error { _, err := nn.Mkdir(p, top+"/new", 0o755); return err },
					func() error { _, err := nn.Mkdir(p, top+"/new/q", 0o755); return err },
					func() error { return nn.SetQuota(p, top+"/new/q", 100, 1<<20) },
					func() error { _, err := nn.Create(p, top+"/new/q/f", 0); return err },
					func() error { _, err := nn.Create(p, top+"/new/q/inline", 10); return err },
					func() error { _, err := nn.Create(p, top+"/new/small", 10); return err },
				} {
					if err := step(); err != nil {
						t.Error(err)
						return
					}
				}
				done = true
			})
			d.Env.RunFor(time.Minute)
			if !done {
				t.Fatal("writer did not finish")
			}
			byID, at := inodesByID(d)
			// check holds a row of table, keyed by the inode owner's id or
			// under it, to its top-level directory's row's place.
			counts := map[string]int{}
			check := func(table string, s int, pk string, owner *namenode.Inode) {
				counts[table]++
				home := topOf(byID, owner)
				want := at[home.ID]
				tab := d.MetaClusters()[s].Table(table)
				if s != want.shard || tab.PartitionOf([]byte(pk)) != tab.PartitionOf([]byte(want.pk)) {
					t.Errorf("%s row %s (inode %d %q) is on shard %d, not in the partition of %q on shard %d",
						table, pk, owner.ID, owner.Name, s, want.pk, want.shard)
				}
			}
			for id, ino := range byID {
				if id != namenode.RootID {
					check("inodes", at[id].shard, at[id].pk, ino)
				}
			}
			for s, db := range d.MetaClusters() {
				for _, table := range []string{"smallfiles", "quotas"} {
					db.Table(table).ForEachCommitted(func(pk, _ string, _ ndb.Value) {
						id, err := strconv.ParseUint(pk, 10, 64)
						if owner := byID[id]; err != nil || owner == nil {
							t.Errorf("%s row %s keys no inode", table, pk)
						} else {
							check(table, s, pk, owner)
						}
					})
				}
			}
			if counts["smallfiles"] < 2 || counts["quotas"] < 2 || counts["inodes"] < len(d.Namespace.AllFiles()) {
				t.Errorf("checked %v rows: the inline payloads, quota rows or seeded inodes are missing", counts)
			}
		})
	}
}

// TestRenamedDirectoryKeepsItsPartition: a directory renamed under another
// top-level directory keeps its id, so its subtree stays in its old
// partition — its own row moves, its children's rows do not — and every path
// through it still resolves, on a warm namenode and on a cold one, and a
// file created under it joins its old partition.
func TestRenamedDirectoryKeepsItsPartition(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			d := buildSharded(t, shards)
			byID, at := inodesByID(d)
			// Two top-level directories on one shard, in different
			// partitions.
			tops := map[string]*namenode.Inode{}
			for _, ino := range byID {
				if ino.Parent == namenode.RootID {
					tops[ino.Name] = ino
				}
			}
			file := d.Namespace.AllFiles()[0]
			sub := path.Dir(file)
			a := tops[path.Base(path.Dir(sub))]
			inodes := d.MetaClusters()[at[a.ID].shard].Table("inodes")
			var b *namenode.Inode
			for _, ino := range tops {
				if at[ino.ID].shard == at[a.ID].shard && inodes.PartitionOf([]byte(at[ino.ID].pk)) != inodes.PartitionOf([]byte(at[a.ID].pk)) &&
					(b == nil || ino.Name < b.Name) {
					b = ino
				}
			}
			if b == nil {
				t.Fatal("no two top-level directories on one shard in different partitions")
			}
			moved := "/" + b.Name + "/moved"
			warm, cold := d.NS.NameNodes()[0], d.NS.NameNodes()[1]
			var dir, fresh *namenode.Inode
			done := false
			d.Env.Spawn("renamer", func(p *sim.Proc) {
				before, err := warm.Stat(p, sub)
				if err == nil {
					err = warm.Rename(p, sub, moved)
				}
				if err == nil {
					fresh, err = warm.Create(p, moved+"/fresh", 0)
				}
				if err != nil {
					t.Error(err)
					return
				}
				for _, nn := range []*namenode.NameNode{warm, cold} {
					got, err := nn.Stat(p, moved)
					if err != nil || got.ID != before.ID {
						t.Errorf("nn %d: stat %s: %+v, %v; want inode %d", nn.ID, moved, got, err, before.ID)
						return
					}
					dir = got
					if f, err := nn.Stat(p, moved+"/"+path.Base(file)); err != nil || f.Parent != before.ID {
						t.Errorf("nn %d: stat through the renamed directory: %+v, %v", nn.ID, f, err)
					}
					if l, err := nn.List(p, moved, namenode.Listing{}); err != nil || l.Len() < 2 {
						t.Errorf("nn %d: list %s: %d entries, %v", nn.ID, moved, l.Len(), err)
					}
				}
				done = true
			})
			d.Env.RunFor(time.Minute)
			if !done {
				t.Fatal("renamer did not finish")
			}
			byID, at = inodesByID(d)
			if inodes.PartitionOf([]byte(at[dir.ID].pk)) != inodes.PartitionOf([]byte(at[b.ID].pk)) {
				t.Errorf("the renamed directory's own row %s is not in /%s's partition", at[dir.ID].pk, b.Name)
			}
			children := 0
			for id, ino := range byID {
				if ino.Parent != dir.ID {
					continue
				}
				children++
				if at[id].shard != at[a.ID].shard || inodes.PartitionOf([]byte(at[id].pk)) != inodes.PartitionOf([]byte(at[a.ID].pk)) {
					t.Errorf("%s under the renamed directory left /%s's partition", ino.Name, a.Name)
				}
			}
			if byID[fresh.ID] == nil || children < 2 {
				t.Errorf("the renamed directory holds %d rows; the fresh file is %v", children, byID[fresh.ID])
			}
		})
	}
}
