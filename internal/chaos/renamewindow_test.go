package chaos

import (
	"errors"
	"testing"
	"time"

	"hopsfscl/internal/core"
	"hopsfscl/internal/namenode"
	"hopsfscl/internal/ndb"
	"hopsfscl/internal/sim"
	"hopsfscl/internal/workload"
)

// TestCrossShardRenameWindow records what a reader observes between the two
// legs of a cross-shard rename. The legs commit in shard order, so a window
// opens when the first leg's row is applied and closes when the second's
// is. A lock-free stat is read committed: one issued inside the window, of
// the name the first leg changed, returns that leg's outcome while the other
// name still holds its old state — so the namespace a lock-free reader sees
// has the file under neither name when the source's shard commits first,
// and under both when the destination's does. A locked read (the read
// operation, share-locking its target) waits for the rename's row locks,
// which every leg holds until the last has committed, and finds the file
// under its new name only. DESIGN §5b records the window.
func TestCrossShardRenameWindow(t *testing.T) {
	for _, tc := range []struct {
		name               string
		srcShard, dstShard int
	}{
		{"source-leg-first", 0, 1},
		{"destination-leg-first", 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runRenameWindow(t, tc.srcShard, tc.dstShard)
		})
	}
}

// runRenameWindow renames /w/src/f to /w/dst/f with the two directories
// pinned to the given shards. At the instant storage shows the first leg
// applied and the second not, it starts, on another metadata server, a
// lock-free stat of the name the first leg changed and locked reads of both
// names, first-changed name first.
func runRenameWindow(t *testing.T, srcShard, dstShard int) {
	setup, _ := core.SetupByName("HopsFS-CL (3,3)")
	o := core.DefaultOptions(setup)
	o.MetadataServers = 2
	o.ClientsPerServer = 1
	o.StorageNodes = 6
	o.PartitionsPerTable = 8
	o.Namespace = workload.NamespaceSpec{TopDirs: 1, SubDirs: 1, FilesPerDir: 1}
	o.Seed = 1
	o.Shards = 2
	d, err := core.Build(o)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	nns := d.NS.NameNodes()
	const src, dst = "/w/src/f", "/w/dst/f"
	var srcKey, dstKey [2]string
	// stored reports whether a row is committed on a shard, read from
	// storage directly.
	stored := func(shard int, addr [2]string) bool {
		found := false
		d.MetaClusters()[shard].Table("inodes").ForEachCommitted(func(pk, k string, _ ndb.Value) {
			found = found || [2]string{pk, k} == addr
		})
		return found
	}
	// first names the path the first leg changes; inWindow reports that leg
	// applied and the other not.
	first, second := src, dst
	if dstShard < srcShard {
		first, second = dst, src
	}
	inWindow := func() bool {
		srcGone, dstThere := !stored(srcShard, srcKey), stored(dstShard, dstKey)
		if first == src {
			return srcGone && !dstThere
		}
		return dstThere && !srcGone
	}
	found := func(err error) bool {
		if err != nil && !errors.Is(err, namenode.ErrNotFound) {
			t.Errorf("reader: %v", err)
		}
		return err == nil
	}

	var (
		renameErr                   error
		renamed, statRan, lockedRan bool
		statFound, otherOld         bool
		lockedFirst, lockedSecond   bool
	)
	d.Env.Spawn("driver", func(p *sim.Proc) {
		for _, dir := range []string{"/w", "/w/src", "/w/dst"} {
			if err := nns[0].Mkdir(p, dir, 0o755); err != nil {
				t.Error(err)
				return
			}
		}
		ids := map[string]uint64{}
		for dir, s := range map[string]int{"/w/src": srcShard, "/w/dst": dstShard} {
			ino, err := nns[0].Stat(p, dir)
			if err == nil {
				ids[dir] = ino.ID
				err = d.NS.PinSubtree(ino.ID, s)
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
		srcKey, dstKey = inodeAddr(ids["/w/src"], "f"), inodeAddr(ids["/w/dst"], "f")
		if _, err := nns[0].Create(p, src, 0); err != nil {
			t.Error(err)
			return
		}
		// Warm the reader's hints so each read is one storage round.
		for _, path := range []string{src, "/w/dst"} {
			if _, err := nns[1].Stat(p, path); err != nil {
				t.Error(err)
				return
			}
		}
		d.Env.Spawn("watcher", func(p *sim.Proc) {
			for !renamed && !inWindow() {
				p.Sleep(10 * time.Microsecond)
			}
			if renamed {
				return
			}
			d.Env.Spawn("locked-reader", func(p *sim.Proc) {
				_, err1 := nns[1].GetBlockLocations(p, first)
				_, err2 := nns[1].GetBlockLocations(p, second)
				lockedFirst, lockedSecond = found(err1), found(err2)
				lockedRan = true
			})
			_, err := nns[1].Stat(p, first)
			statFound, otherOld, statRan = found(err), inWindow(), true
		})
		renameErr = nns[0].Rename(p, src, dst)
		renamed = true
	})
	d.Env.RunFor(10 * time.Second)
	if renameErr != nil || !renamed {
		t.Fatalf("rename: done %v, %v", renamed, renameErr)
	}
	if cross := d.Registry.Counter("shard.txn.cross").Value(); cross == 0 {
		t.Fatal("the rename did not commit across both shards: pinning is broken")
	}
	if !statRan || !lockedRan {
		t.Fatalf("the watcher never saw the window between the legs (stat ran %v, locked reads ran %v)", statRan, lockedRan)
	}
	// The first leg deleted the source (the file is gone from it) or put the
	// destination (the file is there).
	if want := first == dst; statFound != want {
		t.Errorf("lock-free stat of %s in the window: found %v, want the first leg's outcome (%v)", first, statFound, want)
	}
	if !otherOld {
		t.Errorf("the second leg had applied by the time the stat of %s returned: the test no longer observes the window", first)
	}
	if lockedFirst != (first == dst) || lockedSecond != (second == dst) {
		t.Errorf("locked reads in the window: %s found %v, %s found %v; want the file under %s only",
			first, lockedFirst, second, lockedSecond, dst)
	}
}
