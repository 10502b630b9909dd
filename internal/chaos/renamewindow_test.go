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

// TestCrossShardRenameWindow checks what a reader observes between the two
// legs of a cross-shard rename. The legs commit in shard order, each
// holding its locks, so there is an instant when storage holds the first
// leg applied and the second not. A held row shows its pre-image to every
// lock-free read until the writers release, so the rename appears at one
// instant: a stat or a read of either name issued then, each taking no
// lock, finds the file under exactly one name, its old one, in both leg
// orders.
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
// applied and the second not, it starts, on another metadata server, a stat
// and a read of each name, concurrently.
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
	// inWindow reports the first leg applied and the other not.
	inWindow := func() bool {
		srcGone, dstThere := !stored(srcShard, srcKey), stored(dstShard, dstKey)
		if srcShard < dstShard {
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

	type reader struct {
		read  bool // GetBlockLocations, else Stat
		path  string
		ran   bool
		found bool
		// inFlight is that the second leg had not applied when it returned.
		inFlight bool
	}
	readers := []*reader{{path: src}, {path: dst}, {read: true, path: src}, {read: true, path: dst}}
	var renameErr error
	renamed := false
	d.Env.Spawn("driver", func(p *sim.Proc) {
		for _, dir := range []string{"/w", "/w/src", "/w/dst"} {
			if _, err := nns[0].Mkdir(p, dir, 0o755); err != nil {
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
			for _, r := range readers {
				d.Env.Spawn("reader", func(p *sim.Proc) {
					var err error
					if r.read {
						_, err = nns[1].GetBlockLocations(p, r.path)
					} else {
						_, err = nns[1].Stat(p, r.path)
					}
					r.ran, r.found, r.inFlight = true, found(err), inWindow()
				})
			}
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
	for _, r := range readers {
		op := map[bool]string{false: "stat", true: "read"}[r.read]
		switch {
		case !r.ran:
			t.Errorf("%s of %s never ran: the watcher never saw the window between the legs", op, r.path)
		case !r.inFlight:
			t.Errorf("the second leg had applied by the time the %s of %s returned: the test no longer observes the window", op, r.path)
		case r.found != (r.path == src):
			t.Errorf("%s of %s while the legs were in flight: found %v; want the file under its old name %s only", op, r.path, r.found, src)
		}
	}
}
