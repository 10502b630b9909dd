package namenode_test

import (
	"errors"
	"slices"
	"testing"
	"time"

	"hopsfscl/internal/blocks"
	"hopsfscl/internal/core"
	"hopsfscl/internal/namenode"
	"hopsfscl/internal/ndb"
	"hopsfscl/internal/sim"
)

// TestWriteLandsOnItsFile races a 3 MiB write of /d/f with a second client
// that, once the writer's create has committed and while its blocks stream,
// deletes /d/f and puts something else under the name. The write's blocks
// land on the file it created, or the write fails: its attach answers
// ErrNotFound, the name's new occupant keeps what it had — a directory no
// size and no blocks, a file its own block list — and the block layer
// holds none of the writer's blocks.
func TestWriteLandsOnItsFile(t *testing.T) {
	for _, tc := range []struct {
		name  string
		taker func(p *sim.Proc, cl *namenode.Client) error
	}{
		{"a directory takes the name", func(p *sim.Proc, cl *namenode.Client) error { return cl.Mkdir(p, "/d/f") }},
		{"a file takes the name", func(p *sim.Proc, cl *namenode.Client) error { return cl.WriteFile(p, "/d/f", 1<<20) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := historyDeployment(t, 1, 1)
			writer, other := d.NS.NewClient(1, 9001, 1), d.NS.NewClient(2, 9002, 2)
			var writeErr error
			wrote, took := false, false
			d.Env.Spawn("setup", func(p *sim.Proc) {
				if err := writer.Mkdir(p, "/d"); err != nil {
					t.Error(err)
					return
				}
				d.Env.Spawn("writer", func(p *sim.Proc) {
					writeErr, wrote = writer.WriteFile(p, "/d/f", 3<<20), true
				})
				d.Env.Spawn("other", func(p *sim.Proc) {
					for {
						if _, err := other.Stat(p, "/d/f"); err == nil {
							break
						}
						p.Sleep(50 * time.Microsecond)
					}
					if err := other.Delete(p, "/d/f", false); err != nil {
						t.Error(err)
						return
					}
					if err := tc.taker(p, other); err != nil {
						t.Error(err)
						return
					}
					took = !wrote
				})
			})
			d.Env.RunFor(time.Minute)
			if !wrote || !took {
				t.Fatalf("the write finished %v, and the name was taken while it ran %v: the test no longer races them", wrote, took)
			}
			if !errors.Is(writeErr, namenode.ErrNotFound) {
				t.Errorf("the write answered %v, want ErrNotFound", writeErr)
			}
			var taken *namenode.Inode
			d.Env.Spawn("check", func(p *sim.Proc) { taken, _ = other.Stat(p, "/d/f") })
			d.Env.RunFor(time.Second)
			if taken == nil {
				t.Fatal("the name's occupant is gone")
			}
			var held []blocks.BlockID
			for _, b := range d.Blocks.Blocks() {
				held = append(held, b.ID)
			}
			slices.Sort(held)
			if want := slices.Sorted(slices.Values(taken.Blocks)); !slices.Equal(held, want) {
				t.Errorf("the block layer holds %v, want the occupant's %v", held, want)
			}
			if taken.Dir && (taken.Size != 0 || len(taken.Blocks) != 0) || !taken.Dir && (taken.Size != 1<<20 || len(taken.Blocks) != 1) {
				t.Errorf("the name's occupant is %+v: the writer's blocks landed on it", taken)
			}
		})
	}
}

// TestIndeterminateAttachKeepsItsBlocks writes a 3 MiB file and fails the
// datanode holding its inode row's primary replica while the attach's Commit
// pass is on the wire: the primary applies the attach at the commit point,
// and its Committed answer to the TC is lost with it. The write answers
// ndb.ErrIndeterminate, the inode lists its blocks, and the block layer
// still holds every one of them: an attach that may have applied leaves its
// blocks to orphan reclamation instead of freeing them.
//
// A first run finds the microsecond tick of a poller at which the attach is
// committed; a second, identical up to the fault, fails the primary three
// ticks earlier, inside the Commit pass.
func TestIndeterminateAttachKeepsItsBlocks(t *testing.T) {
	// run writes /f with a poller that ticks every microsecond and fails the
	// inode row's primary at tick failAt (never when negative). It returns
	// the tick at which the committed inode first lists blocks, or -1.
	run := func(failAt int) (d *core.Deployment, writeErr error, seen int) {
		d = historyDeployment(t, 1, 1)
		inodes := d.MetaClusters()[0].Table("inodes")
		cl := d.NS.NewClient(1, 9001, 1)
		wrote := false
		d.Env.Spawn("writer", func(p *sim.Proc) {
			writeErr, wrote = cl.WriteFile(p, "/f", 3<<20), true
		})
		seen = -1
		d.Env.Spawn("poller", func(p *sim.Proc) {
			for tick := 0; !wrote; tick++ {
				pk, attached := "", false
				inodes.ForEachCommitted(func(partKey, _ string, val ndb.Value) {
					if ino := val.(*namenode.Inode); ino.Name == "f" {
						pk, attached = partKey, len(ino.Blocks) > 0
					}
				})
				if attached && seen < 0 {
					seen = tick
				}
				if tick == failAt {
					inodes.PrimaryFor(pk).Node.Fail()
				}
				p.Sleep(time.Microsecond)
			}
		})
		d.Env.RunFor(time.Minute)
		if !wrote {
			t.Fatal("the write did not finish")
		}
		return d, writeErr, seen
	}
	_, err, seen := run(-1)
	if err != nil || seen < 3 {
		t.Fatalf("the fault-free write answered %v, its attach seen at tick %d", err, seen)
	}
	d, err, _ := run(seen - 3)
	if !errors.Is(err, ndb.ErrIndeterminate) {
		t.Fatalf("the write answered %v, want ErrIndeterminate: the fault missed the Commit pass", err)
	}
	var listed []blocks.BlockID
	d.MetaClusters()[0].Table("inodes").ForEachCommitted(func(_, _ string, val ndb.Value) {
		if ino := val.(*namenode.Inode); ino.Name == "f" {
			listed = ino.Blocks
		}
	})
	if len(listed) == 0 {
		t.Fatal("the inode lists no blocks: the attach did not apply")
	}
	held := map[blocks.BlockID]bool{}
	for _, b := range d.Blocks.Blocks() {
		held[b.ID] = true
	}
	for _, id := range listed {
		if !held[id] {
			t.Errorf("the inode lists block %d, which the block layer no longer holds", id)
		}
	}
}
