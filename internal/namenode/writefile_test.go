package namenode_test

import (
	"errors"
	"slices"
	"testing"
	"time"

	"hopsfscl/internal/blocks"
	"hopsfscl/internal/namenode"
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
