//go:build !race

package namenode

import (
	"fmt"
	"testing"

	"hopsfscl/internal/sim"
)

// TestWarmOpAllocs pins what a warm operation allocates: on a namenode whose
// hint cache holds every directory of the path, a depth-3 operation addresses
// each row by its parent's cached children partition and its own name, a
// substring of the operation's path, so it builds no key; it takes its
// requests and chain from the operation's pooled scratch, stages its writes
// in the transaction's inline commit trains, takes its row locks in the
// rows' inline holder slots and a new row from the rows deletes freed,
// reuses the storage transaction the previous operation's InTx freed, and
// returns a listing as a window of its directory's snapshot: it allocates
// only the values it commits. Excluded under -race, whose instrumentation
// allocates.
func TestWarmOpAllocs(t *testing.T) {
	h := newHarness(t)
	h.db.StopBackground()
	nn := h.ns.NameNodes()[0]
	// One fresh name per run of a create, mkdir or delete (AllocsPerRun adds
	// a warm-up run), built before measuring; a rename flips a file between
	// two names.
	const runs = 50
	paths := func(format string) []string {
		out := make([]string, runs+1)
		for i := range out {
			out[i] = fmt.Sprintf(format, i)
		}
		return out
	}
	files, dirs := paths("/a/b/c/n%d"), paths("/a/b/d%d")
	spares := append(paths("/a/b/c/s%d"), paths("/a/b/c/t%d")...)
	flip := [2]string{"/a/b/f", "/a/b/g"}
	h.run(t, func(p *sim.Proc) {
		must := func(err error) bool {
			if err != nil {
				t.Error(err)
			}
			return err == nil
		}
		for _, dir := range []string{"/a", "/a/b", "/a/b/c", "/x", "/x/b"} {
			if _, err := nn.Mkdir(p, dir, 0o755); !must(err) {
				return
			}
		}
		for _, f := range []string{"/a/b/f", "/a/b/c/x", "/a/b/c/y", "/a/b/h"} {
			if _, err := nn.Create(p, f, 0); !must(err) {
				return
			}
		}
		// A cross-directory rename moves /a/b/h between /a/b and /x/b,
		// whose children live on different node groups — a subtree lives in
		// its top-level directory's partition — so its two rows stage two
		// commit trains.
		group := func(dir string) int {
			ino, err := nn.Stat(p, dir)
			if !must(err) {
				return -1
			}
			pk := partKey(ino.ID)
			return h.ns.inodes.For(pk).PrimaryFor(pk).Group
		}
		if group("/a/b") == group("/x/b") {
			t.Error("/a/b and /x/b keep their children on one node group")
			return
		}
		cross := [2]string{"/a/b/h", "/x/b/h"}
		// Deleted files leave their rows for the creates and mkdirs to take.
		for _, f := range spares {
			if _, err := nn.Create(p, f, 0); !must(err) {
				return
			}
		}
		for _, f := range spares {
			if _, err := nn.Delete(p, f, false); !must(err) {
				return
			}
		}
		// The election loops allocate on their rounds: stop them, and let
		// the last round end before measuring.
		h.ns.StopBackground()
		p.Sleep(2 * h.ns.cfg.ElectionRound)
		for _, op := range []struct {
			name string
			// want is what the operation keeps, one allocation each.
			want float64
			run  func(i int) error
		}{
			// Nothing: the resolve's batch is keyed from the cache and the
			// chain is carved from the scratch.
			{"stat", 0, func(int) error { _, err := nn.Stat(p, "/a/b/f"); return err }},
			// The same: the share lock rides the batch and is held in the
			// transaction.
			{"getBlockLocations", 0, func(int) error { _, err := nn.GetBlockLocations(p, "/a/b/f"); return err }},
			// Nothing: the listing is the directory bucket's key-sorted
			// snapshot, whole.
			{"list", 0, func(int) error { _, err := nn.List(p, "/a/b/c"); return err }},
			// The new inode value, which the edit makes at the row's chain
			// head.
			{"setPermission", 1, func(int) error { return nn.SetPermission(p, "/a/b/f", 0o600) }},
			// The new inode: its row is one a delete freed.
			{"create", 1, func(i int) error { _, err := nn.Create(p, files[i], 0); return err }},
			// The same for a directory.
			{"mkdir", 1, func(i int) error { _, err := nn.Mkdir(p, dirs[i], 0o755); return err }},
			// Nothing: the deleted row goes back to the free rows.
			{"delete", 0, func(i int) error { _, err := nn.Delete(p, files[i], false); return err }},
			// The moved inode: the destination's row is the one the
			// previous flip's source freed.
			{"same-directory rename", 1, func(i int) error { return nn.Rename(p, flip[i%2], flip[(i+1)%2]) }},
			// The same, across two commit trains, both inline.
			{"cross-directory rename", 1, func(i int) error { return nn.Rename(p, cross[i%2], cross[(i+1)%2]) }},
		} {
			var err error
			i := 0
			allocs := testing.AllocsPerRun(runs, func() {
				if e := op.run(i); e != nil {
					err = e
				}
				i++
			})
			if err != nil {
				t.Errorf("%s: %v", op.name, err)
				continue
			}
			if allocs != op.want {
				t.Errorf("warm %s: %.2f allocations per call, want %.0f", op.name, allocs, op.want)
			}
		}
	})
}

// TestWarmClientOpAllocs: a client with no history attached adds no
// allocation to the operation it sends, so a warm client stat, list and
// setPermission allocate what TestWarmOpAllocs pins for the namenode's own:
// the listing comes back by value, a window no one copies.
func TestWarmClientOpAllocs(t *testing.T) {
	h := newHarness(t)
	h.db.StopBackground()
	cl := h.client(1)
	h.run(t, func(p *sim.Proc) {
		for _, dir := range []string{"/a", "/a/b"} {
			if err := cl.Mkdir(p, dir); err != nil {
				t.Error(err)
				return
			}
		}
		if err := cl.Create(p, "/a/b/f", 0); err != nil {
			t.Error(err)
			return
		}
		h.ns.StopBackground()
		p.Sleep(2 * h.ns.cfg.ElectionRound)
		for _, op := range []struct {
			name string
			want float64
			run  func() error
		}{
			{"stat", 0, func() error { _, err := cl.Stat(p, "/a/b/f"); return err }},
			{"list", 0, func() error { _, err := cl.List(p, "/a/b"); return err }},
			{"setPermission", 1, func() error { return cl.SetPermission(p, "/a/b/f", 0o600) }},
		} {
			var err error
			allocs := testing.AllocsPerRun(50, func() {
				if e := op.run(); e != nil {
					err = e
				}
			})
			if err != nil {
				t.Errorf("%s: %v", op.name, err)
				continue
			}
			if allocs != op.want {
				t.Errorf("warm client %s: %.2f allocations per call, want %.0f", op.name, allocs, op.want)
			}
		}
	})
}
