//go:build !race

package namenode

import (
	"fmt"
	"testing"

	"hopsfscl/internal/sim"
)

// TestWarmOpAllocs pins what a warm operation allocates: on a namenode whose
// hint cache holds every directory of the path, a depth-3 operation keys its
// rows from the cache's entries, builds the key of any other row once for all
// its reads and writes of that row, takes its requests and chain from the
// operation's pooled scratch, stages its writes in the transaction's inline
// commit train and takes its row locks in the rows' inline holder slots,
// reuses the storage transaction the previous operation's InTx freed, and
// allocates only what it returns or stores. Excluded under -race, whose
// instrumentation allocates.
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
	flip := [2]string{"/a/b/f", "/a/b/g"}
	h.run(t, func(p *sim.Proc) {
		for _, dir := range []string{"/a", "/a/b", "/a/b/c"} {
			if err := nn.Mkdir(p, dir, 0o755); err != nil {
				t.Error(err)
				return
			}
		}
		for _, f := range []string{"/a/b/f", "/a/b/c/x", "/a/b/c/y"} {
			if _, err := nn.Create(p, f, 0); err != nil {
				t.Error(err)
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
			// The target file's row key.
			{"stat", 1, func(int) error { _, err := nn.Stat(p, "/a/b/f"); return err }},
			// The same: the share lock rides the batch and is held in the
			// transaction.
			{"getBlockLocations", 1, func(int) error { _, err := nn.GetBlockLocations(p, "/a/b/f"); return err }},
			// The rows the scan returns and the listing. The listed directory
			// is cached: no key is built.
			{"list", 2, func(int) error { _, err := nn.List(p, "/a/b/c"); return err }},
			// The file's row key — built for the resolve's read and reused
			// for the write — and the new inode value, which the edit makes
			// at the row's chain head.
			{"setPermission", 2, func(int) error { return nn.SetPermission(p, "/a/b/f", 0o600) }},
			// The new inode, its row key, and the row itself, stored under its
			// key when the insert's lock is taken.
			{"create", 3, func(i int) error { _, err := nn.Create(p, files[i], 0); return err }},
			// The same three for a directory.
			{"mkdir", 3, func(i int) error { return nn.Mkdir(p, dirs[i], 0o755) }},
			// The file's row key, built for the write; the deleted row leaves
			// its partition.
			{"delete", 1, func(i int) error { _, err := nn.Delete(p, files[i], false); return err }},
			// The source's row key (read in the resolve's batch, then locked
			// and written), the destination's row key, the moved inode, and the
			// destination's row.
			{"same-directory rename", 4, func(i int) error { return nn.Rename(p, flip[i%2], flip[(i+1)%2]) }},
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
