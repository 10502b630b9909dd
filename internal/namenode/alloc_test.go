//go:build !race

package namenode

import (
	"testing"

	"hopsfscl/internal/sim"
)

// TestWarmOpAllocs pins what a warm operation allocates: on a namenode whose
// hint cache holds every directory of the path, a depth-3 operation keys its
// rows from the cache's entries, takes its requests and chain from the
// operation's pooled scratch, and allocates only what it keeps — the storage
// transaction, and what it returns or stores. Excluded under -race, whose
// instrumentation allocates.
func TestWarmOpAllocs(t *testing.T) {
	h := newHarness(t)
	h.db.StopBackground()
	nn := h.ns.NameNodes()[0]
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
			run  func() error
		}{
			// The transaction and the target file's row key.
			{"stat", 2, func() error { _, err := nn.Stat(p, "/a/b/f"); return err }},
			// The same: the share lock rides the batch and is held in the
			// transaction.
			{"getBlockLocations", 2, func() error { _, err := nn.GetBlockLocations(p, "/a/b/f"); return err }},
			// The transaction, the rows the scan returns, and the listing. The
			// listed directory is cached: no key is built.
			{"list", 3, func() error { _, err := nn.List(p, "/a/b/c"); return err }},
			// The transaction, the file's row key — built for the locked read
			// and again for the write —, the new inode value, and its write's
			// commit train with its row list and the transaction's train list.
			{"setPermission", 7, func() error { return nn.SetPermission(p, "/a/b/f", 0o600) }},
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
				t.Errorf("warm %s: %.2f allocations per call, want %.0f", op.name, allocs, op.want)
			}
		}
	})
}
