//go:build !race

package ndb

import (
	"fmt"
	"testing"

	"hopsfscl/internal/sim"
)

// TestBatchAllocFree pins the steady-state allocations of the one read and
// write path, which every one-row operation takes: on a warm transaction a
// one-row get, a locked get, a scan and a one-row write allocate only the
// rows they return — the arm, the result slot and the request copy are all
// pooled or held by the transaction. A whole fresh transaction that
// overwrites one existing row — Begin, the write, Commit — allocates only the
// Txn: its commit train and row sit in the Txn, and the row's lock holder in
// the row. Excluded under -race, whose instrumentation allocates.
func TestBatchAllocFree(t *testing.T) {
	env, c, client := testCluster(t, true, 3)
	c.StopBackground()
	tbl := c.CreateTable("inodes", 256, TableOptions{ReadBackup: true})
	inTxn(t, env, c, client, 1, tbl, "p", func(p *sim.Proc, tx *Txn) error {
		// p/c is the fresh transactions' row: the warm one locks p/a.
		if err := tx.WriteBatch([]BatchWrite{{Table: tbl, PartKey: "p", Key: "p/a", Val: "v"}, {Table: tbl, PartKey: "p", Key: "p/c", Val: "v"}}); err != nil {
			return err
		}
		return tx.Commit()
	})
	get := []BatchGet{{Table: tbl, PartKey: "p", Key: "p/a"}}
	locked := []BatchGet{{Table: tbl, PartKey: "p", Key: "p/a", Lock: LockShared}}
	scan := []BatchScan{{Table: tbl, PartKey: "p", Prefix: "p/"}}
	write := []BatchWrite{{Table: tbl, PartKey: "p", Key: "p/b", Val: "w"}}
	overwrite := []BatchWrite{{Table: tbl, PartKey: "p", Key: "p/c", Val: "v2"}}
	inTxn(t, env, c, client, 1, tbl, "p", func(p *sim.Proc, tx *Txn) error {
		for _, op := range []struct {
			name string
			// want is what the operation keeps: a scan's rows, which grow
			// the transaction's scan storage, a fresh transaction's Txn.
			want float64
			run  func() error
		}{
			{"one-row get", 0, func() error { _, err := tx.ReadBatch(get); return err }},
			{"one-row locked get", 0, func() error { _, err := tx.ReadBatch(locked); return err }},
			{"one-row scan", 1, func() error { _, err := tx.ScanBatch(scan); return err }},
			{"one-row write", 0, func() error { return tx.WriteBatch(write) }},
			{"fresh one-row overwrite transaction", 1, func() error {
				fresh, err := c.Begin(p, client, 1, tbl, "p")
				if err != nil {
					return err
				}
				if err := fresh.WriteBatch(overwrite); err != nil {
					return err
				}
				return fresh.Commit()
			}},
		} {
			var err error
			allocs := testing.AllocsPerRun(100, func() {
				if e := op.run(); e != nil {
					err = e
				}
			})
			if err != nil {
				return err
			}
			if allocs > op.want {
				t.Errorf("%s: %.0f allocations per call, want %.0f", op.name, allocs, op.want)
			}
		}
		return tx.Commit()
	})
}

// TestChainOrderAllocFree: chainOf memoizes every chain it returns per
// topology epoch — the chain in replica order and each middle TC's reordered
// one — so once warm it allocates nothing for any TC, of an RF-3 chain or of
// a fully replicated table's, and a warm one-row write allocates nothing
// whichever replica coordinates it.
func TestChainOrderAllocFree(t *testing.T) {
	env, c, _ := testCluster(t, true, 3)
	c.StopBackground()
	tbl := c.CreateTable("t", 64, TableOptions{ReadBackup: true})
	full := c.CreateTable("full", 64, TableOptions{ReadBackup: true, FullyReplicated: true})
	for _, tab := range []*Table{tbl, full} {
		part := tab.partitionFor("p")
		for _, tc := range c.DataNodes() {
			part.chainOf(tc)
			if allocs := testing.AllocsPerRun(100, func() { part.chainOf(tc) }); allocs != 0 {
				t.Errorf("%s, TC %s: chainOf allocates %.0f times per call, want 0", tab.Name(), tc.Node.Name(), allocs)
			}
		}
	}
	write := []BatchWrite{{Table: tbl, PartKey: "p", Key: "k", Val: "v"}}
	for _, tc := range tbl.partitionFor("p").replicas() {
		client := c.net.NewNode("client", tc.Node.Zone(), 301)
		inTxn(t, env, c, client, tc.Domain, tbl, "p", func(p *sim.Proc, tx *Txn) error {
			if tx.Coordinator() != tc {
				return fmt.Errorf("the coordinator is %s, want %s", tx.Coordinator().Node.Name(), tc.Node.Name())
			}
			var err error
			allocs := testing.AllocsPerRun(100, func() {
				if e := tx.WriteBatch(write); e != nil {
					err = e
				}
			})
			if err != nil {
				return err
			}
			if allocs != 0 {
				t.Errorf("TC %s: a warm one-row write allocates %.0f times, want 0", tc.Node.Name(), allocs)
			}
			return tx.Commit()
		})
	}
}

// TestWarmScanAllocFree: a scan copies its window of the bucket's key-sorted
// index into its transaction's scan storage, which the pooled transaction
// keeps for the next Begin, and a commit edits the index in place, so a
// scanning transaction allocates nothing — no walk, no sort, no result
// slice — whether nothing has changed since the last scan or a commit has
// just updated, inserted or deleted one of the bucket's rows.
func TestWarmScanAllocFree(t *testing.T) {
	env, c, client := testCluster(t, true, 3)
	c.StopBackground()
	tbl := c.CreateTable("inodes", 256, TableOptions{ReadBackup: true})
	inTxn(t, env, c, client, 1, tbl, "p", func(p *sim.Proc, tx *Txn) error {
		if err := tx.WriteBatch([]BatchWrite{
			{Table: tbl, PartKey: "p", Key: "p/a", Val: "v"},
			{Table: tbl, PartKey: "p", Key: "p/b", Val: "v"},
			{Table: tbl, PartKey: "p", Key: "q/a", Val: "v"},
		}); err != nil {
			return err
		}
		return tx.Commit()
	})
	scan := []BatchScan{{Table: tbl, PartKey: "p", Prefix: "p/"}}
	inTxn(t, env, c, client, 1, tbl, "p", func(p *sim.Proc, _ *Txn) error {
		pooled := func(fn func(tx *Txn) error) error {
			tx, err := c.Begin(p, client, 1, tbl, "p")
			return InTx(tx, err, fn)
		}
		// scanned scans in a pooled transaction and checks it found want rows.
		scanned := func(want int) error {
			return pooled(func(tx *Txn) error {
				kvs, err := tx.ScanBatch(scan)
				if err == nil && len(kvs[0]) != want {
					err = fmt.Errorf("the scan found %d rows, want %d", len(kvs[0]), want)
				}
				return err
			})
		}
		write := func(w BatchWrite) error {
			return pooled(func(tx *Txn) error { return tx.WriteBatch([]BatchWrite{w}) })
		}
		vals := [2]Value{"v1", "v2"}
		i := 0
		for _, op := range []struct {
			name string
			run  func() error
		}{
			{"warm scan", func() error { return scanned(2) }},
			{"scan after an update, an insert and a delete", func() error {
				i++
				if err := write(BatchWrite{Table: tbl, PartKey: "p", Key: "p/a", Val: vals[i%2]}); err != nil {
					return err
				}
				if err := write(BatchWrite{Table: tbl, PartKey: "p", Key: "p/ab", Val: "v"}); err != nil {
					return err
				}
				if err := scanned(3); err != nil {
					return err
				}
				if err := write(BatchWrite{Table: tbl, PartKey: "p", Key: "p/ab", Del: true}); err != nil {
					return err
				}
				return scanned(2)
			}},
		} {
			var err error
			allocs := testing.AllocsPerRun(100, func() {
				if e := op.run(); e != nil {
					err = e
				}
			})
			if err != nil {
				return err
			}
			if allocs != 0 {
				t.Errorf("%s: %.0f allocations per call, want 0", op.name, allocs)
			}
		}
		return nil
	})
}
