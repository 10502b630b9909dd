//go:build !race

package ndb

import (
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
			// want is what the operation keeps: a scan's one slice of rows,
			// a fresh transaction's Txn.
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

// TestWarmScanAllocFree: a scan of a bucket nothing has changed since its
// last scan is a window of the bucket's key-sorted snapshot, so repeating
// it allocates nothing — no walk, no sort, no result slice.
func TestWarmScanAllocFree(t *testing.T) {
	env, c, client := testCluster(t, true, 3)
	c.StopBackground()
	tbl := c.CreateTable("inodes", 256, TableOptions{ReadBackup: true})
	rows := []BatchWrite{
		{Table: tbl, PartKey: "p", Key: "p/a", Val: "v"},
		{Table: tbl, PartKey: "p", Key: "p/b", Val: "v"},
		{Table: tbl, PartKey: "p", Key: "q/a", Val: "v"},
	}
	inTxn(t, env, c, client, 1, tbl, "p", func(p *sim.Proc, tx *Txn) error {
		if err := tx.WriteBatch(rows); err != nil {
			return err
		}
		return tx.Commit()
	})
	scan := []BatchScan{{Table: tbl, PartKey: "p", Prefix: "p/"}}
	inTxn(t, env, c, client, 1, tbl, "p", func(p *sim.Proc, tx *Txn) error {
		var err error
		n := 0
		allocs := testing.AllocsPerRun(100, func() {
			kvs, e := tx.ScanBatch(scan)
			if e != nil {
				err = e
				return
			}
			n = len(kvs[0])
		})
		if err != nil {
			return err
		}
		if n != 2 {
			t.Errorf("the scan found %d rows, want 2", n)
		}
		if allocs != 0 {
			t.Errorf("warm scan: %.0f allocations per call, want 0", allocs)
		}
		return tx.Commit()
	})
}
