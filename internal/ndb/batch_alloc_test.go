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
// pooled or held by the transaction. Excluded under -race, whose
// instrumentation allocates.
func TestBatchAllocFree(t *testing.T) {
	env, c, client := testCluster(t, true, 3)
	c.StopBackground()
	tbl := c.CreateTable("inodes", 256, TableOptions{ReadBackup: true})
	inTxn(t, env, c, client, 1, tbl, "p", func(p *sim.Proc, tx *Txn) error {
		if err := put(tx, tbl, "p", "p/a", "v"); err != nil {
			return err
		}
		return tx.Commit()
	})
	get := []BatchGet{{Table: tbl, PartKey: "p", Key: "p/a"}}
	locked := []BatchGet{{Table: tbl, PartKey: "p", Key: "p/a", Lock: LockShared}}
	scan := []BatchScan{{Table: tbl, PartKey: "p", Prefix: "p/"}}
	write := []BatchWrite{{Table: tbl, PartKey: "p", Key: "p/b", Val: "w"}}
	inTxn(t, env, c, client, 1, tbl, "p", func(p *sim.Proc, tx *Txn) error {
		for _, op := range []struct {
			name string
			// rows is what the operation returns: a scan's one slice of rows.
			rows float64
			run  func() error
		}{
			{"get", 0, func() error { _, err := tx.ReadBatch(get); return err }},
			{"locked get", 0, func() error { _, err := tx.ReadBatch(locked); return err }},
			{"scan", 1, func() error { _, err := tx.ScanBatch(scan); return err }},
			{"write", 0, func() error { return tx.WriteBatch(write) }},
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
			if allocs > op.rows {
				t.Errorf("one-row %s: %.0f allocations per call, want %.0f", op.name, allocs, op.rows)
			}
		}
		return tx.Commit()
	})
}
