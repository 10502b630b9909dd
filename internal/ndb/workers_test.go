package ndb

import (
	"fmt"
	"testing"

	"hopsfscl/internal/sim"
)

// Fan-out arms must come from the cluster's worker pool: the first batch
// grows the pool to its concurrency high-water mark and every later batch
// reuses those workers instead of spawning processes. The result mailboxes
// are pooled the same way.
func TestFanOutReusesPooledWorkers(t *testing.T) {
	env, c, client := testCluster(t, true, 3)
	tbl := c.CreateTable("inodes", 256, TableOptions{})
	const n = 8
	inTxn(t, env, c, client, 1, tbl, "p0", func(p *sim.Proc, tx *Txn) error {
		for i := 0; i < n; i++ {
			pk := fmt.Sprintf("p%d", i)
			if err := put(tx, tbl, pk, "k", "v"); err != nil {
				return err
			}
		}
		return tx.Commit()
	})

	runBatchOnce := func() {
		inTxn(t, env, c, client, 1, tbl, "p0", func(p *sim.Proc, tx *Txn) error {
			gets := make([]BatchGet, n)
			for i := range gets {
				gets[i] = BatchGet{Table: tbl, PartKey: fmt.Sprintf("p%d", i), Key: "k"}
			}
			if _, err := tx.ReadBatch(gets); err != nil {
				return err
			}
			return tx.Commit()
		})
	}
	runBatchOnce()
	workers := len(c.workers.free)
	if workers == 0 {
		t.Fatal("no pooled workers after a multi-group fan-out")
	}
	if len(c.boolMbx.free) == 0 {
		t.Fatal("result mailbox was not returned to the pool")
	}
	before := make(map[*fanWorker]bool, workers)
	for _, w := range c.workers.free {
		before[w] = true
	}
	for i := 0; i < 5; i++ {
		runBatchOnce()
	}
	if got := len(c.workers.free); got != workers {
		t.Fatalf("pool grew from %d to %d workers across identical batches, want reuse", workers, got)
	}
	for _, w := range c.workers.free {
		if !before[w] {
			t.Fatal("pool contains a respawned worker: arms were not served by the original pool")
		}
	}
}
