package ndb

import (
	"fmt"
	"testing"

	"hopsfscl/internal/sim"
)

// Fan-out arms must come from the cluster's pools: the first fan-out grows a
// pool to its concurrency high-water mark and every later one reuses those
// arms instead of making new ones. A lock-free read batch's arms are
// stackless; a multi-train commit's are worker processes. The result
// mailboxes are pooled the same way.
func TestFanOutReusesPooledWorkers(t *testing.T) {
	env, c, client := testCluster(t, true, 3)
	tbl := c.CreateTable("inodes", 256, TableOptions{})
	const n = 8
	// writeAll commits a row on each of n partition keys: n rows on several
	// replica chains, so the commit fans its trains out to workers.
	writeAll := func() {
		inTxn(t, env, c, client, 1, tbl, "p0", func(p *sim.Proc, tx *Txn) error {
			for i := 0; i < n; i++ {
				pk := fmt.Sprintf("p%d", i)
				if err := put(tx, tbl, pk, "k", "v"); err != nil {
					return err
				}
			}
			return tx.Commit()
		})
	}
	// readAll reads the n rows back in one lock-free batch of several groups.
	readAll := func() {
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
	writeAll()
	readAll()
	if len(c.boolMbx.free) == 0 || len(c.errMbx.free) == 0 {
		t.Fatal("a result mailbox was not returned to the pool")
	}
	checkReuse(t, "stackless arm", &c.arms, readAll)
	checkReuse(t, "worker", &c.workers, writeAll)
}

// checkReuse runs a fan-out that has already run once five more times and
// fails unless pool holds exactly the same members afterwards.
func checkReuse[T comparable](t *testing.T, name string, pool *freeList[T], run func()) {
	t.Helper()
	if len(pool.free) == 0 {
		t.Fatalf("no pooled %s after a multi-group fan-out", name)
	}
	before := make(map[T]bool, len(pool.free))
	for _, v := range pool.free {
		before[v] = true
	}
	for i := 0; i < 5; i++ {
		run()
	}
	if len(pool.free) != len(before) {
		t.Fatalf("%s pool grew from %d to %d across identical fan-outs, want reuse", name, len(before), len(pool.free))
	}
	for _, v := range pool.free {
		if !before[v] {
			t.Fatalf("%s pool holds a new member: arms were not served by the original pool", name)
		}
	}
}
