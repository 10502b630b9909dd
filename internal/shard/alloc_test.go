//go:build !race

package shard

import (
	"testing"

	"hopsfscl/internal/ndb"
	"hopsfscl/internal/sim"
)

// TestRoutedBatchAllocs pins that routing a read batch across shards
// allocates nothing of its own: on a two-shard router whose transaction has
// both sub-transactions open, a batch that interleaves rows of both shards is
// gathered into the routed transaction's buffers, run as one sub-batch per
// shard, and scattered back into the transaction's result slots. Excluded
// under -race, whose instrumentation allocates.
func TestRoutedBatchAllocs(t *testing.T) {
	env, r, client := testRouter(t, 2)
	for _, c := range r.Clusters() {
		c.StopBackground()
	}
	ts := r.NewTableSet("t", 256, ndb.TableOptions{ReadBackup: true})
	on0, on1 := keyOnShard(t, r, 0), keyOnShard(t, r, 1)
	gets := []ndb.BatchGet{
		{Table: ts.For(on0), PartKey: on0, Key: "a"},
		{Table: ts.For(on1), PartKey: on1, Key: "b"},
		{Table: ts.For(on0), PartKey: on0, Key: "c"},
	}
	inTxn(t, env, r, client, ts, on0, func(p *sim.Proc, tx ndb.Tx) error {
		if _, ok := tx.(*Txn); !ok {
			t.Fatalf("a two-shard router began a %T, want a routed *Txn", tx)
		}
		var err error
		allocs := testing.AllocsPerRun(100, func() {
			if _, e := tx.ReadBatch(gets); e != nil {
				err = e
			}
		})
		if err != nil {
			return err
		}
		if allocs != 0 {
			t.Errorf("a read batch spanning both shards: %.0f allocations per call, want 0", allocs)
		}
		return tx.Commit()
	})
}
