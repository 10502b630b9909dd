package shard

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"hopsfscl/internal/ndb"
	"hopsfscl/internal/sim"
)

// ndb.InTx recycles a routed transaction with its sub-transactions: the next
// routed Begin gets the same *Txn back, zeroed in between but for the
// storage of its table-prefix scans, whose rows are cleared, and the
// sub-transactions it opens are the ones the first transaction freed.
func TestInTxRecyclesRoutedTxn(t *testing.T) {
	env, r, client := testRouter(t, 2)
	ts := r.NewTableSet("t", 256, ndb.TableOptions{ReadBackup: true})
	on0, on1 := keyOnShard(t, r, 0), keyOnShard(t, r, 1)
	ndb.StoreDirect(ts.For(on0), on0, "a", "v")
	var first, second *Txn
	var subs [2]*ndb.Txn
	zeroBetween, sameSubs := false, false
	env.Spawn("txn", func(p *sim.Proc) {
		// Touch both shards, so two sub-transactions are freed with it,
		// and scan the table, so its scan storage keeps a row.
		body := func(tx ndb.Tx) error {
			if _, _, err := readCommitted(tx, ts.For(on0), on0, "a"); err != nil {
				return err
			}
			if kvs, err := tx.ScanTablePrefix(ts.For(on0), "a"); err != nil || len(kvs) != 1 {
				t.Errorf("the table scan found %v (%v), want the one row", kvs, err)
			}
			return put(tx, ts.For(on1), on1, "b", "v")
		}
		tx, err := r.Begin(p, client, 1, ts.For(on0), on0)
		err = ndb.InTx(tx, err, func(tx ndb.Tx) error {
			first = tx.(*Txn)
			err := body(tx)
			subs = [2]*ndb.Txn{first.subs[0], first.subs[1]}
			return err
		})
		if err != nil {
			t.Error(err)
			return
		}
		freed := *first
		kept := freed.scanned[:cap(freed.scanned)]
		zeroBetween = len(freed.scanned) == 0 && len(kept) > 0 &&
			!slices.ContainsFunc(kept, func(kv ndb.KV) bool { return kv != ndb.KV{} })
		freed.scanned = nil
		zeroBetween = zeroBetween && reflect.ValueOf(freed).IsZero()
		tx, err = r.Begin(p, client, 1, ts.For(on0), on0)
		err = ndb.InTx(tx, err, func(tx ndb.Tx) error {
			second = tx.(*Txn)
			err := body(tx)
			sameSubs = second.subs[0] == subs[0] && second.subs[1] == subs[1]
			return err
		})
		if err != nil {
			t.Error(err)
		}
	})
	env.RunFor(10 * time.Second)
	if first == nil || second != first {
		t.Fatalf("second routed InTx got %p, want the first one's %p back", second, first)
	}
	if !zeroBetween {
		t.Error("a freed routed Txn keeps fields of the transaction it served")
	}
	if !sameSubs {
		t.Error("the second routed transaction did not reuse the sub-transactions the first one freed")
	}
}
