package ndb

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"hopsfscl/internal/sim"
)

// TestSameKeyDistinctPartitionKeys: a row is addressed by (partition key,
// key), and a key is unique only within its partition key — the metadata
// layer keys a directory's children by name, so two directories' children
// share keys. Two rows under one key and two partition keys, first on one
// partition and then on two partitions of one replica chain, stay two rows
// through a transaction's life: both are staged in one train and committed
// together; both are locked exclusively by one transaction, each holding its
// own lock, and both locks are released at its end; a scan and the audit walk
// find each under its own partition key; and deleting one leaves the other.
func TestSameKeyDistinctPartitionKeys(t *testing.T) {
	for _, apart := range []bool{false, true} {
		name := "one-partition"
		if apart {
			name = "two-partitions"
		}
		t.Run(name, func(t *testing.T) {
			env, c, client := testCluster(t, true, 3)
			tbl := c.CreateTable("t", 64, TableOptions{ReadBackup: true})
			const pkA, key = "a", "k"
			partA := tbl.partitionFor(pkA)
			var pkB string
			for i := 0; pkB == ""; i++ {
				pk := fmt.Sprintf("b%d", i)
				part := tbl.partitionFor(pk)
				if (part == partA) != apart && slices.Equal(part.replicas(), partA.replicas()) {
					pkB = pk
				}
			}
			partB := tbl.partitionFor(pkB)
			done := false
			env.Spawn("txns", func(p *sim.Proc) {
				tx, err := c.Begin(p, client, 1, tbl, pkA)
				if err != nil {
					t.Error(err)
					return
				}
				if err := tx.WriteBatch([]BatchWrite{
					{Table: tbl, PartKey: pkA, Key: key, Val: "a"},
					{Table: tbl, PartKey: pkB, Key: key, Val: "b"},
				}); err != nil {
					t.Error(err)
					return
				}
				if len(tx.trains) != 1 || len(tx.trains[0].rows) != 2 || tx.trains[0].prepared != 2 {
					t.Errorf("trains = %+v, want one train of 2 prepared rows", tx.trains)
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
				for _, r := range []struct {
					part    *Partition
					pk, val string
				}{{partA, pkA, "a"}, {partB, pkB, "b"}} {
					if v, ok := r.part.committed(r.pk, key); !ok || v != r.val {
						t.Errorf("(%s, %s) committed (%v, %v), want %q", r.pk, key, v, ok, r.val)
					}
				}

				tx, err = c.Begin(p, client, 1, tbl, pkA)
				if err != nil {
					t.Error(err)
					return
				}
				for _, r := range []struct{ pk, val string }{{pkA, "a"}, {pkB, "b"}} {
					if v, ok, err := readLocked(tx, tbl, r.pk, key, LockExclusive); err != nil || !ok || v != r.val {
						t.Errorf("locked read (%s, %s) = (%v, %v, %v), want %q", r.pk, key, v, ok, err, r.val)
					}
				}
				for _, r := range []struct {
					part *Partition
					pk   string
				}{{partA, pkA}, {partB, pkB}} {
					if mode := r.part.lookup(r.pk, key).lock.held(tx.id); mode != LockExclusive {
						t.Errorf("(%s, %s) held in mode %d, want exclusive", r.pk, key, mode)
					}
				}
				if held := c.HeldLocks(); len(held) != 2 {
					t.Errorf("held locks %v, want the 2 rows", held)
				}
				kvs, err := tx.ScanBatch([]BatchScan{{Table: tbl, PartKey: pkA}, {Table: tbl, PartKey: pkB}})
				if err != nil {
					t.Error(err)
					return
				}
				for i, val := range []string{"a", "b"} {
					if len(kvs[i]) != 1 || kvs[i][0].Key != key || kvs[i][0].Val != val {
						t.Errorf("scan %d = %v, want the one row (%s, %s)", i, kvs[i], key, val)
					}
				}
				if err := del(tx, tbl, pkA, key); err != nil {
					t.Error(err)
					return
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
				p.Flush()
				if held := c.HeldLocks(); len(held) != 0 {
					t.Errorf("locks %v survive the transaction", held)
				}

				tx, err = c.Begin(p, client, 1, tbl, pkA)
				if err != nil {
					t.Error(err)
					return
				}
				if _, ok, err := readCommitted(tx, tbl, pkA, key); err != nil || ok {
					t.Errorf("deleted (%s, %s) reads ok=%v, err=%v; want absent", pkA, key, ok, err)
				}
				if v, ok, err := readCommitted(tx, tbl, pkB, key); err != nil || !ok || v != "b" {
					t.Errorf("(%s, %s) = (%v, %v, %v) after its namesake's delete, want \"b\"", pkB, key, v, ok, err)
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
				done = true
			})
			env.RunFor(5 * time.Second)
			if !done {
				t.Fatal("the transactions did not finish")
			}
			var rows []string
			tbl.ForEachCommitted(func(pk, k string, val Value) {
				rows = append(rows, fmt.Sprintf("%s|%s=%v", pk, k, val))
			})
			if want := []string{pkB + "|" + key + "=b"}; !slices.Equal(rows, want) {
				t.Errorf("committed rows %v, want %v", rows, want)
			}
		})
	}
}
