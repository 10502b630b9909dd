package ndb

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"hopsfscl/internal/sim"
	"hopsfscl/internal/trace"
)

// A Begin whose request never reaches the TC opens nothing: with a tracer
// attached it leaves no activeOps entry behind, and the next transaction
// that does begin runs and ends normally.
func TestLostBeginLeavesNoActiveOp(t *testing.T) {
	env, c, client := testCluster(t, true, 3)
	c.SetTracer(trace.NewTracer(trace.NewRegistry()))
	tbl := c.CreateTable("inodes", 256, TableOptions{ReadBackup: true})
	// The client's zone-local TC is the only one it picks; lose every
	// message inside that zone.
	c.Net().DegradeLink(client.Zone(), client.Zone(), 1, 1)
	var beginErr error
	env.Spawn("txn", func(p *sim.Proc) {
		_, beginErr = c.Begin(p, client, 1, tbl, "p")
	})
	env.RunFor(time.Second)
	if !errors.Is(beginErr, ErrNodeUnavailable) {
		t.Fatalf("Begin over a lossy link: %v, want ErrNodeUnavailable", beginErr)
	}
	if len(c.activeOps) != 0 {
		t.Fatalf("a lost Begin left %d activeOps entries, want 0", len(c.activeOps))
	}
	c.Net().RestoreLink(client.Zone(), client.Zone())
	env.Spawn("txn", func(p *sim.Proc) {
		tx, err := c.Begin(p, client, 1, tbl, "p")
		beginErr = InTx(tx, err, func(tx *Txn) error { return put(tx, tbl, "p", "k", "v") })
	})
	env.RunFor(time.Second)
	if beginErr != nil || len(c.activeOps) != 0 {
		t.Fatalf("after the link healed: %v, %d activeOps entries; want nil, 0", beginErr, len(c.activeOps))
	}
}

// InTx recycles the transaction it ends: the next Begin on the cluster gets
// the same *Txn back, and in between the pooled Txn holds nothing — no
// value, row, scan result, lock, train or span of the operation it served.
func TestInTxRecyclesZeroedTxn(t *testing.T) {
	env, c, client := testCluster(t, true, 3)
	tbl := c.CreateTable("inodes", 256, TableOptions{ReadBackup: true})
	var first, second *Txn
	var zeroBetween bool
	env.Spawn("txn", func(p *sim.Proc) {
		tx, err := c.Begin(p, client, 1, tbl, "p")
		err = InTx(tx, err, func(tx *Txn) error {
			first = tx
			if err := put(tx, tbl, "p", "p/a", "v"); err != nil {
				return err
			}
			if _, err := tx.ReadBatch([]BatchGet{{Table: tbl, PartKey: "p", Key: "p/b", Lock: LockShared}}); err != nil {
				return err
			}
			_, err := tx.ScanBatch([]BatchScan{{Table: tbl, PartKey: "p", Prefix: "p/"}})
			return err
		})
		if err != nil {
			t.Error(err)
			return
		}
		zeroBetween = reflect.ValueOf(*first).IsZero()
		tx, err = c.Begin(p, client, 1, tbl, "p")
		err = InTx(tx, err, func(tx *Txn) error {
			second = tx
			_, err := tx.ScanBatch([]BatchScan{{Table: tbl, PartKey: "p", Prefix: "p/"}})
			return err
		})
		if err != nil {
			t.Error(err)
		}
	})
	env.RunFor(time.Second)
	if first == nil || second != first {
		t.Fatalf("second InTx got %p, want the first one's %p back", second, first)
	}
	if !zeroBetween {
		t.Fatal("a freed Txn keeps fields of the transaction it served")
	}
}

// Free is only for a transaction that has ended: an open one, or one that
// committed holding its locks and has not released them, panics.
func TestFreeOpenTxnPanics(t *testing.T) {
	env, c, client := testCluster(t, true, 3)
	tbl := c.CreateTable("inodes", 256, TableOptions{ReadBackup: true})
	freePanics := func(tx *Txn) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		tx.Free()
		return false
	}
	env.Spawn("txn", func(p *sim.Proc) {
		tx, err := c.Begin(p, client, 1, tbl, "p")
		if err != nil {
			t.Error(err)
			return
		}
		if !freePanics(tx) {
			t.Error("Free of an open transaction did not panic")
		}
		if err := put(tx, tbl, "p", "k", "v"); err != nil {
			t.Error(err)
			return
		}
		if err := tx.CommitHolding(); err != nil {
			t.Error(err)
			return
		}
		if !freePanics(tx) {
			t.Error("Free of a transaction still holding its locks did not panic")
		}
		tx.Release()
		if freePanics(tx) {
			t.Error("Free of a released transaction panicked")
		}
	})
	env.RunFor(time.Second)
}
