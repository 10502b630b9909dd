package ndb

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"hopsfscl/internal/sim"
)

// TestDeletedRowIsReused: a delete hands its row to the cluster's free rows
// and the next insert takes it, so the insert makes no row of its own, while
// everything read or logged before stays as it was: the deleted key reads
// absent, a scan taken before the delete still holds the old value, and a
// whole-cluster restart puts back every durable value — a scan snapshot and
// the undo log hold values and keys, never rows.
func TestDeletedRowIsReused(t *testing.T) {
	env, c, client := testCluster(t, true, 3)
	tbl := c.CreateTable("t", 64, TableOptions{ReadBackup: true})
	part := tbl.partitionFor("p")
	run := func(p *sim.Proc, fn func(tx *Txn) error) bool {
		tx, err := c.Begin(p, client, 1, tbl, "p")
		if err = InTx(tx, err, fn); err != nil {
			t.Error(err)
		}
		return err == nil
	}
	write := func(p *sim.Proc, ws ...BatchWrite) bool {
		return run(p, func(tx *Txn) error { return tx.WriteBatch(ws) })
	}
	row := func(key string, val Value) BatchWrite {
		return BatchWrite{Table: tbl, PartKey: "p", Key: key, Val: val, Del: val == nil}
	}
	// reads checks what each key reads, nil meaning absent.
	reads := func(p *sim.Proc, when string, want map[string]Value) {
		run(p, func(tx *Txn) error {
			for key, val := range want {
				got, ok, err := readCommitted(tx, tbl, "p", key)
				if err != nil {
					return err
				}
				if got != val || ok != (val != nil) {
					t.Errorf("%s: %s reads (%v, %v), want %v", when, key, got, ok, val)
				}
			}
			return nil
		})
	}
	done := false
	env.Spawn("scenario", func(p *sim.Proc) {
		if !write(p, row("a", "v1"), row("b", "v1")) {
			return
		}
		p.Sleep(3 * gcpInterval)
		durable := c.DurableEpoch()
		var before []KV
		if !run(p, func(tx *Txn) (err error) { before, err = scanPrefix(tx, tbl, "p", ""); return err }) {
			return
		}
		r := part.lookup("p", "a")
		free := len(c.rows.free)
		if !write(p, row("a", nil)) {
			return
		}
		if n := len(c.rows.free); n != free+1 || c.rows.free[n-1] != r {
			t.Errorf("after the delete the free rows are %d, want %d topped by the deleted row", n, free+1)
			return
		}
		if !reflect.ValueOf(*r).IsZero() {
			t.Errorf("the freed row keeps %+v", *r)
		}
		if !write(p, row("c", "v2"), row("b", "v2")) {
			return
		}
		if part.lookup("p", "c") != r || len(c.rows.free) != free {
			t.Errorf("the insert made a row of its own: the deleted row is not c's, %d free rows, want %d", len(c.rows.free), free)
		}
		reads(p, "after the reuse", map[string]Value{"a": nil, "b": "v2", "c": "v2"})
		if len(before) != 2 || before[0] != (KV{"a", "v1"}) || before[1] != (KV{"b", "v1"}) {
			t.Errorf("the scan taken before the delete now holds %v", before)
		}
		p.Flush()
		if c.DurableEpoch() != durable {
			t.Error("a global checkpoint made the reuse durable before the crash")
			return
		}
		c.CrashRestartCluster(p)
		reads(p, "after the restart", map[string]Value{"a": "v1", "b": "v1", "c": nil})
		done = true
	})
	env.RunFor(10 * time.Second)
	if !done && !t.Failed() {
		t.Fatal("the scenario did not finish")
	}
}

// TestLockedRowIsNotReused: a row goes to the free rows only once its lock
// is idle. A reader parked behind a delete's exclusive lock is granted the
// row as the delete commits, so the row stays, held, until the reader ends —
// and a writer of the same key waits for that hold — and a reader that
// times out behind an insert leaves the placeholder to its holder, whose
// abort frees it. A freed row has no holder and no waiter.
func TestLockedRowIsNotReused(t *testing.T) {
	env, c, client := testCluster(t, true, 3)
	tbl := c.CreateTable("t", 64, TableOptions{ReadBackup: true})
	part := tbl.partitionFor("p")
	write := func(key string, val Value) []BatchWrite {
		return []BatchWrite{{Table: tbl, PartKey: "p", Key: key, Val: val, Del: val == nil}}
	}
	// freed reports whether r is on the free rows, failing if it is there
	// with state left over.
	freed := func(r *row) bool {
		if !slices.Contains(c.rows.free, r) {
			return false
		}
		if !reflect.ValueOf(*r).IsZero() {
			t.Errorf("a free row keeps %+v", *r)
		}
		return true
	}
	// step runs fn in a transaction of a process that starts at at.
	step := func(name string, at time.Duration, fn func(p *sim.Proc, tx *Txn) error) {
		env.Spawn(name, func(p *sim.Proc) {
			p.Sleep(at)
			tx, err := c.Begin(p, client, 1, tbl, "p")
			if err == nil {
				err = fn(p, tx)
			}
			if err != nil {
				t.Errorf("%s: %v", name, err)
			}
		})
	}
	var r, placeholder *row
	step("setup", 0, func(p *sim.Proc, tx *Txn) error {
		if err := tx.WriteBatch(write("k", "v1")); err != nil {
			return err
		}
		return tx.Commit()
	})
	const hold = lockTimeout / 3
	// The delete holds k from 10 ms to 10 ms + hold; the reader parks at
	// 15 ms and is granted k at the delete's commit.
	step("delete", 10*time.Millisecond, func(p *sim.Proc, tx *Txn) error {
		r = part.lookup("p", "k")
		if err := tx.WriteBatch(write("k", nil)); err != nil {
			return err
		}
		p.Sleep(hold)
		if err := tx.Commit(); err != nil {
			return err
		}
		if freed(r) {
			t.Error("the deleted row went to the free rows while a reader was granted it")
		}
		return nil
	})
	var readerEnd, writerGrant time.Duration
	step("reader", 15*time.Millisecond, func(p *sim.Proc, tx *Txn) error {
		if _, ok, err := readLocked(tx, tbl, "p", "k", LockShared); err != nil || ok {
			t.Errorf("the reader behind the delete reads (ok %v, %v), want the row absent", ok, err)
		}
		p.Sleep(hold)
		readerEnd = p.Now()
		return tx.Commit()
	})
	// The writer asks for k while the reader holds it.
	step("writer", 20*time.Millisecond+hold, func(p *sim.Proc, tx *Txn) error {
		if err := tx.WriteBatch(write("k", "v2")); err != nil {
			return err
		}
		writerGrant = p.Now()
		return tx.Commit()
	})
	// An insert of n holds its placeholder past a reader's lock timeout.
	step("insert", 10*time.Millisecond, func(p *sim.Proc, tx *Txn) error {
		if err := tx.WriteBatch(write("n", "x")); err != nil {
			return err
		}
		placeholder = part.lookup("p", "n")
		p.Sleep(3 * lockTimeout)
		if freed(placeholder) {
			t.Error("the placeholder went to the free rows while its insert held it")
		}
		tx.Abort()
		if !freed(placeholder) {
			t.Error("the aborted insert's placeholder is not on the free rows")
		}
		return nil
	})
	step("timed-out reader", 15*time.Millisecond, func(p *sim.Proc, tx *Txn) error {
		if _, _, err := readLocked(tx, tbl, "p", "n", LockShared); err != ErrLockTimeout {
			t.Errorf("the reader behind the insert: %v, want ErrLockTimeout", err)
		}
		if freed(placeholder) {
			t.Error("the placeholder went to the free rows when its waiter timed out")
		}
		return nil
	})
	env.RunFor(time.Second)
	if writerGrant < readerEnd {
		t.Errorf("the writer took k at %v, before the reader's hold ended at %v", writerGrant, readerEnd)
	}
	if part.lookup("p", "k") != r {
		t.Error("k's row changed while it was held")
	}
	var ok bool
	step("final delete", 0, func(p *sim.Proc, tx *Txn) error {
		if err := tx.WriteBatch(write("k", nil)); err != nil {
			return err
		}
		err := tx.Commit()
		ok = freed(r)
		return err
	})
	env.RunFor(time.Second)
	if !ok {
		t.Error("k's row is not on the free rows once its last holder ended")
	}
}
