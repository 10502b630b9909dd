package ndb

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"hopsfscl/internal/sim"
)

// TestDeletedRowIsReused: a delete hands its row to the cluster's free rows
// and the next insert takes it, so the insert makes no row of its own, while
// everything read or logged before stays as it was: the deleted key reads
// absent, a scan taken before the delete by a transaction still open holds
// the old value, and a whole-cluster restart puts back every durable value —
// a scan result, a bucket's index and the undo log hold values and keys,
// never rows.
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
		// The scanning transaction stays open until the reuse is checked.
		scanner, err := c.Begin(p, client, 1, tbl, "p")
		if err != nil {
			t.Error(err)
			return
		}
		before, err := scanPrefix(scanner, tbl, "p", "")
		if err != nil {
			t.Error(err)
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
		if err := scanner.Commit(); err != nil {
			t.Error(err)
			return
		}
		scanner.Free()
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

// TestFreedRowServedBeforePage: an insert takes a row that cleanRow returned
// before it cuts the page's next row, and once the free rows are empty it
// takes the page's rows in order, each once.
func TestFreedRowServedBeforePage(t *testing.T) {
	_, c, _ := testCluster(t, true, 3)
	tbl := c.CreateTable("t", 64, TableOptions{ReadBackup: true})
	part := tbl.partitionFor("p")
	r := part.getRow("p", "a")
	if len(c.page) != rowPage-1 {
		t.Fatalf("the first row left %d rows of its page, want %d", len(c.page), rowPage-1)
	}
	part.cleanRow("p", "a", r)
	if len(c.rows.free) != 1 || c.rows.free[0] != r {
		t.Fatalf("cleanRow left %d free rows, want the placeholder alone", len(c.rows.free))
	}
	next := &c.page[0]
	if got := part.getRow("p", "b"); got != r || len(c.page) != rowPage-1 {
		t.Fatalf("the insert took a row of the page (%d left) over the freed one", len(c.page))
	}
	if got := part.getRow("p", "c"); got != next || len(c.page) != rowPage-2 {
		t.Fatal("with no freed row the insert did not take the page's next row")
	}
}

// TestRowPageAllocs: inserts into an empty free list allocate one page per
// 64 rows — 0 per row on average, where a row of its own would be 1.
func TestRowPageAllocs(t *testing.T) {
	_, c, _ := testCluster(t, true, 3)
	var rows []*row
	allocs := testing.AllocsPerRun(rowPage, func() { rows = append(rows[:0], c.rows.get()) })
	if allocs != 0 {
		t.Errorf("a row from an empty free list: %.2f allocations on average over %d, want 0", allocs, rowPage)
	}
}

// TestReinsertedRowHandedOutOnce: a transaction that deletes a key and
// inserts it again in one train, and one that inserts more rows than a page
// holds, leave every row of the cluster in one place at a time — one key's,
// the free rows' or the page's not yet cut — and so does a whole-cluster
// restart between two such transactions, which drops the rows whose values it
// undoes.
func TestReinsertedRowHandedOutOnce(t *testing.T) {
	env, c, client := testCluster(t, true, 3)
	tbl := c.CreateTable("t", 64, TableOptions{ReadBackup: true})
	// distinct fails unless no row is in two places.
	distinct := func(when string) {
		seen := map[*row]string{}
		see := func(r *row, where string) {
			if prev, ok := seen[r]; ok {
				t.Errorf("%s: one row is both %s and %s", when, prev, where)
			}
			seen[r] = where
		}
		for _, part := range tbl.partitions {
			for pk, b := range part.rows {
				for key, r := range b.rows {
					see(r, pk+"/"+key)
				}
			}
		}
		for _, r := range c.rows.free {
			see(r, "free")
		}
		for i := range c.page {
			see(&c.page[i], "uncut")
		}
	}
	row := func(key string, val Value) BatchWrite {
		return BatchWrite{Table: tbl, PartKey: "p", Key: key, Val: val, Del: val == nil}
	}
	run := func(p *sim.Proc, batches ...[]BatchWrite) bool {
		tx, err := c.Begin(p, client, 1, tbl, "p")
		err = InTx(tx, err, func(tx *Txn) error {
			for _, ws := range batches {
				if err := tx.WriteBatch(ws); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Error(err)
		}
		return err == nil
	}
	// reinsert deletes k0 and k1 and inserts k0 again, one train.
	reinsert := func(p *sim.Proc, val Value) bool {
		return run(p, []BatchWrite{row("k0", nil), row("k1", nil)}, []BatchWrite{row("k0", val)})
	}
	done := false
	env.Spawn("scenario", func(p *sim.Proc) {
		many := make([]BatchWrite, rowPage+6)
		for i := range many {
			many[i] = row(fmt.Sprint("k", i), "v1")
		}
		if !run(p, many) {
			return
		}
		distinct("after a page and more of inserts")
		p.Sleep(3 * gcpInterval)
		if !reinsert(p, "v2") {
			return
		}
		distinct("after the re-insert")
		p.Flush()
		c.CrashRestartCluster(p)
		distinct("after the restart")
		if !reinsert(p, "v3") {
			return
		}
		distinct("after the re-insert past the restart")
		tx, err := c.Begin(p, client, 1, tbl, "p")
		if err = InTx(tx, err, func(tx *Txn) error {
			for key, want := range map[string]Value{"k0": "v3", "k1": nil, "k2": "v1"} {
				got, ok, err := readCommitted(tx, tbl, "p", key)
				if err != nil {
					return err
				}
				if got != want || ok != (want != nil) {
					t.Errorf("%s reads (%v, %v), want %v", key, got, ok, want)
				}
			}
			return nil
		}); err != nil {
			t.Error(err)
			return
		}
		done = true
	})
	env.RunFor(10 * time.Second)
	if !done && !t.Failed() {
		t.Fatal("the scenario did not finish")
	}
}
