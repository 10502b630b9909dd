package ndb

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"hopsfscl/internal/sim"
)

// TestCommitHoldingKeepsLocksUntilRelease pins the two halves of a commit
// that keeps its locks, for a one-train and a two-train transaction: after
// CommitHolding the rows are applied, but every lock, the written rows'
// included, stays held, and until Release a lock-free read — a get or a
// scan, wherever it is served — sees each written row's pre-image: an
// updated row's old value, an inserted row absent, a deleted row still
// there. A locked reader waits until Release and then sees the applied
// values, as does every read after it. Release leaves no lock, no mark and
// no open transaction behind.
func TestCommitHoldingKeepsLocksUntilRelease(t *testing.T) {
	for _, trains := range []int{1, 2} {
		t.Run(fmt.Sprintf("trains=%d", trains), func(t *testing.T) {
			env, c, client := testCluster(t, true, 3)
			c.StopBackground()
			env.RunFor(time.Second)
			tbl := c.CreateTable("t", 64, TableOptions{ReadBackup: true})
			pks := repeatPK("p", 2)(tbl)
			if trains == 2 {
				pks = crossGroupPKs(t, 2)(tbl)
			}
			// k0 is updated from "old", k1 inserted; d is deleted.
			StoreDirect(tbl, pks[0], "k0", "old")
			StoreDirect(tbl, pks[0], "d", "gone")
			type seen struct {
				k0, k1, d Value
				scan      []KV
			}
			look := func(tx *Txn, mode LockMode) (s seen, err error) {
				read := func(pk, key string) (v Value) {
					if err == nil {
						v, _, err = readLocked(tx, tbl, pk, key, mode)
					}
					return v
				}
				s.k0, s.k1, s.d = read(pks[0], "k0"), read(pks[1], "k1"), read(pks[0], "d")
				if err == nil {
					s.scan, err = scanPrefix(tx, tbl, pks[0], "")
					s.scan = slices.Clone(s.scan)
				}
				return s, err
			}
			pre := seen{k0: "old", d: "gone", scan: []KV{{Key: "d", Val: "gone"}, {Key: "k0", Val: "old"}}}
			post := seen{k0: "v", k1: "v", scan: []KV{{Key: "k0", Val: "v"}}}
			if trains == 1 {
				post.scan = []KV{{Key: "k0", Val: "v"}, {Key: "k1", Val: "v"}}
			}
			same := func(a, b seen) bool { return a.k0 == b.k0 && a.k1 == b.k1 && a.d == b.d && sameKVs(a.scan, b.scan) }
			const hold = 50 * time.Millisecond
			committed := false
			var reader *sim.Proc
			var released, lockedAt time.Duration
			env.Spawn("writer", func(p *sim.Proc) {
				tx, err := c.Begin(p, client, 1, tbl, pks[0])
				if err != nil {
					t.Error(err)
					return
				}
				for i, pk := range pks {
					if err := put(tx, tbl, pk, fmt.Sprintf("k%d", i), "v"); err != nil {
						t.Error(err)
						return
					}
				}
				if err := tx.WriteBatch([]BatchWrite{{Table: tbl, PartKey: pks[0], Key: "d", Del: true}}); err != nil {
					t.Error(err)
					return
				}
				if err := tx.CommitHolding(); err != nil {
					t.Errorf("CommitHolding: %v", err)
					return
				}
				if len(tx.trains) != trains {
					t.Errorf("the transaction built %d trains, want %d", len(tx.trains), trains)
				}
				p.Flush()
				committed = true
				reader.Wake()
				p.Sleep(hold)
				if held := c.HeldLocks(); len(held) != len(pks)+1 {
					t.Errorf("held before Release: %v, want the %d written rows", held, len(pks)+1)
				}
				released = p.Now()
				tx.Release()
			})
			reader = env.Spawn("reader", func(p *sim.Proc) {
				for !committed {
					p.Wait()
				}
				tx, err := c.Begin(p, client, 1, tbl, pks[0])
				if err != nil {
					t.Error(err)
					return
				}
				if got, err := look(tx, 0); err != nil || !same(got, pre) {
					t.Errorf("lock-free reads while held = %+v, %v; want the pre-images %+v", got, err, pre)
				}
				if got, err := look(tx, LockShared); err != nil || !same(got, post) {
					t.Errorf("locked reads = %+v, %v; want the applied values %+v", got, err, post)
				}
				lockedAt = p.Now()
				if err := tx.Commit(); err != nil {
					t.Error(err)
				}
				tx, err = c.Begin(p, client, 1, tbl, pks[0])
				if err != nil {
					t.Error(err)
					return
				}
				if got, err := look(tx, 0); err != nil || !same(got, post) {
					t.Errorf("lock-free reads after Release = %+v, %v; want the applied values %+v", got, err, post)
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
				}
			})
			env.RunFor(time.Minute)
			if released == 0 || lockedAt == 0 {
				t.Fatal("the writer never released, or the reader never finished")
			}
			if lockedAt < released {
				t.Errorf("the locked reads returned at %v, before Release at %v", lockedAt, released)
			}
			if held, open := c.HeldLocks(), c.InFlightTxns(); len(held) != 0 || open != 0 {
				t.Errorf("after Release: locks %v, %d transactions in flight", held, open)
			}
			if marked := heldRows(c); len(marked) != 0 {
				t.Errorf("after Release: rows %v still held", marked)
			}
		})
	}
}

// heldRows lists the rows whose pre-image reads still see.
func heldRows(c *Cluster) []string {
	var out []string
	for _, tbl := range c.Tables() {
		for _, part := range tbl.partitions {
			for pk, b := range part.rows {
				for k, r := range b.rows {
					if r.held || r.pre != nil || r.preExists {
						out = append(out, tbl.name+"/"+pk+"/"+k)
					}
				}
			}
		}
	}
	return out
}

// TestCommitHoldingFailureReleases: a CommitHolding that fails — here a
// replica of the prepared chain crashed before the commit — has ended the
// transaction and holds nothing, exactly like a failed Commit.
func TestCommitHoldingFailureReleases(t *testing.T) {
	env, c, client := testCluster(t, true, 3)
	c.StopBackground()
	env.RunFor(time.Second)
	tbl := c.CreateTable("t", 64, TableOptions{ReadBackup: true})
	ran := false
	env.Spawn("txn", func(p *sim.Proc) {
		tx, err := c.Begin(p, client, 1, tbl, "p")
		if err != nil {
			t.Error(err)
			return
		}
		if err := put(tx, tbl, "p", "k", "v"); err != nil {
			t.Error(err)
			return
		}
		victim := tbl.partitionFor("p").replicas()[1]
		if victim == tx.Coordinator() {
			victim = tbl.partitionFor("p").replicas()[2]
		}
		p.Flush()
		victim.Node.Fail()
		if err := tx.CommitHolding(); !errors.Is(err, ErrNodeUnavailable) {
			t.Errorf("CommitHolding on a changed chain = %v, want ErrNodeUnavailable", err)
		}
		ran = true
	})
	env.RunFor(time.Minute)
	if !ran {
		t.Fatal("txn did not run")
	}
	if held, open := c.HeldLocks(), c.InFlightTxns(); len(held) != 0 || open != 0 {
		t.Errorf("after a failed CommitHolding: locks %v, %d transactions in flight", held, open)
	}
}

// TestHeldCommitAckLost: a CommitHolding whose commit applied but whose Ack
// to the client is lost ends the transaction as Release does. It answers
// ErrIndeterminate, holds no lock, leaves no row held, and every read
// sees the applied row, whose pre-image stops showing. Ending it again —
// CommitHolding or Release — changes nothing.
func TestHeldCommitAckLost(t *testing.T) {
	env, c, client := testCluster(t, true, 3)
	c.StopBackground()
	env.RunFor(time.Second)
	tbl := c.CreateTable("t", 64, TableOptions{ReadBackup: true})
	StoreDirect(tbl, "p", "k", "old")
	ran := false
	env.Spawn("txn", func(p *sim.Proc) {
		tx, err := c.Begin(p, client, 1, tbl, "p")
		if err != nil {
			t.Error(err)
			return
		}
		if err := put(tx, tbl, "p", "k", "new"); err != nil {
			t.Error(err)
			return
		}
		p.Flush()
		client.Fail()
		if err := tx.CommitHolding(); !errors.Is(err, ErrIndeterminate) {
			t.Errorf("CommitHolding with its Ack lost = %v, want ErrIndeterminate", err)
		}
		if err := tx.CommitHolding(); !errors.Is(err, ErrAborted) {
			t.Errorf("CommitHolding of an ended transaction = %v, want ErrAborted", err)
		}
		tx.Release()
		client.Recover()
		ran = true
	})
	env.RunFor(time.Minute)
	if !ran {
		t.Fatal("txn did not run")
	}
	if held, open := c.HeldLocks(), c.InFlightTxns(); len(held) != 0 || open != 0 {
		t.Errorf("after a lost Ack: locks %v, %d transactions in flight", held, open)
	}
	if marked := heldRows(c); len(marked) != 0 {
		t.Errorf("after a lost Ack: rows %v still held", marked)
	}
	inTxn(t, env, c, client, 1, tbl, "p", func(p *sim.Proc, tx *Txn) error {
		v, ok, err := readCommitted(tx, tbl, "p", "k")
		kvs, serr := scanPrefix(tx, tbl, "p", "")
		if err != nil || serr != nil || !ok || v != "new" || !sameKVs(kvs, []KV{{Key: "k", Val: "new"}}) {
			t.Errorf("after a lost Ack: get (%v, %v, %v), scan (%v, %v); want the applied row", v, ok, err, kvs, serr)
		}
		return tx.Commit()
	})
}

// TestClusterRestartWhileHeld: a whole-cluster restart between CommitHolding
// and Release undoes the commit, which no checkpoint made durable. After it
// a lock-free get and a scan see the restored rows — an updated row's old
// value, an inserted row absent — no lock and no mark remain, and the
// transaction's late Release changes nothing.
func TestClusterRestartWhileHeld(t *testing.T) {
	env, c, client := testCluster(t, true, 3)
	c.StopBackground()
	env.RunFor(time.Second)
	tbl := c.CreateTable("t", 64, TableOptions{ReadBackup: true})
	StoreDirect(tbl, "p", "k", "old")
	ran := false
	env.Spawn("txn", func(p *sim.Proc) {
		tx, err := c.Begin(p, client, 1, tbl, "p")
		if err != nil {
			t.Error(err)
			return
		}
		if err := tx.WriteBatch([]BatchWrite{{Table: tbl, PartKey: "p", Key: "k", Val: "new"}, {Table: tbl, PartKey: "p", Key: "n", Val: "new"}}); err != nil {
			t.Error(err)
			return
		}
		if err := tx.CommitHolding(); err != nil {
			t.Error(err)
			return
		}
		p.Flush()
		c.CrashRestartCluster(p)
		if held, marked := c.HeldLocks(), heldRows(c); len(held) != 0 || len(marked) != 0 {
			t.Errorf("after the restart: locks %v, held rows %v", held, marked)
		}
		rtx, err := c.Begin(p, client, 1, tbl, "p")
		if err != nil {
			t.Error(err)
			return
		}
		v, ok, err := readCommitted(rtx, tbl, "p", "k")
		_, nOK, nerr := readCommitted(rtx, tbl, "p", "n")
		kvs, serr := scanPrefix(rtx, tbl, "p", "")
		if err != nil || nerr != nil || serr != nil || !ok || v != "old" || nOK || !sameKVs(kvs, []KV{{Key: "k", Val: "old"}}) {
			t.Errorf("after the restart: k (%v, %v, %v), n present %v (%v), scan (%v, %v); want the restored rows",
				v, ok, err, nOK, nerr, kvs, serr)
		}
		rtx.Abort()
		tx.Release()
		ran = true
	})
	env.RunFor(time.Minute)
	if !ran {
		t.Fatal("txn did not run")
	}
	if held, marked := c.HeldLocks(), heldRows(c); len(held) != 0 || len(marked) != 0 {
		t.Errorf("after the late Release: locks %v, held rows %v", held, marked)
	}
}
