package ndb

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"hopsfscl/internal/sim"
)

// TestCommitHoldingKeepsLocksUntilRelease pins the two halves of a commit
// that keeps its locks, for a one-train and a two-train transaction: after
// CommitHolding the rows are committed — a read-committed read sees them —
// but every lock, the written rows' included, stays held, so a locked reader
// waits until Release and then sees the committed values. Release leaves no
// lock and no open transaction behind.
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
				if held := c.HeldLocks(); len(held) != len(pks) {
					t.Errorf("held before Release: %v, want the %d written rows", held, len(pks))
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
				for i, pk := range pks {
					key := fmt.Sprintf("k%d", i)
					if v, ok, err := readCommitted(tx, tbl, pk, key); err != nil || !ok || v != "v" {
						t.Errorf("read-committed %s while held = (%v, %v, %v), want the committed value", key, v, ok, err)
					}
					if v, ok, err := readLocked(tx, tbl, pk, key, LockShared); err != nil || !ok || v != "v" {
						t.Errorf("locked read %s = (%v, %v, %v), want the committed value", key, v, ok, err)
					}
				}
				lockedAt = p.Now()
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
		})
	}
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
