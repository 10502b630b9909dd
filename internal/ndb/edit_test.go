package ndb

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"hopsfscl/internal/sim"
)

// addEdit is a test Editor: it adds add to an int row and keeps the value it
// was handed; with err set it refuses instead.
type addEdit struct {
	add int
	err error
	saw Value
}

func (e *addEdit) Edit(committed Value) (Value, error) {
	e.saw = committed
	if e.err != nil {
		return nil, e.err
	}
	return committed.(int) + e.add, nil
}

// TestRacingEdits: transactions editing one row in the same instant
// serialize on its lock at the chain's head, and each edit is applied to the
// value the one before it committed: no increment is lost, none waits out a
// lock timeout. Batched and with write batching disabled.
func TestRacingEdits(t *testing.T) {
	for _, serial := range []bool{false, true} {
		env, c, client := testClusterCfg(t, true, 3, func(cfg *Config) { cfg.DisableBatchedWrites = serial })
		tbl := c.CreateTable("t", 64, TableOptions{ReadBackup: true})
		inTxn(t, env, c, client, 1, tbl, "p", func(p *sim.Proc, tx *Txn) error {
			if err := put(tx, tbl, "p", "n", 0); err != nil {
				return err
			}
			return tx.Commit()
		})
		const racers = 5
		errs := make([]error, racers)
		for i := 0; i < racers; i++ {
			env.Spawn("racer", func(p *sim.Proc) {
				tx, err := c.Begin(p, client, 1, tbl, "p")
				errs[i] = InTx(tx, err, func(tx *Txn) error {
					return tx.WriteBatch([]BatchWrite{{Table: tbl, PartKey: "p", Key: "n", Val: &addEdit{add: 1}, Edit: true}})
				})
			})
		}
		env.RunFor(lockTimeout / 2)
		for i, err := range errs {
			if err != nil {
				t.Errorf("serial=%v: racer %d: %v", serial, i, err)
			}
		}
		if v, _ := tbl.partitionFor("p").committed("p", "n"); v != racers {
			t.Errorf("serial=%v: the row holds %v after %d racing increments", serial, v, racers)
		}
		if held := c.HeldLocks(); len(held) != 0 || c.InFlightTxns() != 0 {
			t.Errorf("serial=%v: locks %v and %d transactions survive the race", serial, held, c.InFlightTxns())
		}
	}
}

// TestRefusedEditLeavesNothing: an edit of an absent row is refused at the
// chain's head with ErrRowAbsent, and an edit its Editor refuses with the
// Editor's error — each two messages, TC -> primary and the refusal back —
// and the abort leaves no lock, no placeholder row and the committed value
// untouched. An edited delete hands its Editor the pre-image, which the head
// sends back to the TC as one message of its own beside the Prepare pass.
func TestRefusedEditLeavesNothing(t *testing.T) {
	env, c, client := testClusterCfg(t, true, 3, nil)
	c.StopBackground()
	env.RunFor(time.Second)
	tbl := c.CreateTable("t", 64, TableOptions{ReadBackup: true})
	own := crossGroupPKs(t, 1)(tbl)[0]
	inTxn(t, env, c, client, 1, tbl, own, func(p *sim.Proc, tx *Txn) error {
		if err := put(tx, tbl, own, "k", 7); err != nil {
			return err
		}
		return tx.Commit()
	})
	refused := errors.New("refused by the editor")
	for _, row := range []struct {
		key  string
		edit *addEdit
		want error
	}{
		{"absent", &addEdit{add: 1}, ErrRowAbsent},
		{"k", &addEdit{err: refused}, refused},
	} {
		inTxn(t, env, c, client, 1, tbl, own, func(p *sim.Proc, tx *Txn) error {
			p.Flush()
			msgs := c.net.TotalMessages()
			err := tx.WriteBatch([]BatchWrite{{Table: tbl, PartKey: own, Key: row.key, Val: row.edit, Edit: true}})
			p.Flush()
			if !errors.Is(err, row.want) {
				return fmt.Errorf("edit of %s: %v, want %v", row.key, err, row.want)
			}
			if n := c.net.TotalMessages() - msgs; n != 2 {
				return fmt.Errorf("a refused edit of %s exchanged %d messages, want 2 (request, refusal)", row.key, n)
			}
			return nil
		})
		if tbl.partitionFor(own).lookup(own, "absent") != nil {
			t.Error("a placeholder row survives the refused edit")
		}
	}
	if v, _ := tbl.partitionFor(own).committed(own, "k"); v != 7 {
		t.Errorf("the refused edit changed the row to %v", v)
	}
	if held := c.HeldLocks(); len(held) != 0 {
		t.Errorf("locks survive the refusals: %v", held)
	}
	edit := &addEdit{}
	inTxn(t, env, c, client, 1, tbl, own, func(p *sim.Proc, tx *Txn) error {
		p.Flush()
		msgs := c.net.TotalMessages()
		if err := tx.WriteBatch([]BatchWrite{{Table: tbl, PartKey: own, Key: "k", Del: true, Val: edit, Edit: true}}); err != nil {
			return err
		}
		p.Flush()
		if n, want := c.net.TotalMessages()-msgs, int64(len(tbl.partitionFor(own).replicas())+2); n != want {
			return fmt.Errorf("an edited delete exchanged %d messages, want %d (the Prepare pass and the pre-image)", n, want)
		}
		return tx.Commit()
	})
	if edit.saw != 7 {
		t.Errorf("the delete's Editor saw %v, want the pre-image 7", edit.saw)
	}
	if _, ok := tbl.partitionFor(own).committed(own, "k"); ok {
		t.Error("the edited delete left its row")
	}
}
