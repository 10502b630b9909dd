package ndb

// This file implements the batched write path: the write-side twin of
// batch.go. Real NDB packs operations destined for the same datanode into
// one TCKEYREQ train and prepares an operation on its replica chain as it
// executes it, which is what the HopsFS line of work leans on for multi-row
// metadata transactions (HopsFS §3.2.2). Executing a write therefore *is* its
// Prepare: WriteBatch groups its rows into the transaction's trains (one per
// replica chain, see train in txn.go) and each train walks the Prepare pass
// of Figure 2 once — TC -> primary -> backups -> TC — carrying every row of
// the train, distinct chains concurrently; Commit is left with the Commit and
// Complete passes. Locking still goes through lockRowOn per row at the
// chain's head, so the contention ledger, lock-wait accounting, and deadlock
// (timeout) behavior are those of any locked access.

// BatchWrite names one row of a WriteBatch: an insert/update (Del false)
// or a delete (Del true), prepared under an exclusive lock taken at the
// chain's head. Two conditions are checked there, under that lock, so the
// writer learns the answer from the write itself and not from a locked read
// one round before it. With IfAbsent the row is an insert proper: the head
// refuses it with ErrRowExists when the row holds a committed value. With
// Edit the row must hold one — the head refuses an absent row with
// ErrRowAbsent — and Val is not the row's value but the Editor the head
// applies to it. The editor rides in Val, not in a field of its own, so a
// BatchWrite stays eight words: every write path copies it by value.
type BatchWrite struct {
	Table    *Table
	PartKey  string
	Key      string
	Val      Value
	Del      bool
	IfAbsent bool
	Edit     bool
}

// Editor is an edited row's Val (BatchWrite.Edit): it computes the row's
// next value from its committed one at the chain's head, under the
// exclusive lock the head has just taken, so no other transaction's write
// can fall between the value it reads and the one it prepares. An update's
// edit returns the value to prepare. A delete's edit is handed the
// pre-image and its value is ignored; the head sends the pre-image back to
// the coordinator, one message in parallel with the rest of the chain, as
// NDB returns a read-before-delete from the primary. An error refuses the
// row as ErrRowExists refuses an insert, and the transaction aborts with
// that error. Edit sees the committed value, never one its own transaction
// has staged.
type Editor interface {
	Edit(committed Value) (Value, error)
}

// WriteBatch executes all mutations at once: rows are grouped by replica
// chain, each chain's rows are locked and prepared by one pass down the chain
// carrying the whole row train, and distinct chains proceed concurrently. A
// one-row batch is a single write. Any failure — an unreachable replica, a
// lock timeout on any row or a refused row — aborts the transaction
// exactly as a sequence of one-row batches would, returning the error of the
// first failed row in request order. With write batching disabled the batch
// is that sequence: one Prepare pass and, at commit, one train per row.
func (t *Txn) WriteBatch(items []BatchWrite) error {
	if t.done {
		return ErrAborted
	}
	if !t.c.cfg.DisableBatchedWrites {
		return t.writeBatch(items)
	}
	for i := range items {
		if err := t.writeBatch(items[i : i+1]); err != nil {
			return err
		}
	}
	return nil
}

// writeBatch is one batched write: one coordinator pass and one fan-out of
// the rows' trains.
func (t *Txn) writeBatch(items []BatchWrite) error {
	if len(items) == 0 {
		return nil
	}
	t.c.Stats.Rounds++
	// One coordinator pass routes the whole row train (§II-B: a multi-row
	// TCKEYREQ is a single TC job, not one per row).
	t.tc.use(t.p, TC, t.c.cfg.Costs.TCOp)

	sc := t.c.scratch.get()
	defer t.c.putScratch(sc)
	sc.t, sc.kind = t, writeRows
	// Rows join their trains in request order, so a train's unprepared rows
	// are its group's rows, position for position.
	groups, ok := groupByTarget(sc, len(items), func(i int) (*DataNode, *train) {
		tr := t.stage(&items[i])
		if tr == nil {
			return nil, nil
		}
		// Writes lock on the acting primary: the chain's head.
		return tr.chain[0], tr
	})
	if !ok {
		return t.failAbort()
	}
	return t.runBatch(sc, groups, len(items))
}
