package ndb

import "hopsfscl/internal/sim"

// This file implements the batched write path: the write-side twin of
// batch.go. Real NDB packs operations destined for the same datanode into
// one TCKEYREQ train, which is what the HopsFS line of work leans on for
// multi-row metadata transactions (HopsFS §3.2.2). WriteBatch stages N
// exclusive-locked writes with one message pair per primary datanode
// instead of one serial TC round trip per row; Commit then coalesces staged
// rows that share a replica chain into commit trains (see buildTrains in
// txn.go). Locking still goes through lockRow per row, so the contention
// ledger, lock-wait accounting, and deadlock (timeout) behavior are exactly
// those of the serial path.

// BatchWrite names one row of a WriteBatch: an insert/update (Del false)
// or a delete (Del true), staged under an exclusive lock like Write.
type BatchWrite struct {
	Table   *Table
	PartKey string
	Key     string
	Val     Value
	Del     bool
}

// WriteBatch stages all mutations at once: rows are grouped by primary
// datanode, each group's locks are acquired with one request/response pair
// carrying the whole row train, and distinct primaries proceed
// concurrently. A single-row batch is message-for-message identical to
// Write. Any failure — unreachable primary or a lock timeout on any row —
// aborts the transaction exactly as the serial path would, returning the
// error of the first failed row in request order.
func (t *Txn) WriteBatch(items []BatchWrite) error {
	if t.done {
		return ErrAborted
	}
	if len(items) == 0 {
		return nil
	}
	if t.c.cfg.DisableBatchedWrites {
		// The serial reference path: one TC round trip per row, exactly as
		// independent Write calls would issue.
		for _, it := range items {
			if err := t.Write(it.Table, it.PartKey, it.Key, it.Val, it.Del); err != nil {
				return err
			}
		}
		return nil
	}
	cfg := &t.c.cfg
	t.c.Stats.Rounds++
	// One coordinator pass routes the whole row train (§II-B: a multi-row
	// TCKEYREQ is a single TC job, not one per row).
	t.tc.use(t.p, TC, cfg.Costs.TCOp)

	sc := t.c.scratch.get()
	defer t.c.scratch.put(sc)
	parts := zeroed(&sc.parts, len(items))
	groups, ok := groupByTarget(sc, len(items), func(i int) (*DataNode, bool) {
		part := items[i].Table.partitionFor(items[i].PartKey)
		t.heatTouch(part)
		parts[i] = part
		reps := part.replicas()
		if len(reps) == 0 {
			return nil, false
		}
		// Writes always lock on the acting primary, as Write does.
		return reps[0], true
	})
	if !ok {
		return t.failAbort()
	}

	errs := zeroed(&sc.errs, len(items))
	serve := func(p *sim.Proc, g *batchGroup) bool {
		req := trainReq(g)
		for _, i := range g.idx {
			req += items[i].Table.rowSize
		}
		if !t.sendTo(p, g.target, req) {
			errs[g.idx[0]] = ErrNodeUnavailable
			return false
		}
		for _, i := range g.idx {
			// Per-row locking: conflicts, the ledger, and the deadlock
			// timeout behave exactly as on the serial path. A failure stops
			// this group where a serial Write sequence would have stopped.
			if err := t.lockRowOn(p, parts[i], items[i].PartKey, items[i].Key, LockExclusive); err != nil {
				errs[i] = err
				return false
			}
			g.target.use(p, LDM, cfg.Costs.LDMWrite)
			t.c.Stats.Writes++
		}
		if !t.replyFrom(p, g.target, ackSize) {
			errs[g.idx[0]] = ErrNodeUnavailable
			return false
		}
		return true
	}
	if !t.runBatch("write", groups, len(items), serve) {
		return t.abortBatch(errs)
	}
	// Stage positionally only after every group succeeded, in request
	// order, so commit-train packing is deterministic and matches the order
	// serial Writes would have staged.
	for i := range items {
		t.writes = append(t.writes, writeOp{part: parts[i], pk: items[i].PartKey, key: items[i].Key, val: items[i].Val, del: items[i].Del})
	}
	return nil
}
