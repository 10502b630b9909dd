package shard

import (
	"testing"
	"time"

	"hopsfscl/internal/ndb"
	"hopsfscl/internal/sim"
	"hopsfscl/internal/simnet"
)

// crossRename runs, from node origin, a two-writer transaction shaped like a
// rename across the shard boundary — delete key src on shard 0's partition
// pk0, put key dst holding the same identity on shard 1's pk1 — and then
// 50 ms of virtual time, ample for the commit and its clear. after runs in
// the committing process the instant Commit has returned.
func crossRename(t *testing.T, env *sim.Env, r *Router, origin *simnet.Node, ts *TableSet, pk0, src, pk1, dst string, id ident, after func()) {
	t.Helper()
	var err error
	done := false
	env.Spawn("rename", func(p *sim.Proc) {
		var tx ndb.Tx
		if tx, err = r.Begin(p, origin, 1, ts.For(pk0), pk0); err != nil {
			return
		}
		if err = tx.WriteBatch([]ndb.BatchWrite{
			{Table: ts.For(pk0), PartKey: pk0, Key: src, Del: true},
			{Table: ts.For(pk1), PartKey: pk1, Key: dst, Val: id},
		}); err != nil {
			tx.Abort()
			return
		}
		if err = tx.Commit(); err == nil {
			after()
			done = true
		}
	})
	env.RunFor(50 * time.Millisecond)
	if !done {
		t.Fatalf("cross-shard rename did not finish: %v", err)
	}
}

// TestCrossCommitReturnsBeforeClear: a two-writer commit returns while its
// intent record is still stored and queued — the delete is off the
// operation's critical path — and the clearer drains it shortly after,
// leaving no record, no queue entry and no open transaction.
func TestCrossCommitReturnsBeforeClear(t *testing.T) {
	env, r, client := testRouter(t, 2)
	ts := r.NewTableSet("t", 256, ndb.TableOptions{ReadBackup: true})
	pk0, pk1 := keyOnShard(t, r, 0), keyOnShard(t, r, 1)
	inTxn(t, env, r, client, ts, pk0, func(p *sim.Proc, tx ndb.Tx) error {
		if err := put(tx, ts.For(pk0), pk0, "src", ident(7)); err != nil {
			return err
		}
		return tx.Commit()
	})
	pending, queued := -1, -1
	crossRename(t, env, r, client, ts, pk0, "src", pk1, "dst", 7, func() {
		pending, queued = r.PendingIntentCount(), len(r.clears)
	})
	if pending != 1 || queued != 1 {
		t.Fatalf("as the commit returned: %d intents stored, %d queued; want 1 and 1", pending, queued)
	}
	if n := r.PendingIntentCount(); n != 0 || len(r.clears) != 0 {
		t.Fatalf("after the clearer ran: %d intents stored, %d queued; want none", n, len(r.clears))
	}
	for s, c := range r.Clusters() {
		if held, open := c.HeldLocks(), c.InFlightTxns(); len(held) != 0 || open != 0 {
			t.Errorf("shard %d: locks %v, %d transactions in flight", s, held, open)
		}
	}
}

// TestClearerOneTransactionPerShard: clears queued at one instant are
// deleted by one WriteBatch transaction per shard holding records.
func TestClearerOneTransactionPerShard(t *testing.T) {
	env, r, client := testRouter(t, 2)
	perShard := []int{3, 2}
	id := uint64(100)
	var queue []intentClear
	for s, n := range perShard {
		for range n {
			id++
			plantIntent(t, env, r, client, s, &Intent{ID: id, Op: "rename"})
			queue = append(queue, intentClear{shard: s, id: id, origin: client, domain: 1})
		}
	}
	begun := make([]int64, len(perShard))
	for s, c := range r.Clusters() {
		begun[s] = c.Stats.Begun
	}
	env.Spawn("queue", func(p *sim.Proc) {
		for _, c := range queue {
			r.queueClear(c)
		}
	})
	env.RunFor(time.Second)
	if n := r.PendingIntentCount(); n != 0 || len(r.clears) != 0 {
		t.Fatalf("%d intents stored, %d queued after the clearer ran; want none", n, len(r.clears))
	}
	for s, c := range r.Clusters() {
		if got := c.Stats.Begun - begun[s]; got != 1 {
			t.Errorf("shard %d: the clearer ran %d transactions for %d records, want 1", s, got, perShard[s])
		}
	}
}

// TestClearerRetriesFailedDelete: when the clearer's delete fails — the
// node it begins from, the committing namenode's, is gone — the entry stays
// queued, and the round the next queued clear starts deletes both records.
func TestClearerRetriesFailedDelete(t *testing.T) {
	env, r, client := testRouter(t, 2)
	ts := r.NewTableSet("t", 256, ndb.TableOptions{ReadBackup: true})
	pk0, pk1 := keyOnShard(t, r, 0), keyOnShard(t, r, 1)
	crossRename(t, env, r, client, ts, pk0, "a", pk1, "b", 7, client.Fail)
	if n := r.PendingIntentCount(); n != 1 || len(r.clears) != 1 {
		t.Fatalf("after a failed clear: %d intents stored, %d queued; want 1 and 1", n, len(r.clears))
	}
	client.Recover()
	crossRename(t, env, r, client, ts, pk0, "c", pk1, "d", 8, func() {})
	if n := r.PendingIntentCount(); n != 0 || len(r.clears) != 0 {
		t.Fatalf("after the next round: %d intents stored, %d queued; want none", n, len(r.clears))
	}
}

// TestSweepDeletesQueuedIntent: an acked cross-shard rename whose
// destination the client then deletes stays deleted when
// ResolvePendingIntents runs before the clear. The intent's one leg is the
// destination's put; replaying it would roll the deleted destination
// forward again, so the sweep deletes a queued record and never replays it.
func TestSweepDeletesQueuedIntent(t *testing.T) {
	env, r, client := testRouter(t, 2)
	other := r.Cluster(0).Net().NewNode("client2", 1, 3001)
	ts := r.NewTableSet("t", 256, ndb.TableOptions{ReadBackup: true})
	pk0, pk1 := keyOnShard(t, r, 0), keyOnShard(t, r, 1)
	inTxn(t, env, r, client, ts, pk0, func(p *sim.Proc, tx ndb.Tx) error {
		if err := put(tx, ts.For(pk0), pk0, "src", ident(7)); err != nil {
			return err
		}
		return tx.Commit()
	})
	// The committing node fails as the rename is acked, so the clear stays
	// queued with its record stored.
	crossRename(t, env, r, client, ts, pk0, "src", pk1, "dst", 7, client.Fail)
	if n := r.PendingIntentCount(); n != 1 || len(r.clears) != 1 {
		t.Fatalf("%d intents stored, %d queued; want the rename's 1 and 1", n, len(r.clears))
	}
	inTxn(t, env, r, other, ts, pk1, func(p *sim.Proc, tx ndb.Tx) error {
		if err := tx.WriteBatch([]ndb.BatchWrite{{Table: ts.For(pk1), PartKey: pk1, Key: "dst", Del: true}}); err != nil {
			return err
		}
		return tx.Commit()
	})
	if got := resolveAll(t, env, r, other); got != 0 {
		t.Errorf("the sweep replayed %d intents, want 0", got)
	}
	if v, ok := readRow(t, env, r, other, ts, pk1, "dst"); ok {
		t.Errorf("the deleted destination came back: %v", v)
	}
	if n := r.PendingIntentCount(); n != 0 || len(r.clears) != 0 {
		t.Errorf("after the sweep: %d intents stored, %d queued; want none", n, len(r.clears))
	}
}
