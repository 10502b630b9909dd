package shard

import (
	"errors"
	"testing"
	"time"

	"hopsfscl/internal/ndb"
	"hopsfscl/internal/sim"
	"hopsfscl/internal/simnet"
)

// crossRename runs, from node origin, a two-writer transaction shaped like a
// rename across the shard boundary — delete key src on shard 0's partition
// pk0, put key dst holding the same identity on shard 1's pk1 — and returns
// its commit's error after 50 ms of virtual time, ample for the commit and
// its clear. after runs in the committing process the instant the
// transaction has ended.
func crossRename(t *testing.T, env *sim.Env, r *Router, origin *simnet.Node, ts *TableSet, pk0, src, pk1, dst string, id ident, after func()) error {
	t.Helper()
	var err error
	done := false
	env.Spawn("rename", func(p *sim.Proc) {
		tx, beginErr := r.Begin(p, origin, 1, ts.For(pk0), pk0)
		err = ndb.InTx(tx, beginErr, func(tx ndb.Tx) error {
			return tx.WriteBatch([]ndb.BatchWrite{
				{Table: ts.For(pk0), PartKey: pk0, Key: src, Del: true},
				{Table: ts.For(pk1), PartKey: pk1, Key: dst, Val: id},
			})
		})
		after()
		done = true
	})
	env.RunFor(50 * time.Millisecond)
	if !done {
		t.Fatalf("cross-shard rename did not finish: %v", err)
	}
	return err
}

// seedSrc commits key src holding identity id on shard 0's partition pk0.
func seedSrc(t *testing.T, env *sim.Env, r *Router, client *simnet.Node, ts *TableSet, pk0, src string, id ident) {
	t.Helper()
	inTxn(t, env, r, client, ts, pk0, func(p *sim.Proc, tx ndb.Tx) error {
		if err := put(tx, ts.For(pk0), pk0, src, id); err != nil {
			return err
		}
		return tx.Commit()
	})
}

// TestCrossCommitReturnsCleared: a two-writer commit returns with its intent
// record and marker already deleted, every lock released and no transaction
// in flight — nothing is left for a background process to finish.
func TestCrossCommitReturnsCleared(t *testing.T) {
	env, r, client := testRouter(t, 2)
	ts := r.NewTableSet("t", 256, ndb.TableOptions{ReadBackup: true})
	pk0, pk1 := keyOnShard(t, r, 0), keyOnShard(t, r, 1)
	seedSrc(t, env, r, client, ts, pk0, "src", 7)
	pending := -1
	var held [2][]string
	var open [2]int64
	err := crossRename(t, env, r, client, ts, pk0, "src", pk1, "dst", 7, func() {
		pending = r.PendingIntentCount()
		for s, c := range r.Clusters() {
			held[s], open[s] = c.HeldLocks(), c.InFlightTxns()
		}
	})
	if err != nil {
		t.Fatalf("cross-shard rename: %v", err)
	}
	if pending != 0 {
		t.Errorf("as the commit returned: %d intent rows stored, want none", pending)
	}
	for s := range held {
		if len(held[s]) != 0 || open[s] != 0 {
			t.Errorf("as the commit returned, shard %d: locks %v, %d transactions in flight", s, held[s], open[s])
		}
	}
}

// TestSweepSkipsAppliedLeg: the committing node fails after the last leg has
// committed, so neither the rename's ack nor its clear gets through and the
// record and the leg's marker stay. A client then deletes the destination
// from another node. The sweep must not replay the marked leg — that would
// roll the deleted destination forward again — and leaves no row behind.
func TestSweepSkipsAppliedLeg(t *testing.T) {
	env, r, client := testRouter(t, 2)
	other := r.Cluster(0).Net().NewNode("client2", 1, 3001)
	ts := r.NewTableSet("t", 256, ndb.TableOptions{ReadBackup: true})
	pk0, pk1 := keyOnShard(t, r, 0), keyOnShard(t, r, 1)
	seedSrc(t, env, r, client, ts, pk0, "src", 7)
	// The record and the marker both stored means the last leg has
	// committed: the committing node fails at that instant.
	env.Spawn("kill", func(p *sim.Proc) {
		for deadline := p.Now() + 50*time.Millisecond; r.PendingIntentCount() < 2 && p.Now() < deadline; {
			p.Sleep(10 * time.Microsecond)
		}
		client.Fail()
	})
	if err := crossRename(t, env, r, client, ts, pk0, "src", pk1, "dst", 7, func() {}); !errors.Is(err, ErrIndeterminate) {
		t.Fatalf("rename with its node failed after the last leg: %v, want ErrIndeterminate", err)
	}
	if n := r.PendingIntentCount(); n != 2 {
		t.Fatalf("%d intent rows stored, want the rename's record and marker", n)
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
	if n := r.PendingIntentCount(); n != 0 {
		t.Errorf("after the sweep: %d intent rows stored, want none", n)
	}
}

// TestSweepDeletesOrphanMarker: a marker whose record is gone — its commit
// deleted the record and then failed to delete the marker — is deleted by
// the sweep, which replays nothing.
func TestSweepDeletesOrphanMarker(t *testing.T) {
	env, r, client := testRouter(t, 2)
	pk1 := keyOnShard(t, r, 1)
	plant(t, env, r, client, 1, r.markerWrite(0, 42, IntentLeg{Shard: 1, Rows: []IntentRow{{PartKey: pk1}}}))
	if n := r.PendingIntentCount(); n != 1 {
		t.Fatalf("%d intent rows stored, want the planted marker", n)
	}
	if got := resolveAll(t, env, r, client); got != 0 {
		t.Errorf("the sweep replayed %d intents, want 0", got)
	}
	if n := r.PendingIntentCount(); n != 0 {
		t.Errorf("after the sweep: %d intent rows stored, want none", n)
	}
}

// TestMarkerRidesLegTrain: a leg's marker, partitioned with the leg's first
// row, joins that row's commit train, so the leg's CommitHolding sends as
// many messages with its marker as without it.
func TestMarkerRidesLegTrain(t *testing.T) {
	env, r, client := testRouter(t, 2)
	for _, c := range r.Clusters() {
		c.StopBackground()
	}
	ts := r.NewTableSet("t", 256, ndb.TableOptions{ReadBackup: true})
	pk1 := keyOnShard(t, r, 1)
	c, net := r.Cluster(1), r.Cluster(1).Net()
	var sent [2]int64
	env.Spawn("legs", func(p *sim.Proc) {
		for i, withMarker := range []bool{false, true} {
			tx, err := c.Begin(p, client, 1, ts.At(1), pk1)
			if err == nil {
				err = put(tx, ts.At(1), pk1, "row", ident(i+1))
			}
			if err == nil && withMarker {
				err = tx.WriteBatch([]ndb.BatchWrite{r.markerWrite(0, 1, IntentLeg{Shard: 1, Rows: []IntentRow{{PartKey: pk1}}})})
			}
			if err != nil {
				t.Errorf("staging leg %d: %v", i, err)
				return
			}
			before := net.TotalMessages()
			if err := tx.CommitHolding(); err != nil {
				t.Errorf("leg %d: CommitHolding: %v", i, err)
				return
			}
			sent[i] = net.TotalMessages() - before
			tx.Release()
		}
	})
	env.RunFor(time.Second)
	if sent[0] == 0 || sent[1] != sent[0] {
		t.Fatalf("CommitHolding sent %d messages with the marker, %d without; want the same, and some", sent[1], sent[0])
	}
}
