package ndb

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"hopsfscl/internal/sim"
	"hopsfscl/internal/simnet"
	"hopsfscl/internal/trace"
)

// measureTxnMessages runs one transaction writing len(pks) rows (row i in
// partition pks[i]) and returns the wire messages spent executing the writes
// (WriteBatch: the Prepare passes) and committing them (the Commit and
// Complete passes and the Ack), with the batched write path on or off. pksFor
// receives the created table so callers can pick partition keys by replica
// geometry.
func measureTxnMessages(t *testing.T, serial bool, pksFor func(tbl *Table) []string) (write, commit int64) {
	t.Helper()
	env, c, client := testClusterCfg(t, true, 3, func(cfg *Config) { cfg.DisableBatchedWrites = serial })
	c.StopBackground()
	env.RunFor(time.Second) // drain housekeeping
	tbl := c.CreateTable("t", 64, TableOptions{ReadBackup: true})
	pks := pksFor(tbl)
	done := false
	env.Spawn("txn", func(p *sim.Proc) {
		tx, err := c.Begin(p, client, 1, tbl, pks[0])
		if err != nil {
			t.Error(err)
			return
		}
		items := make([]BatchWrite, len(pks))
		for i, pk := range pks {
			items[i] = BatchWrite{Table: tbl, PartKey: pk, Key: fmt.Sprintf("k%d", i), Val: "v"}
		}
		p.Flush()
		before := c.net.TotalMessages()
		if err := tx.WriteBatch(items); err != nil {
			t.Error(err)
			return
		}
		p.Flush()
		write = c.net.TotalMessages() - before
		before = c.net.TotalMessages()
		if err := tx.Commit(); err != nil {
			t.Error(err)
			return
		}
		p.Flush()
		commit = c.net.TotalMessages() - before
		done = true
	})
	env.RunFor(time.Minute)
	if !done {
		t.Fatalf("txn (serial=%v, %d rows) did not complete", serial, len(pks))
	}
	return write, commit
}

// repeatPK returns n copies of one partition key: n rows sharing a replica
// chain.
func repeatPK(pk string, n int) func(*Table) []string {
	return func(*Table) []string {
		pks := make([]string, n)
		for i := range pks {
			pks[i] = pk
		}
		return pks
	}
}

// crossGroupPKs returns n rows split evenly between partition "p" and a
// partition whose primary lives in the other node group — two distinct
// replica chains.
func crossGroupPKs(t *testing.T, n int) func(*Table) []string {
	return func(tbl *Table) []string {
		t.Helper()
		primA := tbl.PrimaryFor("p")
		other := ""
		for i := 0; i < 64 && other == ""; i++ {
			cand := fmt.Sprintf("q%d", i)
			if dn := tbl.PrimaryFor(cand); dn != nil && dn.Group != primA.Group {
				other = cand
			}
		}
		if other == "" {
			t.Fatal("no partition key with a primary in the other node group")
		}
		pks := make([]string, n)
		for i := range pks {
			if i < n/2 {
				pks[i] = "p"
			} else {
				pks[i] = other
			}
		}
		return pks
	}
}

// TestCommitTrainMessageCounts extends TestCommitProtocolMessageCount into a
// regression suite pinning the exact wire footprint of a write transaction
// after Begin (Figure 2 geometry: RF 3, Read Backup — 4 messages per Prepare
// pass as the writes execute, 8 signals per train at commit, plus the client
// Ack). The TC is the AZ-local backup of partition "p", so a train on that
// chain exchanges its own Complete/Completed pair as local signals, off the
// wire: 6 messages at commit, 8 for a train on a chain the TC is not on.
//
//   - 1 row: 4 + 7 = 11 messages, batched and serial identical message for
//     message,
//   - 8 rows sharing one replica chain: one train, 11 messages, vs 8 serial
//     Prepare passes and 8 one-row trains, 32 + 49 = 81,
//   - 8 rows across two node groups: two trains, 2x4 + 6 + 8 + 1 = 23, vs
//     32 + 4x6 + 4x8 + 1 = 89.
func TestCommitTrainMessageCounts(t *testing.T) {
	for _, tc := range []struct {
		name                string
		pks                 func(*Table) []string
		write, commit       int64
		serWrite, serCommit int64
	}{
		{"1 row", repeatPK("p", 1), 4, 7, 4, 7},
		{"8 rows, one chain", repeatPK("p", 8), 4, 7, 32, 49},
		{"8 rows, two node groups", crossGroupPKs(t, 8), 8, 15, 32, 57},
	} {
		write, commit := measureTxnMessages(t, false, tc.pks)
		if write != tc.write || commit != tc.commit {
			t.Errorf("%s batched: write + commit = %d + %d messages, want %d + %d",
				tc.name, write, commit, tc.write, tc.commit)
		}
		write, commit = measureTxnMessages(t, true, tc.pks)
		if write != tc.serWrite || commit != tc.serCommit {
			t.Errorf("%s serial: write + commit = %d + %d messages, want %d + %d",
				tc.name, write, commit, tc.serWrite, tc.serCommit)
		}
	}
}

// seededWBCluster builds the testCluster geometry under an arbitrary
// simulation seed, with the batched write path on or off.
func seededWBCluster(t *testing.T, seed int64, serial bool) (*sim.Env, *Cluster, *simnet.Node) {
	t.Helper()
	env := sim.New(seed)
	t.Cleanup(env.Close)
	net := simnet.New(env, simnet.USWest1())
	cfg := DefaultConfig()
	cfg.DataNodes = 6
	cfg.Replication = 3
	cfg.PartitionsPerTable = 12
	cfg.AZAware = true
	cfg.DisableBatchedWrites = serial
	data := SpreadPlacement(cfg.DataNodes, []simnet.ZoneID{1, 2, 3}, 100)
	mgmt := []Placement{{Zone: 1, Host: 200}, {Zone: 2, Host: 201}, {Zone: 3, Host: 202}}
	c, err := New(env, net, cfg, data, mgmt)
	if err != nil {
		t.Fatal(err)
	}
	return env, c, net.NewNode("client", 1, 300)
}

// TestWriteBatchSerialEquivalenceAcrossSeeds drives an identical randomized
// sequence of multi-row transactions (inserts, updates, deletes over several
// partitions) through a batched and a serial cluster for each seed and
// requires byte-identical final table state: coalescing rows into trains
// must never change what commits.
func TestWriteBatchSerialEquivalenceAcrossSeeds(t *testing.T) {
	for seed := int64(1); seed <= 7; seed++ {
		run := func(serial bool) map[string]string {
			env, c, client := seededWBCluster(t, seed, serial)
			c.StopBackground()
			env.RunFor(time.Second)
			tbl := c.CreateTable("t", 64, TableOptions{ReadBackup: true})
			rng := rand.New(rand.NewSource(seed * 77))
			type txnSpec struct{ items []BatchWrite }
			txns := make([]txnSpec, 30)
			for i := range txns {
				n := 1 + rng.Intn(6)
				items := make([]BatchWrite, 0, n)
				used := map[string]bool{}
				for len(items) < n {
					pk := fmt.Sprintf("p%d", rng.Intn(3))
					key := fmt.Sprintf("k%d", rng.Intn(10))
					if used[pk+key] {
						continue
					}
					used[pk+key] = true
					items = append(items, BatchWrite{
						Table: tbl, PartKey: pk, Key: key,
						Val: fmt.Sprintf("v%d-%d", i, len(items)),
						Del: rng.Intn(5) == 0,
					})
				}
				txns[i] = txnSpec{items: items}
			}
			done := false
			env.Spawn("driver", func(p *sim.Proc) {
				for _, spec := range txns {
					tx, err := c.Begin(p, client, 1, tbl, spec.items[0].PartKey)
					if err != nil {
						t.Error(err)
						return
					}
					if err := tx.WriteBatch(spec.items); err != nil {
						t.Error(err)
						return
					}
					if err := tx.Commit(); err != nil {
						t.Error(err)
						return
					}
				}
				done = true
			})
			env.RunFor(time.Minute)
			if !done {
				t.Fatalf("seed %d (serial=%v): driver did not complete", seed, serial)
			}
			out := make(map[string]string)
			tbl.ForEachCommitted(func(pk, key string, val Value) {
				out[pk+"|"+key] = fmt.Sprint(val)
			})
			return out
		}
		batched, serial := run(false), run(true)
		if len(batched) != len(serial) {
			t.Fatalf("seed %d: %d rows batched vs %d serial", seed, len(batched), len(serial))
		}
		for k, v := range serial {
			if batched[k] != v {
				t.Fatalf("seed %d: row %s = %q batched vs %q serial", seed, k, batched[k], v)
			}
		}
	}
}

// TestWriteBatchLockTimeoutAborts pins the lock-conflict semantics of the
// batched path: a WriteBatch containing a row another transaction holds
// exclusively times out with ErrLockTimeout exactly as one-row batches would,
// the transaction aborts, and every lock the batch had already taken is
// released.
func TestWriteBatchLockTimeoutAborts(t *testing.T) {
	env, c, client := testCluster(t, true, 3)
	tbl := c.CreateTable("t", 64, TableOptions{ReadBackup: true})
	var waiterErr error
	env.Spawn("holder", func(p *sim.Proc) {
		tx, err := c.Begin(p, client, 1, tbl, "p")
		if err != nil {
			t.Error(err)
			return
		}
		if err := put(tx, tbl, "p", "k2", "h"); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(500 * time.Millisecond) // far beyond lockTimeout
		if err := tx.Commit(); err != nil {
			t.Error(err)
		}
	})
	env.Spawn("waiter", func(p *sim.Proc) {
		p.Sleep(10 * time.Millisecond)
		tx, err := c.Begin(p, client, 1, tbl, "p")
		if err != nil {
			t.Error(err)
			return
		}
		items := make([]BatchWrite, 5)
		for i := range items {
			items[i] = BatchWrite{Table: tbl, PartKey: "p", Key: fmt.Sprintf("k%d", i), Val: "w"}
		}
		waiterErr = tx.WriteBatch(items)
	})
	env.RunFor(2 * time.Second)
	if !errors.Is(waiterErr, ErrLockTimeout) {
		t.Fatalf("waiter error = %v, want ErrLockTimeout", waiterErr)
	}
	// The aborted batch must have released k0/k1 (taken before it hit the
	// held k2): a fresh transaction locks all five rows without waiting.
	inTxn(t, env, c, client, 1, tbl, "p", func(p *sim.Proc, tx *Txn) error {
		items := make([]BatchWrite, 5)
		for i := range items {
			items[i] = BatchWrite{Table: tbl, PartKey: "p", Key: fmt.Sprintf("k%d", i), Val: "after"}
		}
		if err := tx.WriteBatch(items); err != nil {
			return err
		}
		return tx.Commit()
	})
}

// TestWriteBatchUnavailablePrimaryAborts: a row whose whole node group is
// down fails the batch with ErrNodeUnavailable, exactly as a one-row batch
// would.
func TestWriteBatchUnavailablePrimaryAborts(t *testing.T) {
	env, c, client := testCluster(t, true, 3)
	tbl := c.CreateTable("t", 64, TableOptions{ReadBackup: true})
	part := tbl.partitionFor("p")
	for _, dn := range c.groups[part.group] {
		dn.Node.Fail()
	}
	env.RunFor(2 * time.Second) // let heartbeats declare the group dead
	hint := ""
	for i := 0; i < 64 && hint == ""; i++ {
		if cand := fmt.Sprintf("q%d", i); tbl.PrimaryFor(cand) != nil {
			hint = cand
		}
	}
	if hint == "" {
		t.Fatal("no partition left alive for the transaction hint")
	}
	var got error
	ran := false
	env.Spawn("txn", func(p *sim.Proc) {
		tx, err := c.Begin(p, client, 1, tbl, hint)
		if err != nil {
			t.Error(err)
			return
		}
		got = tx.WriteBatch([]BatchWrite{
			{Table: tbl, PartKey: hint, Key: "ok", Val: "v"},
			{Table: tbl, PartKey: "p", Key: "dead", Val: "v"},
		})
		ran = true
	})
	env.RunFor(time.Minute)
	if !ran {
		t.Fatal("txn did not run")
	}
	if !errors.Is(got, ErrNodeUnavailable) {
		t.Fatalf("WriteBatch error = %v, want ErrNodeUnavailable", got)
	}
}

// TestFireAndForgetCompleteAttributed pins the per-operation accounting fix
// for fire-and-forget Complete messages: on a non-Read-Backup table the TC
// sends Complete to the backups without awaiting them, and those messages
// must still be attributed to the operation's span. Every wire message of
// the write and its commit — protocol, Complete, and client Ack — shows up in
// the span's hop counts, so the span total reconciles exactly with the
// network's message counter.
func TestFireAndForgetCompleteAttributed(t *testing.T) {
	env, c, client := testCluster(t, true, 3)
	reg := trace.NewRegistry()
	tracer := trace.NewTracer(reg)
	c.SetTracer(tracer)
	tracer.EnableSink(4)
	c.StopBackground()
	env.RunFor(time.Second)
	tbl := c.CreateTable("t", 64, TableOptions{}) // no Read Backup: Complete is fire-and-forget
	hopTotal := func(sp *trace.Span) int64 {
		var n int64
		for _, h := range sp.HopCount {
			n += h
		}
		return n
	}
	var spanMsgs, netMsgs int64
	done := false
	env.Spawn("txn", func(p *sim.Proc) {
		sp := tracer.StartOp("op", p.EffNow())
		prev := p.SetSpan(sp)
		defer func() {
			p.SetSpan(prev)
			sp.Finish(p.EffNow())
		}()
		tx, err := c.Begin(p, client, 1, tbl, "p")
		if err != nil {
			t.Error(err)
			return
		}
		p.Flush()
		netBefore := c.net.TotalMessages()
		spanBefore := hopTotal(sp)
		if err := put(tx, tbl, "p", "k", "v"); err != nil {
			t.Error(err)
			return
		}
		if err := tx.Commit(); err != nil {
			t.Error(err)
			return
		}
		p.Flush()
		netMsgs = c.net.TotalMessages() - netBefore
		spanMsgs = hopTotal(sp) - spanBefore
		done = true
	})
	env.RunFor(time.Minute)
	if !done {
		t.Fatal("txn did not complete")
	}
	// RF 3 without Read Backup: 4 Prepare/Prepared as the write executes,
	// 4 Commit/Committed, 1 Complete — the other goes to the TC's own
	// replica, a local signal — and 1 Ack.
	if netMsgs != 10 {
		t.Fatalf("write + commit used %d network messages, want 10", netMsgs)
	}
	if spanMsgs != netMsgs {
		t.Fatalf("span attributed %d messages, network saw %d — fire-and-forget Complete lost", spanMsgs, netMsgs)
	}
}

// redoPending sums the REDO bytes awaiting the next global checkpoint on the
// given datanodes.
func redoPending(dns []*DataNode) (n int64) {
	for _, dn := range dns {
		n += dn.redoPending
	}
	return n
}

// TestWriteIsPrepare pins the mechanism: executing a write prepares it. When
// WriteBatch returns, its train has walked the chain once — len(chain)+1
// messages — every replica of the chain holds the rows' REDO bytes, the rows
// are exclusively locked, and they still read as their old committed value.
// Commit then adds exactly the two remaining passes and the Ack, logs
// nothing, and makes the rows visible.
func TestWriteIsPrepare(t *testing.T) {
	env, c, client := testCluster(t, true, 3)
	c.StopBackground()
	env.RunFor(time.Second) // drain housekeeping: no heartbeats, no checkpoint flush
	tbl := c.CreateTable("t", 64, TableOptions{ReadBackup: true})
	StoreDirect(tbl, "p", "old", "before")
	done := false
	env.Spawn("txn", func(p *sim.Proc) {
		tx, err := c.Begin(p, client, 1, tbl, "p")
		if err != nil {
			t.Error(err)
			return
		}
		chain := tbl.partitionFor("p").replicas()
		p.Flush()
		msgs, redo := c.net.TotalMessages(), redoPending(chain)
		err = tx.WriteBatch([]BatchWrite{
			{Table: tbl, PartKey: "p", Key: "old", Val: "after"},
			{Table: tbl, PartKey: "p", Key: "new", Val: "after"},
		})
		if err != nil {
			t.Error(err)
			return
		}
		p.Flush()
		if got, want := c.net.TotalMessages()-msgs, int64(len(chain)+1); got != want {
			t.Errorf("WriteBatch exchanged %d messages, want %d (one Prepare pass down a chain of %d)", got, want, len(chain))
		}
		if got, want := redoPending(chain)-redo, int64(2*64*len(chain)); got != want {
			t.Errorf("WriteBatch left %d REDO bytes pending on the chain, want %d (2 rows on each of %d replicas)", got, want, len(chain))
		}
		if len(tx.trains) != 1 || tx.trains[0].prepared != 2 || !slices.Equal(tx.trains[0].chain, chain) {
			t.Errorf("trains after WriteBatch = %+v, want one train of 2 prepared rows on the partition's chain", tx.trains)
		}
		part := tbl.partitionFor("p")
		for _, key := range []string{"old", "new"} {
			if mode := part.lookup("p", key).lock.held(tx.id); mode != LockExclusive {
				t.Errorf("row %q held in mode %d after WriteBatch, want exclusive", key, mode)
			}
		}
		if v, ok := part.committed("p", "old"); !ok || v != "before" {
			t.Errorf("prepared row reads (%v, %v) before commit, want its old committed value", v, ok)
		}
		if _, ok := part.committed("p", "new"); ok {
			t.Error("prepared insert is visible before commit")
		}
		msgs, redo = c.net.TotalMessages(), redoPending(chain)
		if err := tx.Commit(); err != nil {
			t.Error(err)
			return
		}
		p.Flush()
		// Commit x3 + Committed, Complete x2 + Completed x2, Ack: 9 signals
		// at RF 3, the TC's own Complete/Completed pair local (the TC is a
		// backup), so 7 messages.
		if got, want := c.net.TotalMessages()-msgs, int64(len(chain)+1+2*(len(chain)-2)+1); got != want {
			t.Errorf("Commit exchanged %d messages, want %d", got, want)
		}
		if got := redoPending(chain) - redo; got != 0 {
			t.Errorf("Commit logged %d REDO bytes: it ran a Prepare pass", got)
		}
		for _, key := range []string{"old", "new"} {
			if v, ok := part.committed("p", key); !ok || v != "after" {
				t.Errorf("row %q reads (%v, %v) after commit, want after", key, v, ok)
			}
		}
		done = true
	})
	env.RunFor(time.Minute)
	if !done {
		t.Fatal("txn did not complete")
	}
}

// TestPreparedChainChangeAborts pins the first safety rule of write-is-
// prepare: a train commits only on the chain it was prepared on. A replica of
// the chain — a backup, or the primary — crashes between the write and the
// commit; Commit fails with ErrNodeUnavailable before anything is applied,
// the row stays absent and unlocked, and a fresh transaction commits it on
// the surviving chain.
func TestPreparedChainChangeAborts(t *testing.T) {
	for _, slot := range []int{0, 1} {
		env, c, client := testCluster(t, true, 3)
		c.StopBackground()
		env.RunFor(time.Second)
		tbl := c.CreateTable("t", 64, TableOptions{ReadBackup: true})
		done := false
		env.Spawn("txn", func(p *sim.Proc) {
			tx, err := c.Begin(p, client, 1, tbl, "p")
			if err != nil {
				t.Error(err)
				return
			}
			// The victim is the primary (slot 0) or the first backup that is
			// not coordinating: the coordinator's own failure is §5b's case.
			victim := tbl.partitionFor("p").replicas()[slot]
			if victim == tx.Coordinator() {
				victim = tbl.partitionFor("p").replicas()[slot+1]
			}
			if err := tx.WriteBatch([]BatchWrite{{Table: tbl, PartKey: "p", Key: "k", Val: "v"}}); err != nil {
				t.Error(err)
				return
			}
			p.Flush()
			victim.Node.Fail()
			if err := tx.Commit(); !errors.Is(err, ErrNodeUnavailable) {
				t.Errorf("slot %d: Commit on a changed chain = %v, want ErrNodeUnavailable", slot, err)
				return
			}
			if _, ok := tbl.partitionFor("p").committed("p", "k"); ok {
				t.Errorf("slot %d: the refused commit applied its row", slot)
			}
			retry, err := c.Begin(p, client, 1, tbl, "p")
			if err != nil {
				t.Error(err)
				return
			}
			p.Flush()
			start := p.Now()
			if _, ok, err := readLocked(retry, tbl, "p", "k", LockExclusive); err != nil || ok {
				t.Errorf("slot %d: locked read after the abort = (found %v, %v), want an absent row", slot, ok, err)
				return
			}
			p.Flush()
			if waited := p.Now() - start; waited > 5*time.Millisecond {
				t.Errorf("slot %d: the lock took %v: the aborted transaction still held it", slot, waited)
			}
			if err := put(retry, tbl, "p", "k", "v2"); err != nil {
				t.Error(err)
				return
			}
			if len(retry.trains[0].chain) != 2 {
				t.Errorf("slot %d: retry prepared on a chain of %d, want the 2 survivors", slot, len(retry.trains[0].chain))
			}
			if err := retry.Commit(); err != nil {
				t.Errorf("slot %d: retry on the surviving chain: %v", slot, err)
				return
			}
			if v, ok := tbl.partitionFor("p").committed("p", "k"); !ok || v != "v2" {
				t.Errorf("slot %d: row reads (%v, %v) after the retry, want v2", slot, v, ok)
			}
			done = true
		})
		env.RunFor(time.Minute)
		if !done {
			t.Fatalf("slot %d: did not complete", slot)
		}
	}
}

// TestRejoinedChainRefusesCommit: a train prepared on a chain shortened by a
// failed replica may not commit once the replica has rejoined, with no
// failure between Prepare and Commit: the rejoined node holds no prepared
// row, so committing on the old chain would leave it without the write
// (§10's rule 1). Commit answers ErrNodeUnavailable, applies nothing and
// leaves no lock held.
func TestRejoinedChainRefusesCommit(t *testing.T) {
	env, c, client := testCluster(t, true, 3)
	c.StopBackground()
	env.RunFor(time.Second)
	tbl := c.CreateTable("t", 64, TableOptions{ReadBackup: true})
	done := false
	env.Spawn("txn", func(p *sim.Proc) {
		tx, err := c.Begin(p, client, 1, tbl, "p")
		if err != nil {
			t.Error(err)
			return
		}
		victim := tbl.partitionFor("p").replicas()[0]
		if victim == tx.Coordinator() {
			victim = tbl.partitionFor("p").replicas()[1]
		}
		victim.Node.Fail()
		if err := tx.WriteBatch([]BatchWrite{{Table: tbl, PartKey: "p", Key: "k", Val: "v"}}); err != nil {
			t.Error(err)
			return
		}
		if n := len(tx.trains[0].chain); n != 2 {
			t.Errorf("prepared on a chain of %d, want the 2 survivors", n)
			return
		}
		c.Rejoin(p, victim)
		if n := len(tbl.partitionFor("p").replicas()); n != 3 {
			t.Errorf("%d replicas after the rejoin, want 3", n)
			return
		}
		if err := tx.Commit(); !errors.Is(err, ErrNodeUnavailable) {
			t.Errorf("Commit on a rejoined chain = %v, want ErrNodeUnavailable", err)
		}
		if _, ok := tbl.partitionFor("p").committed("p", "k"); ok {
			t.Error("the refused commit applied its row")
		}
		if held := c.HeldLocks(); len(held) != 0 {
			t.Errorf("locks survive the refused commit: %v", held)
		}
		done = true
	})
	env.RunFor(time.Minute)
	if !done {
		t.Fatal("did not complete")
	}
}

// TestSecondWriteBatchJoinsItsTrain: a later batch on a chain the transaction
// has already prepared rows on walks the chain for its new rows only, and all
// of them commit as one train.
func TestSecondWriteBatchJoinsItsTrain(t *testing.T) {
	env, c, client := testCluster(t, true, 3)
	c.StopBackground()
	env.RunFor(time.Second)
	tbl := c.CreateTable("t", 64, TableOptions{ReadBackup: true})
	batch := func(from, to int) []BatchWrite {
		var items []BatchWrite
		for i := from; i < to; i++ {
			items = append(items, BatchWrite{Table: tbl, PartKey: "p", Key: fmt.Sprintf("k%d", i), Val: "v"})
		}
		return items
	}
	done := false
	env.Spawn("txn", func(p *sim.Proc) {
		tx, err := c.Begin(p, client, 1, tbl, "p")
		if err != nil {
			t.Error(err)
			return
		}
		if err := tx.WriteBatch(batch(0, 2)); err != nil {
			t.Error(err)
			return
		}
		chain := tbl.partitionFor("p").replicas()
		p.Flush()
		msgs, redo := c.net.TotalMessages(), redoPending(chain)
		if err := tx.WriteBatch(batch(2, 5)); err != nil {
			t.Error(err)
			return
		}
		p.Flush()
		if got := c.net.TotalMessages() - msgs; got != 4 {
			t.Errorf("second batch exchanged %d messages, want 4 (one Prepare pass)", got)
		}
		if got, want := redoPending(chain)-redo, int64(3*64*3); got != want {
			t.Errorf("second batch logged %d REDO bytes, want %d (its 3 new rows on 3 replicas)", got, want)
		}
		if len(tx.trains) != 1 || len(tx.trains[0].rows) != 5 || tx.trains[0].prepared != 5 {
			t.Errorf("trains = %+v, want one train of 5 prepared rows", tx.trains)
		}
		msgs = c.net.TotalMessages()
		if err := tx.Commit(); err != nil {
			t.Error(err)
			return
		}
		p.Flush()
		if got := c.net.TotalMessages() - msgs; got != 7 {
			t.Errorf("commit exchanged %d messages, want 7 (one train, its local Complete off the wire, + Ack)", got)
		}
		for i := 0; i < 5; i++ {
			if _, ok := tbl.partitionFor("p").committed("p", fmt.Sprintf("k%d", i)); !ok {
				t.Errorf("row k%d missing after commit", i)
			}
		}
		done = true
	})
	env.RunFor(time.Minute)
	if !done {
		t.Fatal("txn did not complete")
	}
}

// TestRefusedInsertLeavesNothing: an IfAbsent row that finds its name taken is
// refused at the chain's head — two messages, TC -> primary and the refusal
// back, no replica beyond the primary hears of it — and the abort leaves
// nothing behind on its own chain or on the sibling chains that were prepared
// by the time the refusal arrived: no held lock, no placeholder row for the
// names that never materialized, no entry in the active-operation table, the
// taken row's value untouched. Batched and with write batching disabled.
func TestRefusedInsertLeavesNothing(t *testing.T) {
	for _, serial := range []bool{false, true} {
		env, c, client := testClusterCfg(t, true, 3, func(cfg *Config) { cfg.DisableBatchedWrites = serial })
		c.SetTracer(trace.NewTracer(trace.NewRegistry()))
		c.StopBackground()
		env.RunFor(time.Second)
		tbl := c.CreateTable("t", 64, TableOptions{ReadBackup: true})
		pks := crossGroupPKs(t, 2)(tbl)
		own, sibling := pks[0], pks[1]
		inTxn(t, env, c, client, 1, tbl, own, func(p *sim.Proc, tx *Txn) error {
			if err := put(tx, tbl, own, "taken", "old"); err != nil {
				return err
			}
			return tx.Commit()
		})
		insert := BatchWrite{Table: tbl, PartKey: own, Key: "taken", Val: "new", IfAbsent: true}
		before := c.Stats
		inTxn(t, env, c, client, 1, tbl, own, func(p *sim.Proc, tx *Txn) error {
			p.Flush()
			msgs := c.net.TotalMessages()
			err := tx.WriteBatch([]BatchWrite{insert})
			p.Flush()
			if !errors.Is(err, ErrRowExists) {
				return fmt.Errorf("insert over a committed row: %v, want ErrRowExists", err)
			}
			if n := c.net.TotalMessages() - msgs; n != 2 {
				return fmt.Errorf("a refused insert exchanged %d messages, want 2 (request, refusal)", n)
			}
			if err := tx.Commit(); !errors.Is(err, ErrAborted) {
				return fmt.Errorf("commit after the refusal: %v, want ErrAborted", err)
			}
			return nil
		})
		// The refused row behind a fresh name on its own chain, a fresh name
		// on another node group's chain ahead of both.
		inTxn(t, env, c, client, 1, tbl, own, func(p *sim.Proc, tx *Txn) error {
			err := tx.WriteBatch([]BatchWrite{
				{Table: tbl, PartKey: sibling, Key: "fresh-sibling", Val: "v"},
				{Table: tbl, PartKey: own, Key: "fresh-own", Val: "v"},
				insert,
			})
			if !errors.Is(err, ErrRowExists) {
				return fmt.Errorf("batch with a refused insert: %v, want ErrRowExists", err)
			}
			return nil
		})
		if got := c.Stats.Aborted - before.Aborted; got != 2 || c.Stats.Committed != before.Committed {
			t.Errorf("serial=%v: %d aborted, %d committed since; want 2 and 0", serial, got, c.Stats.Committed-before.Committed)
		}
		if w := c.Stats.Writes - before.Writes; w != 2 {
			t.Errorf("serial=%v: %d rows written, want the 2 fresh ones (a refused row writes nothing)", serial, w)
		}
		if held := c.HeldLocks(); len(held) != 0 {
			t.Errorf("serial=%v: locks survive the refusal: %v", serial, held)
		}
		if n := c.InFlightTxns(); n != 0 || len(c.activeOps) != 0 {
			t.Errorf("serial=%v: %d transactions in flight, active operations %v", serial, n, c.activeOps)
		}
		for _, fresh := range [][2]string{{sibling, "fresh-sibling"}, {own, "fresh-own"}} {
			if r := tbl.partitionFor(fresh[0]).lookup(fresh[0], fresh[1]); r != nil {
				t.Errorf("serial=%v: placeholder row %s/%s survives the abort: %+v", serial, fresh[0], fresh[1], r)
			}
		}
		// Every row the aborted batch touched takes an exclusive lock at once.
		inTxn(t, env, c, client, 1, tbl, own, func(p *sim.Proc, tx *Txn) error {
			start := p.Now()
			for _, row := range [][2]string{{own, "taken"}, {own, "fresh-own"}, {sibling, "fresh-sibling"}} {
				v, ok, err := readLocked(tx, tbl, row[0], row[1], LockExclusive)
				if err != nil {
					return err
				}
				if want := row[1] == "taken"; ok != want || (ok && v != "old") {
					return fmt.Errorf("%s/%s reads %v, %v after the abort", row[0], row[1], v, ok)
				}
			}
			if wait := p.Now() - start; wait > 10*time.Millisecond {
				return fmt.Errorf("locking the touched rows took %v: a lock was leaked", wait)
			}
			return tx.Commit()
		})
	}
}

// TestRacingInserts: transactions inserting one name in the same instant
// serialize on the row lock at the chain's head; the first to be granted it
// commits, and every other learns of the winner inside its own Prepare —
// ErrRowExists as soon as the winner's commit releases the lock, never a lock
// timeout.
func TestRacingInserts(t *testing.T) {
	for _, serial := range []bool{false, true} {
		env, c, client := testClusterCfg(t, true, 3, func(cfg *Config) { cfg.DisableBatchedWrites = serial })
		tbl := c.CreateTable("t", 64, TableOptions{ReadBackup: true})
		const racers = 5
		errs := make([]error, racers)
		for i := 0; i < racers; i++ {
			env.Spawn("racer", func(p *sim.Proc) {
				tx, err := c.Begin(p, client, 1, tbl, "p")
				errs[i] = InTx(tx, err, func(tx *Txn) error {
					return tx.WriteBatch([]BatchWrite{{Table: tbl, PartKey: "p", Key: "k", Val: i, IfAbsent: true}})
				})
			})
		}
		env.RunFor(lockTimeout / 2)
		won := 0
		for i, err := range errs {
			switch {
			case err == nil:
				won++
			case !errors.Is(err, ErrRowExists):
				t.Errorf("serial=%v: racer %d: %v, want ErrRowExists", serial, i, err)
			}
		}
		if won != 1 || c.InFlightTxns() != 0 {
			t.Errorf("serial=%v: %d of %d racing inserts won, %d transactions in flight; want 1 and 0", serial, won, racers, c.InFlightTxns())
		}
		if held := c.HeldLocks(); len(held) != 0 {
			t.Errorf("serial=%v: locks survive the race: %v", serial, held)
		}
	}
}

// TestReadWriteBatch: a mixed batch reads its gets and prepares its writes in
// one round — one coordinator pass, one fan-out — and counts its gets and
// writes each in their own registry family. A refused write comes back with
// the gets' values, so the caller learns what the reads saw; a get whose lock
// cannot be granted at once refuses the batch with ErrLockBusy instead of
// queueing; either way the abort leaves no lock. With write batching disabled
// the batch is a read batch and then a write batch, two rounds.
func TestReadWriteBatch(t *testing.T) {
	for _, serial := range []bool{false, true} {
		env, c, client := testClusterCfg(t, true, 3, func(cfg *Config) { cfg.DisableBatchedWrites = serial })
		reg := trace.NewRegistry()
		c.SetTracer(trace.NewTracer(reg))
		c.StopBackground()
		env.RunFor(time.Second)
		tbl := c.CreateTable("t", 64, TableOptions{ReadBackup: true})
		pks := crossGroupPKs(t, 2)(tbl)
		dir, own := pks[0], pks[1]
		inTxn(t, env, c, client, 1, tbl, own, func(p *sim.Proc, tx *Txn) error {
			if err := put(tx, tbl, dir, "parent", "dir"); err != nil {
				return err
			}
			if err := put(tx, tbl, own, "taken", "old"); err != nil {
				return err
			}
			return tx.Commit()
		})
		rows := func(family string) (n int64) {
			for _, prox := range []int{ProximitySameHost, ProximitySameZone, ProximityRemote} {
				n += reg.Counter(family, "prox", proximityLabel(prox)).Value()
			}
			return n
		}
		gets := []BatchGet{{Table: tbl, PartKey: dir, Key: "parent", Lock: LockShared}, {Table: tbl, PartKey: own, Key: "none"}}
		insert := func(key string) []BatchWrite {
			return []BatchWrite{{Table: tbl, PartKey: own, Key: key, Val: "new", IfAbsent: true}}
		}
		wantRounds := int64(1)
		if serial {
			wantRounds = 2
		}

		before, reads, writes := c.Stats, reg.Counter("ndb.batch.reads").Value(), reg.Counter("ndb.batch_write.batches").Value()
		readRows, writeRows := rows("ndb.batch.rows"), rows("ndb.batch_write.rows")
		inTxn(t, env, c, client, 1, tbl, own, func(p *sim.Proc, tx *Txn) error {
			vals, err := tx.ReadWriteBatch(gets, insert("fresh"))
			if err != nil {
				return err
			}
			if len(vals) != 2 || vals[0] != (BatchVal{Val: "dir", OK: true}) || vals[1].OK {
				return fmt.Errorf("values %v, want the parent and an absent row", vals)
			}
			return tx.Commit()
		})
		if got := c.Stats.Rounds - before.Rounds; got != wantRounds {
			t.Errorf("serial=%v: %d rounds, want %d", serial, got, wantRounds)
		}
		if got := reg.Counter("ndb.batch.reads").Value() - reads; got != 1 {
			t.Errorf("serial=%v: %d read batches counted, want 1", serial, got)
		}
		if got := reg.Counter("ndb.batch_write.batches").Value() - writes; got != 1 {
			t.Errorf("serial=%v: %d write batches counted, want 1", serial, got)
		}
		if got := rows("ndb.batch.rows") - readRows; got != 2 {
			t.Errorf("serial=%v: %d read rows counted, want 2", serial, got)
		}
		if got := rows("ndb.batch_write.rows") - writeRows; got != 1 {
			t.Errorf("serial=%v: %d written rows counted, want 1", serial, got)
		}
		if v, ok := tbl.partitionFor(own).committed(own, "fresh"); !ok || v != "new" {
			t.Errorf("serial=%v: the insert committed %v, %v", serial, v, ok)
		}

		inTxn(t, env, c, client, 1, tbl, own, func(p *sim.Proc, tx *Txn) error {
			vals, err := tx.ReadWriteBatch(gets, insert("taken"))
			if !errors.Is(err, ErrRowExists) {
				return fmt.Errorf("insert over a committed row: %v, want ErrRowExists", err)
			}
			if len(vals) != 2 || vals[0] != (BatchVal{Val: "dir", OK: true}) {
				return fmt.Errorf("a refused write returned values %v, want the gets'", vals)
			}
			return nil
		})
		if held := c.HeldLocks(); len(held) != 0 {
			t.Errorf("serial=%v: locks survive the refusal: %v", serial, held)
		}

		// Another transaction holds the parent exclusively.
		holderDone := false
		env.Spawn("holder", func(p *sim.Proc) {
			tx, err := c.Begin(p, client, 1, tbl, dir)
			if err == nil {
				_, _, err = readLocked(tx, tbl, dir, "parent", LockExclusive)
			}
			if err != nil {
				t.Error(err)
				return
			}
			p.Sleep(50 * time.Millisecond)
			tx.Abort()
			holderDone = true
		})
		env.RunFor(10 * time.Millisecond)
		inTxn(t, env, c, client, 1, tbl, own, func(p *sim.Proc, tx *Txn) error {
			start := p.Now()
			vals, err := tx.ReadWriteBatch(gets, insert("busy"))
			if serial {
				// Parent first: the read waits for the holder.
				if err != nil || !holderDone {
					return fmt.Errorf("serial read behind the holder: %v (holder done %v)", err, holderDone)
				}
				tx.Abort()
				return nil
			}
			if !errors.Is(err, ErrLockBusy) || vals != nil {
				return fmt.Errorf("a get behind an exclusive holder: %v, %v; want ErrLockBusy and no values", vals, err)
			}
			if waited := p.Now() - start; waited > 10*time.Millisecond || holderDone {
				return fmt.Errorf("the busy refusal took %v: it queued for the lock", waited)
			}
			return nil
		})
		env.RunFor(time.Second)
		if held := c.HeldLocks(); len(held) != 0 {
			t.Errorf("serial=%v: locks survive the busy refusal: %v", serial, held)
		}
		if r := tbl.partitionFor(own).lookup(own, "busy"); r != nil {
			t.Errorf("serial=%v: the refused batch left its insert's row: %+v", serial, r)
		}
	}
}
