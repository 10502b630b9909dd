package ndb

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hopsfscl/internal/sim"
	"hopsfscl/internal/simnet"
	"hopsfscl/internal/trace"
)

// measureTxnMessages runs one transaction writing len(pks) rows (row i in
// partition pks[i]) and returns the wire messages spent staging (WriteBatch)
// and committing, with the batched write path on or off. pksFor receives the
// created table so callers can pick partition keys by replica geometry.
func measureTxnMessages(t *testing.T, serial bool, pksFor func(tbl *Table) []string) (staging, commit int64) {
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
		staging = c.net.TotalMessages() - before
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
	return staging, commit
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
// regression suite pinning the exact wire footprint of the commit protocol
// (Figure 2 geometry: RF 3, Read Backup, 12 messages per chain plus the
// client Ack):
//
//   - 1 row: 13 messages, batched and serial identical (a single-row batch
//     takes the old protocol path message for message),
//   - 8 rows sharing one replica chain: one commit train of 13 messages vs
//     8 serial chains of 97,
//   - 8 rows across two node groups: two trains, 2x12 + 1 = 25 messages.
//
// For every multi-row shape the batched transaction must use strictly fewer
// messages than the serial one, staging included.
func TestCommitTrainMessageCounts(t *testing.T) {
	// 1 row: batched == serial, exactly 13 commit messages.
	oneSerialStage, oneSerialCommit := measureTxnMessages(t, true, repeatPK("p", 1))
	oneBatchStage, oneBatchCommit := measureTxnMessages(t, false, repeatPK("p", 1))
	if oneBatchCommit != 13 || oneSerialCommit != 13 {
		t.Errorf("1-row commit = %d batched / %d serial messages, want 13 / 13",
			oneBatchCommit, oneSerialCommit)
	}
	if oneBatchStage != oneSerialStage {
		t.Errorf("1-row staging = %d batched vs %d serial messages, want identical",
			oneBatchStage, oneSerialStage)
	}

	// 8 rows, one replica chain: one train vs eight chains.
	sameSerialStage, sameSerialCommit := measureTxnMessages(t, true, repeatPK("p", 8))
	sameBatchStage, sameBatchCommit := measureTxnMessages(t, false, repeatPK("p", 8))
	if sameBatchCommit != 13 {
		t.Errorf("8-row same-chain batched commit = %d messages, want 13 (one train)", sameBatchCommit)
	}
	if sameSerialCommit != 97 {
		t.Errorf("8-row serial commit = %d messages, want 97 (8 chains + Ack)", sameSerialCommit)
	}
	if total, serialTotal := sameBatchStage+sameBatchCommit, sameSerialStage+sameSerialCommit; total >= serialTotal {
		t.Errorf("8-row same-chain batched txn = %d messages, serial = %d; want strictly fewer", total, serialTotal)
	}
	if sameBatchStage > sameSerialStage {
		t.Errorf("8-row batched staging = %d messages > serial %d", sameBatchStage, sameSerialStage)
	}

	// 8 rows across two node groups: two trains.
	crossSerialStage, crossSerialCommit := measureTxnMessages(t, true, crossGroupPKs(t, 8))
	crossBatchStage, crossBatchCommit := measureTxnMessages(t, false, crossGroupPKs(t, 8))
	if crossBatchCommit != 25 {
		t.Errorf("8-row cross-group batched commit = %d messages, want 25 (two trains + Ack)", crossBatchCommit)
	}
	if crossSerialCommit != 97 {
		t.Errorf("8-row cross-group serial commit = %d messages, want 97", crossSerialCommit)
	}
	if total, serialTotal := crossBatchStage+crossBatchCommit, crossSerialStage+crossSerialCommit; total >= serialTotal {
		t.Errorf("8-row cross-group batched txn = %d messages, serial = %d; want strictly fewer", total, serialTotal)
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
// exclusively times out with ErrLockTimeout exactly as serial Writes would,
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
		if err := tx.Insert(tbl, "p", "k2", "h"); err != nil {
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
// down fails the batch with ErrNodeUnavailable, exactly as a serial Write
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
// the commit — protocol, Complete, and client Ack — shows up in the span's
// hop counts, so the span total reconciles exactly with the network's
// message counter.
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
		if err := tx.Insert(tbl, "p", "k", "v"); err != nil {
			t.Error(err)
			return
		}
		p.Flush()
		netBefore := c.net.TotalMessages()
		spanBefore := hopTotal(sp)
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
	// RF 3 without Read Backup: 8 protocol messages + 2 Complete + 1 Ack.
	if netMsgs != 11 {
		t.Fatalf("commit used %d network messages, want 11", netMsgs)
	}
	if spanMsgs != netMsgs {
		t.Fatalf("span attributed %d messages, network saw %d — fire-and-forget Complete lost", spanMsgs, netMsgs)
	}
}
