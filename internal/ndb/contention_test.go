package ndb

import (
	"errors"
	"strings"
	"testing"
	"time"

	"hopsfscl/internal/sim"
	"hopsfscl/internal/trace"
)

// runContention drives one holder/waiter collision on a traced cluster and
// returns it for inspection.
func runContention(t *testing.T) *Cluster {
	t.Helper()
	env, c, client := testCluster(t, true, 3)
	c.SetTracer(trace.NewTracer(trace.NewRegistry()))
	tbl := c.CreateTable("inodes", 64, TableOptions{ReadBackup: true})
	touch := func(name string, hold, delay time.Duration) {
		env.Spawn(name, func(p *sim.Proc) {
			p.Sleep(delay)
			tx, err := c.Begin(p, client, 1, tbl, "p")
			if err != nil {
				t.Error(err)
				return
			}
			if err := put(tx, tbl, "p", "k", name); err != nil {
				t.Error(err)
				return
			}
			p.Sleep(hold)
			if err := tx.Commit(); err != nil {
				t.Error(err)
			}
		})
	}
	touch("holder-op", 30*time.Millisecond, 0)
	touch("waiter-op", 0, 5*time.Millisecond)
	env.RunFor(time.Second)
	return c
}

func TestContentionLedgerRecordsBlockingPair(t *testing.T) {
	c := runContention(t)
	l := c.Contention()
	if l == nil {
		t.Fatal("no ledger on traced cluster")
	}
	if l.Events() != 1 {
		t.Fatalf("events = %d, want 1", l.Events())
	}
	entries := l.Entries()
	if len(entries) != 1 {
		t.Fatalf("entries = %+v, want exactly one", entries)
	}
	e := entries[0]
	if e.Table != "inodes" || e.Holder != "holder-op" || e.Waiter != "waiter-op" {
		t.Fatalf("entry = %+v", e)
	}
	if e.Mode != LockExclusive || e.Count != 1 || e.Timeouts != 0 {
		t.Fatalf("entry = %+v", e)
	}
	if e.Total <= 0 || e.Max != e.Total {
		t.Fatalf("wait accounting: %+v", e)
	}
	// Registry metrics mirror the ledger.
	reg := c.tracer.Registry()
	if got := reg.Counter("ndb.contention.blocks", "table", "inodes").Value(); got != 1 {
		t.Fatalf("ndb.contention.blocks = %d, want 1", got)
	}
	if got := reg.Counter("ndb.contention.wait_ns", "table", "inodes").Value(); got != int64(e.Total) {
		t.Fatalf("ndb.contention.wait_ns = %d, want %d", got, e.Total)
	}
	if got := reg.Counter("ndb.contention.pairs", "holder", "holder-op", "waiter", "waiter-op").Value(); got != 1 {
		t.Fatalf("ndb.contention.pairs = %d, want 1", got)
	}
}

func TestContentionRenderDeterministic(t *testing.T) {
	a := runContention(t).Contention().Render(10)
	b := runContention(t).Contention().Render(10)
	if a != b {
		t.Fatalf("render not deterministic:\n%s\nvs\n%s", a, b)
	}
	for _, want := range []string{"top contended tables", "top blocking op pairs", "inodes", "holder-op", "waiter-op"} {
		if !strings.Contains(a, want) {
			t.Errorf("render missing %q:\n%s", want, a)
		}
	}
}

func TestContentionLedgerBounded(t *testing.T) {
	l := newContentionLedger()
	for i := 0; i < contCapKeys+50; i++ {
		l.record("t", "h", strings.Repeat("w", 1+i%3)+string(rune('a'+i%26))+strings.Repeat("x", i/26), LockShared, time.Millisecond, false)
	}
	if len(l.entries) > contCapKeys+1 { // +1 for the catch-all bucket
		t.Fatalf("ledger grew to %d keys", len(l.entries))
	}
	if l.droppedKeys == 0 {
		t.Fatal("no dropped keys counted after overflow")
	}
	var count int64
	for _, e := range l.Entries() {
		count += e.Count
	}
	if count != l.Events() {
		t.Fatalf("entry counts %d != events %d (overflow lost events)", count, l.Events())
	}
}

func TestContentionNilSafety(t *testing.T) {
	var l *ContentionLedger
	l.record("t", "h", "w", LockShared, 0, false)
	if l.Events() != 0 || l.Entries() != nil || l.TopTables(5) != nil {
		t.Fatal("nil ledger not inert")
	}
	if !strings.Contains(l.Render(5), "no lock contention") {
		t.Fatal("nil ledger render")
	}
	l.Reset()
}

// TestUpgradeQueuesBehindWaiter: T1 holds a row shared, T2 queues for it
// exclusively, and T1 then asks to upgrade to exclusive. The upgrade queues
// behind T2, which waits for T1's share: a ring of two. T1 is then the row's
// only holder, so its blocker is the waiter ahead of it — blockerOf names T2
// — and the contention ledger records that edge beside T2's on T1. The lock
// timeout breaks the ring: T2, queued first, times out and is aborted, and
// T1's upgrade is granted at that instant.
func TestUpgradeQueuesBehindWaiter(t *testing.T) {
	env, c, client := testCluster(t, true, 3)
	c.SetTracer(trace.NewTracer(trace.NewRegistry()))
	tbl := c.CreateTable("inodes", 64, TableOptions{ReadBackup: true})
	lock := func(tx *Txn, mode LockMode) error {
		_, err := tx.ReadBatch([]BatchGet{{Table: tbl, PartKey: "p", Key: "k", Lock: mode}})
		return err
	}
	var t1, t2 *Txn
	var upgradeErr, writerErr error
	var upgraded, timedOut time.Duration
	blocker := map[string]uint64{}
	env.Spawn("upgrader-op", func(p *sim.Proc) {
		tx, err := c.Begin(p, client, 1, tbl, "p")
		if err != nil {
			t.Error(err)
			return
		}
		t1 = tx
		if err := lock(tx, LockShared); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(10 * time.Millisecond)
		upgradeErr = lock(tx, LockExclusive)
		upgraded = p.Now()
		if upgradeErr == nil {
			upgradeErr = tx.Commit()
		}
	})
	env.Spawn("writer-op", func(p *sim.Proc) {
		p.Sleep(5 * time.Millisecond)
		tx, err := c.Begin(p, client, 1, tbl, "p")
		if err != nil {
			t.Error(err)
			return
		}
		t2 = tx
		writerErr = lock(tx, LockExclusive)
		timedOut = p.Now()
	})
	env.Spawn("observer", func(p *sim.Proc) {
		// Between the upgrade's queueing and the first timeout.
		p.Sleep(50 * time.Millisecond)
		r := tbl.partitionFor("p").lookup("p", "k")
		if r == nil || t1 == nil || t2 == nil {
			t.Error("the row or a transaction is missing")
			return
		}
		if n := len(r.lock.waiters); n != 2 {
			t.Errorf("%d waiters on the row, want the writer and the upgrade", n)
		}
		blocker["upgrader-op"], _ = r.lock.blockerOf(t1.id)
		blocker["writer-op"], _ = r.lock.blockerOf(t2.id)
	})
	env.RunFor(time.Second)
	if t1 == nil || t2 == nil {
		t.Fatal("a transaction never began")
	}
	if blocker["upgrader-op"] != t2.id || blocker["writer-op"] != t1.id {
		t.Errorf("blockers: upgrade %d, writer %d; want the writer %d and the holder %d",
			blocker["upgrader-op"], blocker["writer-op"], t2.id, t1.id)
	}
	if !errors.Is(writerErr, ErrLockTimeout) || upgradeErr != nil {
		t.Fatalf("writer %v, upgrade %v; want ErrLockTimeout and the upgrade granted", writerErr, upgradeErr)
	}
	if upgraded != timedOut {
		t.Errorf("upgrade granted at %v, the writer timed out at %v: want one instant", upgraded, timedOut)
	}
	edges := map[string]ContentionEntry{}
	for _, e := range c.Contention().Entries() {
		edges[e.Waiter+" on "+e.Holder] = e
	}
	if len(edges) != 2 {
		t.Fatalf("ledger edges %+v, want the two of the ring", edges)
	}
	if e := edges["writer-op on upgrader-op"]; e.Count != 1 || e.Timeouts != 1 || e.Mode != LockExclusive {
		t.Errorf("the writer's edge: %+v, want one timed-out exclusive wait", e)
	}
	if e := edges["upgrader-op on writer-op"]; e.Count != 1 || e.Timeouts != 0 || e.Mode != LockExclusive {
		t.Errorf("the upgrade's edge: %+v, want one granted exclusive wait", e)
	}
	if left := c.HeldLocks(); len(left) != 0 {
		t.Errorf("locks survive: %v", left)
	}
}
