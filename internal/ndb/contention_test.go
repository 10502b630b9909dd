package ndb

import (
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
