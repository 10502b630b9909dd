package ndb

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"hopsfscl/internal/sim"
	"hopsfscl/internal/trace"
)

// TestReadBatchMatchesSerialReads checks that one batched fan-out of k rows
// returns exactly what k one-row batches return, including a missing row,
// across rows scattered over many partitions.
func TestReadBatchMatchesSerialReads(t *testing.T) {
	env, c, client := testCluster(t, true, 3)
	tbl := c.CreateTable("inodes", 256, TableOptions{ReadBackup: true})
	const n = 10
	inTxn(t, env, c, client, 1, tbl, "p0", func(p *sim.Proc, tx *Txn) error {
		for i := 0; i < n; i++ {
			pk := fmt.Sprintf("p%d", i)
			if err := put(tx, tbl, pk, "k"+pk, "v"+pk); err != nil {
				return err
			}
		}
		return tx.Commit()
	})

	var serial []BatchVal
	inTxn(t, env, c, client, 1, tbl, "p0", func(p *sim.Proc, tx *Txn) error {
		for i := 0; i <= n; i++ { // row n was never written
			pk := fmt.Sprintf("p%d", i)
			v, ok, err := readCommitted(tx, tbl, pk, "k"+pk)
			if err != nil {
				return err
			}
			serial = append(serial, BatchVal{Val: v, OK: ok})
		}
		return tx.Commit()
	})

	inTxn(t, env, c, client, 1, tbl, "p0", func(p *sim.Proc, tx *Txn) error {
		gets := make([]BatchGet, n+1)
		for i := range gets {
			pk := fmt.Sprintf("p%d", i)
			gets[i] = BatchGet{Table: tbl, PartKey: pk, Key: "k" + pk}
		}
		vals, err := tx.ReadBatch(gets)
		if err != nil {
			return err
		}
		for i, got := range vals {
			if got != serial[i] {
				t.Errorf("row %d: batch (%v,%v), serial (%v,%v)",
					i, got.Val, got.OK, serial[i].Val, serial[i].OK)
			}
		}
		if !vals[n].OK {
			// expected: the unwritten row reports absence, not an error
		} else {
			t.Errorf("row %d should be absent", n)
		}
		return tx.Commit()
	})
}

// TestReadBatchRouting pins the per-row routing rules: plain tables read
// the primary replica (slot 0), Read Backup tables read the replica
// nearest the TC, and the fan-out is visible in the registry counters.
func TestReadBatchRouting(t *testing.T) {
	env, c, client := testCluster(t, true, 3)
	reg := trace.NewRegistry()
	c.SetTracer(trace.NewTracer(reg))
	plain := c.CreateTable("plain", 128, TableOptions{})
	rb := c.CreateTable("rb", 128, TableOptions{ReadBackup: true})

	inTxn(t, env, c, client, 1, plain, "pp", func(p *sim.Proc, tx *Txn) error {
		if err := put(tx, plain, "pp", "k", "v"); err != nil {
			return err
		}
		return tx.Commit()
	})
	inTxn(t, env, c, client, 1, rb, "pr", func(p *sim.Proc, tx *Txn) error {
		if err := put(tx, rb, "pr", "k", "v"); err != nil {
			return err
		}
		return tx.Commit()
	})

	var tc *DataNode
	inTxn(t, env, c, client, 1, rb, "pr", func(p *sim.Proc, tx *Txn) error {
		tc = tx.Coordinator()
		_, err := tx.ReadBatch([]BatchGet{
			{Table: plain, PartKey: "pp", Key: "k"},
			{Table: rb, PartKey: "pr", Key: "k"},
		})
		if err != nil {
			return err
		}
		return tx.Commit()
	})

	pp := plain.partitionFor("pp")
	if pp.reads[0] != 1 {
		t.Errorf("plain table primary slot reads = %d, want 1", pp.reads[0])
	}
	pr := rb.partitionFor("pr")
	servedSlot := -1
	for i, n := range pr.reads {
		if n > 0 {
			servedSlot = i
		}
	}
	if servedSlot < 0 {
		t.Fatal("read-backup row not counted on any replica slot")
	}
	reps := pr.replicas()
	served := domainProximity(tc.Node, tc.Domain, reps[servedSlot])
	for _, r := range reps {
		if d := domainProximity(tc.Node, tc.Domain, r); d < served {
			t.Errorf("served replica proximity %d, but replica at %d exists", served, d)
		}
	}

	if got := reg.Counter("ndb.batch.reads").Value(); got != 1 {
		t.Errorf("ndb.batch.reads = %d, want 1", got)
	}
	var rows int64
	for d := ProximitySameHost; d <= ProximityRemote; d++ {
		rows += reg.Counter("ndb.batch.rows", "prox", proximityLabel(d)).Value()
	}
	if rows != 2 {
		t.Errorf("ndb.batch.rows total = %d, want 2", rows)
	}
}

// TestReadBatchUnavailableGroupAborts: a row whose entire replica group is
// down aborts the whole batch with ErrNodeUnavailable, as the serial read
// would.
func TestReadBatchUnavailableGroupAborts(t *testing.T) {
	env, c, client := testCluster(t, true, 3)
	tbl := c.CreateTable("plain", 128, TableOptions{})
	inTxn(t, env, c, client, 1, tbl, "p", func(p *sim.Proc, tx *Txn) error {
		if err := put(tx, tbl, "p", "k", "v"); err != nil {
			return err
		}
		return tx.Commit()
	})
	doomed := tbl.partitionFor("p")
	// The TC must live in the surviving group, so hint a partition there.
	hint := ""
	for i := 0; hint == ""; i++ {
		k := fmt.Sprintf("h%d", i)
		if tbl.partitionFor(k).group != doomed.group {
			hint = k
		}
	}
	for _, dn := range doomed.replicas() {
		dn.Node.Fail()
	}

	var err error
	env.Spawn("txn", func(p *sim.Proc) {
		tx, berr := c.Begin(p, client, 1, tbl, hint)
		if berr != nil {
			t.Errorf("begin failed: %v", berr)
			return
		}
		_, err = tx.ReadBatch([]BatchGet{{Table: tbl, PartKey: "p", Key: "k"}})
	})
	env.RunFor(5 * time.Second)
	if !errors.Is(err, ErrNodeUnavailable) {
		t.Fatalf("err = %v, want ErrNodeUnavailable", err)
	}
}

// TestScanBatchMatchesSerialScans checks a k-scan ScanBatch against k
// one-scan batches over several partitions, including an empty directory.
func TestScanBatchMatchesSerialScans(t *testing.T) {
	env, c, client := testCluster(t, true, 3)
	tbl := c.CreateTable("inodes", 256, TableOptions{ReadBackup: true})
	dirs := []string{"d1", "d2", "d3"}
	inTxn(t, env, c, client, 1, tbl, "d1", func(p *sim.Proc, tx *Txn) error {
		for di, d := range dirs {
			for i := 0; i <= di; i++ {
				k := fmt.Sprintf("%s/c%d", d, i)
				if err := put(tx, tbl, d, k, "v"); err != nil {
					return err
				}
			}
		}
		return tx.Commit()
	})

	scans := []BatchScan{
		{Table: tbl, PartKey: "d1", Prefix: "d1/"},
		{Table: tbl, PartKey: "d2", Prefix: "d2/"},
		{Table: tbl, PartKey: "d3", Prefix: "d3/"},
		{Table: tbl, PartKey: "empty", Prefix: "empty/"},
	}
	var serial [][]KV
	inTxn(t, env, c, client, 1, tbl, "d1", func(p *sim.Proc, tx *Txn) error {
		for _, s := range scans {
			rows, err := scanPrefix(tx, tbl, s.PartKey, s.Prefix)
			if err != nil {
				return err
			}
			serial = append(serial, rows)
		}
		return tx.Commit()
	})
	inTxn(t, env, c, client, 1, tbl, "d1", func(p *sim.Proc, tx *Txn) error {
		batched, err := tx.ScanBatch(scans)
		if err != nil {
			return err
		}
		for i := range scans {
			if len(batched[i]) != len(serial[i]) {
				t.Errorf("scan %d: batch %d rows, serial %d", i, len(batched[i]), len(serial[i]))
				continue
			}
			for j := range batched[i] {
				if batched[i][j] != serial[i][j] {
					t.Errorf("scan %d row %d: batch %+v, serial %+v", i, j, batched[i][j], serial[i][j])
				}
			}
		}
		return tx.Commit()
	})
}

// TestReadBatchFasterThanSerial: reading N scattered rows in one batch must
// take less virtual time than N serial round trips — the point of the
// batched resolution protocol.
func TestReadBatchFasterThanSerial(t *testing.T) {
	env, c, client := testCluster(t, true, 3)
	tbl := c.CreateTable("inodes", 256, TableOptions{ReadBackup: true})
	const n = 8
	inTxn(t, env, c, client, 1, tbl, "p0", func(p *sim.Proc, tx *Txn) error {
		for i := 0; i < n; i++ {
			pk := fmt.Sprintf("p%d", i)
			if err := put(tx, tbl, pk, "k", "v"); err != nil {
				return err
			}
		}
		return tx.Commit()
	})

	var serialDur, batchDur time.Duration
	inTxn(t, env, c, client, 1, tbl, "p0", func(p *sim.Proc, tx *Txn) error {
		start := p.EffNow()
		for i := 0; i < n; i++ {
			pk := fmt.Sprintf("p%d", i)
			if _, _, err := readCommitted(tx, tbl, pk, "k"); err != nil {
				return err
			}
		}
		serialDur = p.EffNow() - start
		return tx.Commit()
	})
	inTxn(t, env, c, client, 1, tbl, "p0", func(p *sim.Proc, tx *Txn) error {
		gets := make([]BatchGet, n)
		for i := range gets {
			gets[i] = BatchGet{Table: tbl, PartKey: fmt.Sprintf("p%d", i), Key: "k"}
		}
		start := p.EffNow()
		if _, err := tx.ReadBatch(gets); err != nil {
			return err
		}
		batchDur = p.EffNow() - start
		return tx.Commit()
	})
	if batchDur >= serialDur {
		t.Fatalf("batch %v not faster than serial %v over %d rows", batchDur, serialDur, n)
	}
}

// TestReadBatchLockConflict: a locked get behind another transaction's
// exclusive lock waits on its arm and then returns the value that
// transaction committed; when the wait times out the batch returns
// ErrLockTimeout, the transaction is aborted, no lock of
// any group of the batch survives, and the contention ledger has the edge.
func TestReadBatchLockConflict(t *testing.T) {
	for _, tc := range []struct {
		name    string
		hold    time.Duration
		wantErr error
		wantVal Value
	}{
		{"waits", lockTimeout / 3, nil, "new"},
		{"times out", 3 * lockTimeout, ErrLockTimeout, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env, c, client := testCluster(t, true, 3)
			c.SetTracer(trace.NewTracer(trace.NewRegistry()))
			tbl := c.CreateTable("inodes", 256, TableOptions{ReadBackup: true})
			// Rows on several partitions, so the batch has several groups;
			// the contended one is last and the only locked one.
			const n = 6
			pks := make([]string, n)
			inTxn(t, env, c, client, 1, tbl, "p0", func(p *sim.Proc, tx *Txn) error {
				for i := range pks {
					pks[i] = fmt.Sprintf("p%d", i)
					if err := put(tx, tbl, pks[i], "k", "old"); err != nil {
						return err
					}
				}
				return tx.Commit()
			})
			hot := pks[n-1]
			env.Spawn("holder-op", func(p *sim.Proc) {
				tx, err := c.Begin(p, client, 1, tbl, hot)
				if err != nil {
					t.Error(err)
					return
				}
				if err := put(tx, tbl, hot, "k", "new"); err != nil {
					t.Error(err)
					return
				}
				p.Sleep(tc.hold)
				if err := tx.Commit(); err != nil {
					t.Error(err)
				}
			})
			var vals []BatchVal
			var err error
			var waiter *Txn
			ran := false
			env.Spawn("waiter-op", func(p *sim.Proc) {
				p.Sleep(5 * time.Millisecond)
				tx, berr := c.Begin(p, client, 1, tbl, "p0")
				if berr != nil {
					t.Error(berr)
					return
				}
				waiter = tx
				gets := make([]BatchGet, n)
				for i, pk := range pks {
					gets[i] = BatchGet{Table: tbl, PartKey: pk, Key: "k"}
				}
				gets[n-1].Lock = LockShared
				vals, err = tx.ReadBatch(gets)
				if err == nil {
					err = tx.Commit()
				}
				ran = true
			})
			env.RunFor(2 * time.Second)
			if !ran {
				t.Fatal("the batch never returned")
			}
			if !errors.Is(err, tc.wantErr) || (tc.wantErr == nil && err != nil) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if tc.wantErr == nil {
				if got := vals[n-1]; got.Val != tc.wantVal || !got.OK {
					t.Errorf("locked get = (%v,%v), want the committed %q", got.Val, got.OK, tc.wantVal)
				}
			} else if !waiter.done || c.Stats.Aborted != 1 {
				t.Errorf("the timed-out batch left its transaction open (done=%v, aborted=%d)", waiter.done, c.Stats.Aborted)
			}
			if left := c.HeldLocks(); len(left) != 0 {
				t.Errorf("locks survive: %v", left)
			}
			entries := c.Contention().Entries()
			if len(entries) != 1 {
				t.Fatalf("ledger entries = %+v, want the one edge", entries)
			}
			e := entries[0]
			if e.Holder != "holder-op" || e.Waiter != "waiter-op" || e.Mode != LockShared || e.Count != 1 {
				t.Errorf("edge = %+v", e)
			}
			if wantTimeouts := map[bool]int64{false: 0, true: 1}[tc.wantErr != nil]; int64(e.Timeouts) != wantTimeouts {
				t.Errorf("edge timeouts = %d, want %d", e.Timeouts, wantTimeouts)
			}
		})
	}
}
