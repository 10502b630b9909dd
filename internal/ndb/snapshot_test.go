package ndb

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"hopsfscl/internal/sim"
	"hopsfscl/internal/simnet"
)

// walkCommitted is the scan oracle: a fresh walk of the partition's stored
// rows under pk (every partition key when all is set), keeping the rows a
// read sees — the committed value, a held row's pre-image — whose key has
// the prefix, sorted by key.
func walkCommitted(part *Partition, pk, prefix string, all bool) []KV {
	var out []KV
	for bpk, b := range part.rows {
		if !all && bpk != pk {
			continue
		}
		for k, r := range b.rows {
			val, ok := r.val, r.exists
			if r.held {
				val, ok = r.pre, r.preExists
			}
			if ok && strings.HasPrefix(k, prefix) {
				out = append(out, KV{Key: k, Val: val})
			}
		}
	}
	slices.SortFunc(out, byKey)
	return out
}

// sameKVs reports whether two scan results hold the same rows in the same
// order; nil and empty are the same.
func sameKVs(a, b []KV) bool {
	return slices.EqualFunc(a, b, func(x, y KV) bool { return x.Key == y.Key && x.Val == y.Val })
}

// TestScanSnapshotMatchesRows drives random inserts, updates, deletes,
// aborts, CommitHolding+Release pairs, StoreDirect seeding and whole-cluster
// crashes over a few buckets whose keys share prefixes, and after every step
// checks each ScanBatch and ScanTablePrefix against a fresh walk and sort of
// what reads see of the rows — between CommitHolding and Release, the held
// rows' pre-images: an index that a change failed to edit, or to drop,
// shows as a stale result.
func TestScanSnapshotMatchesRows(t *testing.T) {
	pks := []string{"p0", "p1", "p2"}
	keys := []string{"a", "a/b", "a/c", "ab", "b", "b/a", "ba", "c"}
	prefixes := []string{"", "a", "a/", "ab", "b", "b/", "c", "d"}
	kinds := map[string]bool{}
	for seed := int64(1); seed <= 8; seed++ {
		env := sim.New(seed)
		net := simnet.New(env, simnet.USWest1())
		cfg := DefaultConfig()
		cfg.DataNodes = 6
		cfg.Replication = 3
		cfg.PartitionsPerTable = 4
		c, err := New(env, net, cfg, SpreadPlacement(6, []simnet.ZoneID{1, 2, 3}, 0), nil)
		if err != nil {
			t.Fatal(err)
		}
		tbl := c.CreateTable("t", 64, TableOptions{ReadBackup: true})
		client := net.NewNode("client", 1, 100)
		rng := rand.New(rand.NewSource(seed))
		pick := func() (string, string) { return pks[rng.Intn(len(pks))], keys[rng.Intn(len(keys))] }
		steps := 0
		check := func(p *sim.Proc, step string) error {
			tx, err := c.Begin(p, client, 1, tbl, pks[0])
			if err != nil {
				return err
			}
			defer tx.Abort()
			var scans []BatchScan
			for _, pk := range pks {
				for _, prefix := range prefixes {
					scans = append(scans, BatchScan{Table: tbl, PartKey: pk, Prefix: prefix})
				}
			}
			got, err := tx.ScanBatch(scans)
			if err != nil {
				return err
			}
			for i, s := range scans {
				if want := walkCommitted(tbl.partitionFor(s.PartKey), s.PartKey, s.Prefix, false); !sameKVs(got[i], want) {
					return fmt.Errorf("after %s: ScanBatch %s %q = %v, rows hold %v", step, s.PartKey, s.Prefix, got[i], want)
				}
			}
			for _, prefix := range prefixes {
				got, err := tx.ScanTablePrefix(tbl, prefix)
				if err != nil {
					return err
				}
				var want []KV
				for _, part := range tbl.partitions {
					want = append(want, walkCommitted(part, "", prefix, true)...)
				}
				slices.SortFunc(want, byKey)
				if !sameKVs(got, want) {
					return fmt.Errorf("after %s: ScanTablePrefix %q = %v, rows hold %v", step, prefix, got, want)
				}
			}
			return nil
		}
		// write stages n random puts or deletes in a fresh transaction.
		write := func(p *sim.Proc, n int) (*Txn, error) {
			tx, err := c.Begin(p, client, 1, tbl, pks[0])
			if err != nil {
				return nil, err
			}
			for range n {
				pk, key := pick()
				w := BatchWrite{Table: tbl, PartKey: pk, Key: key, Val: fmt.Sprintf("v%d", steps)}
				if rng.Intn(3) == 0 {
					w = BatchWrite{Table: tbl, PartKey: pk, Key: key, Del: true}
				}
				if err := tx.WriteBatch([]BatchWrite{w}); err != nil {
					tx.Abort()
					return nil, err
				}
			}
			return tx, nil
		}
		env.Spawn("steps", func(p *sim.Proc) {
			for ; steps < 80; steps++ {
				var step string
				var err error
				switch k := rng.Intn(10); {
				case k < 4:
					step = "commit"
					var tx *Txn
					if tx, err = write(p, 1+rng.Intn(3)); err == nil {
						err = tx.Commit()
					}
				case k < 5:
					step = "abort"
					var tx *Txn
					if tx, err = write(p, 1+rng.Intn(2)); err == nil {
						tx.Abort()
					}
				case k < 7:
					step = "commit-holding"
					var tx *Txn
					if tx, err = write(p, 1+rng.Intn(2)); err == nil {
						if err = tx.CommitHolding(); err == nil {
							// Scan while the written rows are still locked.
							err = check(p, "CommitHolding")
							tx.Release()
						}
					}
				case k < 9:
					step = "StoreDirect"
					pk, key := pick()
					StoreDirect(tbl, pk, key, fmt.Sprintf("s%d", steps))
				default:
					step = "CrashRestartCluster"
					p.Flush()
					c.CrashRestartCluster(p)
				}
				if err == nil {
					err = check(p, step)
				}
				if err != nil {
					t.Errorf("seed %d step %d: %v", seed, steps, err)
					return
				}
				kinds[step] = true
				// Let some epochs turn durable and leave others in flight,
				// so a crash drops some rows and keeps others.
				p.Sleep(time.Duration(rng.Int63n(int64(gcpInterval))))
			}
		})
		env.RunFor(time.Hour)
		env.Close()
		if steps < 80 && !t.Failed() {
			t.Fatalf("seed %d: the steps stopped after %d steps", seed, steps)
		}
	}
	if len(kinds) != 5 && !t.Failed() {
		t.Fatalf("only the step kinds %v ran", kinds)
	}
}

// TestScanResultSurvivesCommit: a commit edits its bucket's index in place,
// and a scan copies its window out of the index into its transaction, so a
// result taken before an update, an insert and a delete — committed by
// another transaction while the scanning one stays open — reads the same
// after them, a partition's scan and a table-prefix scan alike, while a new
// scan sees all three.
func TestScanResultSurvivesCommit(t *testing.T) {
	env, c, client := testCluster(t, true, 3)
	c.StopBackground()
	tbl := c.CreateTable("t", 64, TableOptions{ReadBackup: true})
	seed := []BatchWrite{
		{Table: tbl, PartKey: "p", Key: "p/a", Val: "a1"},
		{Table: tbl, PartKey: "p", Key: "p/c", Val: "c1"},
		{Table: tbl, PartKey: "p", Key: "p/e", Val: "e1"},
	}
	inTxn(t, env, c, client, 1, tbl, "p", func(p *sim.Proc, tx *Txn) error {
		if err := tx.WriteBatch(seed); err != nil {
			return err
		}
		return tx.Commit()
	})
	inTxn(t, env, c, client, 1, tbl, "p", func(p *sim.Proc, scanner *Txn) error {
		before, err := scanPrefix(scanner, tbl, "p", "p/")
		if err != nil {
			return err
		}
		kept := slices.Clone(before)
		table, err := scanner.ScanTablePrefix(tbl, "p/")
		if err != nil {
			return err
		}
		if !sameKVs(table, kept) {
			t.Errorf("table-prefix scan = %v, partition scan %v", table, kept)
		}
		tx, err := c.Begin(p, client, 1, tbl, "p")
		if err != nil {
			return err
		}
		if err := InTx(tx, nil, func(tx *Txn) error {
			return tx.WriteBatch([]BatchWrite{
				{Table: tbl, PartKey: "p", Key: "p/a", Val: "a2"},
				{Table: tbl, PartKey: "p", Key: "p/b", Val: "b1"},
				{Table: tbl, PartKey: "p", Key: "p/e", Del: true},
			})
		}); err != nil {
			return err
		}
		if !sameKVs(before, kept) {
			t.Errorf("a scan result changed under a later commit: %v, was %v", before, kept)
		}
		if !sameKVs(table, kept) {
			t.Errorf("a table-prefix scan result changed under a later commit: %v, was %v", table, kept)
		}
		return scanner.Commit()
	})
	inTxn(t, env, c, client, 1, tbl, "p", func(p *sim.Proc, tx *Txn) error {
		after, err := scanPrefix(tx, tbl, "p", "p/")
		if err != nil {
			return err
		}
		if want := []KV{{Key: "p/a", Val: "a2"}, {Key: "p/b", Val: "b1"}, {Key: "p/c", Val: "c1"}}; !sameKVs(after, want) {
			t.Errorf("scan after the commit = %v, want %v", after, want)
		}
		return tx.Commit()
	})
}
