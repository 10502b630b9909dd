package core

import (
	"strings"
	"testing"
	"time"

	"hopsfscl/internal/ndb"
	"hopsfscl/internal/shard"
	"hopsfscl/internal/sim"
)

// TestEveryInodeStoredOnce builds a two-shard deployment and checks that no
// inode id — the root's above all, which is seeded outside Seed — is stored
// on more than one cluster or under more than one row.
func TestEveryInodeStoredOnce(t *testing.T) {
	opts := smallOptions(PaperSetups[5])
	opts.Shards = 2
	d, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	copies := map[uint64]int{}
	for _, c := range d.MetaClusters() {
		c.Table("inodes").ForEachCommitted(func(_, _ string, val ndb.Value) {
			copies[val.(shard.Identified).IdentityID()]++
		})
	}
	if copies[1] != 1 {
		t.Fatalf("root inode (id 1) is stored %d times across the clusters, want exactly once", copies[1])
	}
	for id, n := range copies {
		if n != 1 {
			t.Errorf("inode %d is stored %d times", id, n)
		}
	}
}

// TestIdleSeesEveryShard checks Deployment.Idle against activity that exists
// on shard 1 only: an open transaction, then a held row lock, then a client
// operation blocked behind that lock.
func TestIdleSeesEveryShard(t *testing.T) {
	opts := smallOptions(PaperSetups[5])
	opts.Shards = 2
	d, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.Env.RunFor(3 * time.Second) // elect a leader, fill the active lists
	d.StopBackground()
	d.Env.RunFor(3 * time.Second) // election rounds in progress finish
	if !d.Idle() {
		t.Fatal("a deployment with no traffic and no background rounds is not idle")
	}

	// A seeded top-level directory whose row lives on shard 1.
	var dir, pk string
	for _, path := range d.Namespace.Dirs {
		name := strings.TrimPrefix(path, "/")
		if !strings.Contains(name, "/") && d.Router.ShardOfKey("c:"+name) == 1 {
			dir, pk = name, "c:"+name
			break
		}
	}
	if dir == "" {
		t.Fatal("no top-level directory hashes to shard 1")
	}
	c0, c1 := d.MetaClusters()[0], d.MetaClusters()[1]
	tab := c1.Table("inodes")
	nn := d.NS.NameNodes()[0]

	var step int // advanced by the test between phases
	var locked, opDone bool
	wait := func(p *sim.Proc, until int) {
		for step < until {
			p.Sleep(time.Millisecond)
		}
	}
	d.Env.Spawn("holder", func(p *sim.Proc) {
		tx, err := c1.Begin(p, nn.Node, nn.Domain, tab, pk)
		if err != nil {
			t.Error(err)
			return
		}
		wait(p, 1)
		if vals, err := tx.ReadBatch([]ndb.BatchGet{{Table: tab, PartKey: pk, Key: "1/" + dir, Lock: ndb.LockExclusive}}); err != nil || !vals[0].OK {
			t.Errorf("lock /%s: %v, err %v", dir, vals, err)
		}
		locked = true
		wait(p, 2)
		if err := tx.Commit(); err != nil {
			t.Error(err)
		}
	})

	d.Env.RunFor(5 * time.Millisecond)
	if c1.InFlightTxns() != 1 || c0.InFlightTxns() != 0 {
		t.Fatalf("open transactions: shard 0 has %d, shard 1 has %d; want 0 and 1", c0.InFlightTxns(), c1.InFlightTxns())
	}
	if d.Idle() {
		t.Fatal("Idle with a transaction open on shard 1")
	}

	step = 1
	d.Env.RunFor(50 * time.Millisecond)
	if !locked || len(c1.HeldLocks()) != 1 || len(c0.HeldLocks()) != 0 {
		t.Fatalf("locked %v; held locks: shard 0 %v, shard 1 %v", locked, c0.HeldLocks(), c1.HeldLocks())
	}
	if d.Idle() {
		t.Fatal("Idle with a row lock held on shard 1")
	}

	// setPermission locks its target row, so it queues behind the holder.
	d.Env.Spawn("setperm", func(p *sim.Proc) {
		if err := d.Clients[0].SetPermission(p, "/"+dir); err != nil {
			t.Error(err)
		}
		opDone = true
	})
	d.Env.RunFor(50 * time.Millisecond)
	inFlight := 0
	for _, n := range d.NS.NameNodes() {
		inFlight += n.InFlight()
	}
	if opDone || inFlight != 1 {
		t.Fatalf("setPermission behind the lock: done %v, %d operations in flight; want blocked with 1", opDone, inFlight)
	}
	if d.Idle() {
		t.Fatal("Idle with a client operation in flight")
	}

	step = 2
	d.Env.RunFor(time.Second)
	if !opDone {
		t.Fatal("setPermission did not finish after the lock was released")
	}
	if !d.Idle() {
		t.Fatal("not idle after everything finished")
	}
}
