package ndb

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"hopsfscl/internal/heat"
	"hopsfscl/internal/sim"
	"hopsfscl/internal/simnet"
)

// testCluster builds a 3-zone cluster with 6 datanodes (RF 3, two node
// groups spanning all zones, as in Figure 4) and a management node per
// zone. It returns a client node in zone 1.
func testCluster(t *testing.T, azAware bool, rf int) (*sim.Env, *Cluster, *simnet.Node) {
	t.Helper()
	return testClusterCfg(t, azAware, rf, nil)
}

// testClusterCfg is testCluster with a config hook applied before the
// cluster is built (e.g. to disable write batching).
func testClusterCfg(t *testing.T, azAware bool, rf int, tweak func(*Config)) (*sim.Env, *Cluster, *simnet.Node) {
	t.Helper()
	env := sim.New(11)
	t.Cleanup(env.Close)
	net := simnet.New(env, simnet.USWest1())
	cfg := DefaultConfig()
	cfg.DataNodes = 6
	cfg.Replication = rf
	cfg.PartitionsPerTable = 12
	cfg.AZAware = azAware
	if tweak != nil {
		tweak(&cfg)
	}
	zones := []simnet.ZoneID{1, 2, 3}
	data := SpreadPlacement(cfg.DataNodes, zones, 100)
	mgmt := []Placement{{Zone: 1, Host: 200}, {Zone: 2, Host: 201}, {Zone: 3, Host: 202}}
	c, err := New(env, net, cfg, data, mgmt)
	if err != nil {
		t.Fatal(err)
	}
	client := net.NewNode("client", 1, 300)
	return env, c, client
}

// inTxn runs fn inside a process, giving it a fresh transaction.
func inTxn(t *testing.T, env *sim.Env, c *Cluster, client *simnet.Node, domain simnet.ZoneID,
	table *Table, hint string, fn func(p *sim.Proc, tx *Txn) error) {
	t.Helper()
	var err error
	env.Spawn("txn", func(p *sim.Proc) {
		var tx *Txn
		tx, err = c.Begin(p, client, domain, table, hint)
		if err != nil {
			return
		}
		err = fn(p, tx)
	})
	env.RunFor(5 * time.Second)
	if err != nil {
		t.Fatalf("txn failed: %v", err)
	}
}

func TestCommitAndReadBack(t *testing.T) {
	env, c, client := testCluster(t, true, 3)
	tbl := c.CreateTable("inodes", 256, TableOptions{ReadBackup: true})
	inTxn(t, env, c, client, 1, tbl, "p1", func(p *sim.Proc, tx *Txn) error {
		if err := put(tx, tbl, "p1", "k1", "v1"); err != nil {
			return err
		}
		return tx.Commit()
	})
	inTxn(t, env, c, client, 1, tbl, "p1", func(p *sim.Proc, tx *Txn) error {
		v, ok, err := readCommitted(tx, tbl, "p1", "k1")
		if err != nil {
			return err
		}
		if !ok || v != "v1" {
			t.Errorf("read (%v,%v), want (v1,true)", v, ok)
		}
		return tx.Commit()
	})
	if c.Stats.Committed != 2 {
		t.Fatalf("committed = %d, want 2", c.Stats.Committed)
	}
}

func TestDeleteRemovesRow(t *testing.T) {
	env, c, client := testCluster(t, true, 3)
	tbl := c.CreateTable("inodes", 256, TableOptions{ReadBackup: true})
	inTxn(t, env, c, client, 1, tbl, "p", func(p *sim.Proc, tx *Txn) error {
		if err := put(tx, tbl, "p", "k", "v"); err != nil {
			return err
		}
		return tx.Commit()
	})
	inTxn(t, env, c, client, 1, tbl, "p", func(p *sim.Proc, tx *Txn) error {
		if err := del(tx, tbl, "p", "k"); err != nil {
			return err
		}
		return tx.Commit()
	})
	inTxn(t, env, c, client, 1, tbl, "p", func(p *sim.Proc, tx *Txn) error {
		_, ok, err := readCommitted(tx, tbl, "p", "k")
		if err != nil {
			return err
		}
		if ok {
			t.Error("row still visible after delete")
		}
		return tx.Commit()
	})
}

func TestUncommittedWriteInvisible(t *testing.T) {
	env, c, client := testCluster(t, true, 3)
	tbl := c.CreateTable("inodes", 256, TableOptions{ReadBackup: true})
	var sawBeforeCommit bool
	env.Spawn("writer", func(p *sim.Proc) {
		tx, err := c.Begin(p, client, 1, tbl, "p")
		if err != nil {
			t.Error(err)
			return
		}
		if err := put(tx, tbl, "p", "k", "v"); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(50 * time.Millisecond) // hold the write uncommitted
		if err := tx.Commit(); err != nil {
			t.Error(err)
		}
	})
	env.Spawn("reader", func(p *sim.Proc) {
		p.Sleep(20 * time.Millisecond)
		tx, err := c.Begin(p, client, 1, tbl, "p")
		if err != nil {
			t.Error(err)
			return
		}
		_, ok, err := readCommitted(tx, tbl, "p", "k")
		if err != nil {
			t.Error(err)
			return
		}
		sawBeforeCommit = ok
		tx.Abort()
	})
	env.RunFor(time.Second)
	if sawBeforeCommit {
		t.Fatal("read-committed saw an uncommitted write")
	}
}

func TestReadsGoToPrimaryWithoutReadBackup(t *testing.T) {
	env, c, client := testCluster(t, true, 3)
	tbl := c.CreateTable("plain", 128, TableOptions{})
	inTxn(t, env, c, client, 1, tbl, "p", func(p *sim.Proc, tx *Txn) error {
		if err := put(tx, tbl, "p", "k", "v"); err != nil {
			return err
		}
		return tx.Commit()
	})
	// Read from clients in all three zones: every read must hit slot 0.
	for z := simnet.ZoneID(1); z <= 3; z++ {
		cl := c.net.NewNode("cl", z, 400+simnet.HostID(z))
		inTxn(t, env, c, cl, z, tbl, "p", func(p *sim.Proc, tx *Txn) error {
			_, _, err := readCommitted(tx, tbl, "p", "k")
			if err != nil {
				return err
			}
			return tx.Commit()
		})
	}
	part := tbl.partitionFor("p")
	counts := part.ReadCounts()
	if counts[0] != 3 || counts[1] != 0 || counts[2] != 0 {
		t.Fatalf("read counts = %v, want [3 0 0]", counts)
	}
}

func TestReadBackupServesAZLocalReplica(t *testing.T) {
	env, c, _ := testCluster(t, true, 3)
	tbl := c.CreateTable("rb", 128, TableOptions{ReadBackup: true})
	seed := c.net.NewNode("seed", 1, 399)
	inTxn(t, env, c, seed, 1, tbl, "p", func(p *sim.Proc, tx *Txn) error {
		if err := put(tx, tbl, "p", "k", "v"); err != nil {
			return err
		}
		return tx.Commit()
	})
	// A client per zone: with RF 3 each zone holds a replica, so the three
	// reads must land on three different replica slots.
	for z := simnet.ZoneID(1); z <= 3; z++ {
		cl := c.net.NewNode("cl", z, 400+simnet.HostID(z))
		inTxn(t, env, c, cl, z, tbl, "p", func(p *sim.Proc, tx *Txn) error {
			_, _, err := readCommitted(tx, tbl, "p", "k")
			if err != nil {
				return err
			}
			return tx.Commit()
		})
	}
	counts := tbl.partitionFor("p").ReadCounts()
	for slot, n := range counts {
		if n != 1 {
			t.Fatalf("read counts = %v, want one read per replica slot (slot %d)", counts, slot)
		}
	}
}

// TestTableScanIsRoutedLikeAnyRead pins the one read-routing path: a
// ScanTablePrefix over P partitions is P routed reads, so it shows up as P
// partition heat touches and P per-replica-slot read counts (Figure 14's
// counters), like the P one-scan batches it is made of.
func TestTableScanIsRoutedLikeAnyRead(t *testing.T) {
	env, c, client := testCluster(t, true, 3)
	hc := heat.NewCollector()
	c.SetHeat(hc)
	tbl := c.CreateTable("scattered", 128, TableOptions{ReadBackup: true})
	inTxn(t, env, c, client, 1, tbl, "a", func(p *sim.Proc, tx *Txn) error {
		for _, pk := range []string{"a", "b", "c"} {
			if err := put(tx, tbl, pk, "1/"+pk, pk); err != nil {
				return err
			}
		}
		return tx.Commit()
	})
	heatTotal := func(now time.Duration) uint64 {
		for _, f := range hc.Snapshot(now).Families {
			if f.Name == "partition" {
				return f.Total
			}
		}
		t.Fatal("no partition family in the heat report")
		return 0
	}
	slotReads := func() (n int64) {
		for _, part := range tbl.Partitions() {
			for _, r := range part.ReadCounts() {
				n += r
			}
		}
		return n
	}
	// The sketches decay with virtual time: read them at the scan's instant.
	var heatTouches uint64
	readsBefore := slotReads()
	inTxn(t, env, c, client, 1, tbl, "a", func(p *sim.Proc, tx *Txn) error {
		heatBefore := heatTotal(p.Now())
		kvs, err := tx.ScanTablePrefix(tbl, "1/")
		if err != nil {
			return err
		}
		if len(kvs) != 3 {
			t.Errorf("table scan found %d rows, want 3", len(kvs))
		}
		heatTouches = heatTotal(p.Now()) - heatBefore
		return tx.Commit()
	})
	parts := len(tbl.Partitions())
	if heatTouches != uint64(parts) {
		t.Errorf("table scan over %d partitions made %d partition heat touches", parts, heatTouches)
	}
	if got := slotReads() - readsBefore; got != int64(parts) {
		t.Errorf("table scan over %d partitions counted %d replica-slot reads", parts, got)
	}
}

func TestFullyReplicatedWritesReachAllGroupsAndReadsAreTCLocal(t *testing.T) {
	env, c, client := testCluster(t, true, 3)
	tbl := c.CreateTable("fr", 64, TableOptions{ReadBackup: true, FullyReplicated: true})
	inTxn(t, env, c, client, 1, tbl, "p", func(p *sim.Proc, tx *Txn) error {
		if err := put(tx, tbl, "p", "k", "v"); err != nil {
			return err
		}
		return tx.Commit()
	})
	// The commit chain must have touched at least one node in every group:
	// check REDO bytes accumulated (pending or already checkpointed to
	// disk) on some member of each group.
	for g, group := range c.NodeGroups() {
		var redo int64
		for _, dn := range group {
			_, w := dn.Node.DiskBytes()
			redo += dn.redoPending + w
		}
		if redo == 0 {
			t.Fatalf("group %d saw no redo from fully replicated write", g)
		}
	}
	// Reads are served by the TC itself: no extra cross-node read traffic.
	// Stop heartbeats first so only the read's traffic is measured.
	c.StopBackground()
	env.RunFor(time.Second)
	before := c.net.CrossZoneBytes()
	inTxn(t, env, c, client, 1, tbl, "p", func(p *sim.Proc, tx *Txn) error {
		v, ok, err := readCommitted(tx, tbl, "p", "k")
		if err != nil {
			return err
		}
		if !ok || v != "v" {
			t.Errorf("read (%v,%v)", v, ok)
		}
		return tx.Commit()
	})
	if got := c.net.CrossZoneBytes(); got != before {
		t.Fatalf("fully replicated read crossed zones: %d extra bytes", got-before)
	}
}

func TestExclusiveLockSerializesWriters(t *testing.T) {
	env, c, client := testCluster(t, true, 3)
	tbl := c.CreateTable("t", 64, TableOptions{ReadBackup: true})
	var order []string
	writer := func(name string, delay time.Duration) {
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
			if name == "first" {
				p.Sleep(30 * time.Millisecond) // hold the lock
			}
			if err := tx.Commit(); err != nil {
				t.Error(err)
				return
			}
			order = append(order, name)
		})
	}
	writer("first", 0)
	writer("second", 5*time.Millisecond)
	env.RunFor(time.Second)
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("order = %v, want [first second]", order)
	}
	inTxn(t, env, c, client, 1, tbl, "p", func(p *sim.Proc, tx *Txn) error {
		v, _, err := readCommitted(tx, tbl, "p", "k")
		if err != nil {
			return err
		}
		if v != "second" {
			t.Errorf("final value %v, want second", v)
		}
		return tx.Commit()
	})
}

func TestLockTimeoutAbortsWaiter(t *testing.T) {
	env, c, client := testCluster(t, true, 3)
	tbl := c.CreateTable("t", 64, TableOptions{ReadBackup: true})
	var waiterErr error
	env.Spawn("holder", func(p *sim.Proc) {
		tx, err := c.Begin(p, client, 1, tbl, "p")
		if err != nil {
			t.Error(err)
			return
		}
		if err := put(tx, tbl, "p", "k", "h"); err != nil {
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
		waiterErr = put(tx, tbl, "p", "k", "w")
	})
	env.RunFor(2 * time.Second)
	if !errors.Is(waiterErr, ErrLockTimeout) {
		t.Fatalf("waiter error = %v, want ErrLockTimeout", waiterErr)
	}
	if c.Stats.Aborted == 0 {
		t.Fatal("no aborts recorded")
	}
}

// A grant that lands in the instant the waiter's timeout has already fired —
// the timeout event first, a release later in the same instant — goes to a
// transaction that has given up. The waiter must still report
// ErrLockTimeout and free the grant it will never use: afterwards it holds
// nothing, no waiter is queued, and the next requester is granted at once.
func TestLockGrantRacingTimeoutIsReleased(t *testing.T) {
	env, c, client := testCluster(t, true, 3)
	tbl := c.CreateTable("t", 64, TableOptions{})
	part := tbl.partitionFor("p")
	begin := func(p *sim.Proc) *Txn {
		tx, err := c.Begin(p, client, 1, tbl, "p")
		if err != nil {
			t.Fatal(err)
		}
		return tx
	}
	var holder *Txn
	env.Spawn("holder", func(p *sim.Proc) {
		holder = begin(p)
		if err := holder.lockRowOn(p, part, "p", "k", LockExclusive); err != nil {
			t.Fatal(err)
		}
	})
	lateGrant, done := false, false
	env.Spawn("waiter", func(p *sim.Proc) {
		p.Sleep(10 * time.Millisecond)
		waiter := begin(p)
		p.Flush()
		deadline := p.Now() + lockTimeout
		// The releaser runs once the waiter has parked, so the release it
		// schedules for the deadline fires after the waiter's timeout.
		env.Spawn("releaser", func(*sim.Proc) {
			env.At(deadline, func() {
				holder.Abort()
				lateGrant = part.lookup("p", "k").lock.held(waiter.id) != 0
			})
		})
		err := waiter.lockRowOn(p, part, "p", "k", LockExclusive)
		if !errors.Is(err, ErrLockTimeout) || p.Now() != deadline {
			t.Errorf("waiter: %v at %v, want ErrLockTimeout at %v", err, p.Now(), deadline)
		}
		if !lateGrant {
			t.Fatal("the release did not grant the timed-out waiter: the race was not staged")
		}
		r := part.getRow("p", "k")
		if r.lock.held(waiter.id) != 0 || len(waiter.locks) != 0 {
			t.Errorf("the timed-out waiter still holds the row (mode %v, %d locks)", r.lock.held(waiter.id), len(waiter.locks))
		}
		if n := len(r.lock.waiters); n != 0 {
			t.Errorf("%d waiters queued after the timeout", n)
		}
		next := begin(p)
		p.Flush()
		asked := p.Now()
		if err := next.lockRowOn(p, part, "p", "k", LockExclusive); err != nil || p.Now() != asked {
			t.Errorf("next requester: %v at %v, want granted at once at %v", err, p.Now(), asked)
		}
		done = true
	})
	env.RunFor(time.Second)
	if !done {
		t.Fatal("the waiter never finished")
	}
}

func TestSharedLocksCoexistAndBlockExclusive(t *testing.T) {
	env, c, client := testCluster(t, true, 3)
	tbl := c.CreateTable("t", 64, TableOptions{ReadBackup: true})
	inTxn(t, env, c, client, 1, tbl, "p", func(p *sim.Proc, tx *Txn) error {
		if err := put(tx, tbl, "p", "k", "v"); err != nil {
			return err
		}
		return tx.Commit()
	})
	base := env.Now()
	var sharedDone [2]time.Duration
	var writerDone time.Duration
	for i := 0; i < 2; i++ {
		i := i
		env.Spawn("shared", func(p *sim.Proc) {
			tx, err := c.Begin(p, client, 1, tbl, "p")
			if err != nil {
				t.Error(err)
				return
			}
			if _, _, err := readLocked(tx, tbl, "p", "k", LockShared); err != nil {
				t.Error(err)
				return
			}
			p.Sleep(20 * time.Millisecond)
			if err := tx.Commit(); err != nil {
				t.Error(err)
			}
			sharedDone[i] = p.Now() - base
		})
	}
	env.Spawn("writer", func(p *sim.Proc) {
		p.Sleep(5 * time.Millisecond)
		tx, err := c.Begin(p, client, 1, tbl, "p")
		if err != nil {
			t.Error(err)
			return
		}
		if err := put(tx, tbl, "p", "k", "w"); err != nil {
			t.Error(err)
			return
		}
		if err := tx.Commit(); err != nil {
			t.Error(err)
		}
		writerDone = p.Now() - base
	})
	env.RunFor(time.Second)
	// Both shared readers overlap (finish ~same time); the writer finishes
	// only after both released.
	if sharedDone[0] > 30*time.Millisecond || sharedDone[1] > 30*time.Millisecond {
		t.Fatalf("shared readers did not overlap: %v", sharedDone)
	}
	if writerDone <= sharedDone[0] || writerDone <= sharedDone[1] {
		t.Fatalf("writer finished at %v before shared readers %v", writerDone, sharedDone)
	}
}

// TestGrantedWaiterLeavesNoReference pins that a row's wait queue lets go of
// the waiters it grants: the row outlives every wait, so a granted lockWaiter
// left in the queue's backing array would keep its process reachable.
// Two writers queue behind a third; each contended grant must clear the slot
// its waiter left.
func TestGrantedWaiterLeavesNoReference(t *testing.T) {
	env := sim.New(1)
	defer env.Close()
	var l rowLock
	waiter := env.NewStackless("waiter", func(*sim.Proc) {})
	for txn := uint64(1); txn <= 3; txn++ {
		if granted := l.acquire(waiter, txn, LockExclusive); granted != (txn == 1) {
			t.Fatalf("txn %d: granted %v, want only txn 1 granted at once", txn, granted)
		}
	}
	backing := l.waiters[:cap(l.waiters)]
	for _, txn := range []uint64{1, 2} {
		l.release(txn)
		if next := txn + 1; l.held(next) != LockExclusive {
			t.Fatalf("releasing txn %d did not grant txn %d", txn, next)
		}
		for i := range txn {
			if backing[i].p != nil {
				t.Errorf("after txn %d's release: slot %d still holds granted txn %d's waiter", txn, i, backing[i].txn)
			}
		}
	}
	if len(l.waiters) != 0 {
		t.Errorf("%d waiters queued after every writer was granted", len(l.waiters))
	}
}

func TestTCSelectionPrefersDomainLocal(t *testing.T) {
	env, c, _ := testCluster(t, true, 3)
	tbl := c.CreateTable("t", 64, TableOptions{ReadBackup: true})
	for z := simnet.ZoneID(1); z <= 3; z++ {
		cl := c.net.NewNode("cl", z, 500+simnet.HostID(z))
		var tc *DataNode
		env.Spawn("probe", func(p *sim.Proc) {
			tx, err := c.Begin(p, cl, z, tbl, "p")
			if err != nil {
				t.Error(err)
				return
			}
			tc = tx.Coordinator()
			tx.Abort()
		})
		env.RunFor(time.Second)
		if tc == nil || tc.Domain != z {
			t.Fatalf("zone %d client got TC in domain %v", z, tc.Domain)
		}
	}
}

func TestTCSelectionWithoutAwarenessPicksPrimary(t *testing.T) {
	env, c, client := testCluster(t, false, 3)
	tbl := c.CreateTable("t", 64, TableOptions{})
	var tc *DataNode
	env.Spawn("probe", func(p *sim.Proc) {
		tx, err := c.Begin(p, client, simnet.ZoneUnset, tbl, "p")
		if err != nil {
			t.Error(err)
			return
		}
		tc = tx.Coordinator()
		tx.Abort()
	})
	env.RunFor(time.Second)
	primary := tbl.partitionFor("p").replicas()[0]
	if tc != primary {
		t.Fatalf("TC = %v, want hinted primary %v", tc.Node, primary.Node)
	}
}

func TestNodeFailurePromotesBackupAndClusterContinues(t *testing.T) {
	env, c, client := testCluster(t, true, 3)
	tbl := c.CreateTable("t", 64, TableOptions{ReadBackup: true})
	inTxn(t, env, c, client, 1, tbl, "p", func(p *sim.Proc, tx *Txn) error {
		if err := put(tx, tbl, "p", "k", "before"); err != nil {
			return err
		}
		return tx.Commit()
	})
	part := tbl.partitionFor("p")
	oldPrimary := part.replicas()[0]
	oldPrimary.Node.Fail()
	// Let heartbeats detect and declare the failure.
	env.RunFor(2 * time.Second)
	if !oldPrimary.declaredDead {
		t.Fatal("failed primary not declared dead")
	}
	newPrimary := part.replicas()[0]
	if newPrimary == oldPrimary {
		t.Fatal("primary not promoted")
	}
	inTxn(t, env, c, client, 1, tbl, "p", func(p *sim.Proc, tx *Txn) error {
		v, ok, err := readCommitted(tx, tbl, "p", "k")
		if err != nil {
			return err
		}
		if !ok || v != "before" {
			t.Errorf("read (%v,%v) after failover", v, ok)
		}
		if err := put(tx, tbl, "p", "k", "after"); err != nil {
			return err
		}
		return tx.Commit()
	})
}

func TestSplitBrainArbitrationShutsDownOneSide(t *testing.T) {
	env, c, _ := testCluster(t, true, 3)
	// Partition zone 2 from zone 3; the arbitrator (M1, zone 1) is
	// reachable from both sides, so the first claimant's side survives and
	// the other side is ordered down.
	c.net.Partition(2, 3)
	env.RunFor(3 * time.Second)
	shutdownZones := map[simnet.ZoneID]int{}
	for _, dn := range c.DataNodes() {
		if dn.Shutdown() {
			shutdownZones[dn.Node.Zone()]++
		}
	}
	if len(shutdownZones) != 1 {
		t.Fatalf("zones shut down: %v, want exactly one of zone2/zone3", shutdownZones)
	}
	for z, n := range shutdownZones {
		if z == 1 {
			t.Fatal("zone 1 shut down; it was never partitioned")
		}
		if n != 2 {
			t.Fatalf("zone %d: %d nodes shut down, want 2", z, n)
		}
	}
	// The surviving majority keeps serving transactions.
	tbl := c.CreateTable("t", 64, TableOptions{ReadBackup: true})
	client := c.net.NewNode("cl", 1, 600)
	inTxn(t, env, c, client, 1, tbl, "p", func(p *sim.Proc, tx *Txn) error {
		if err := put(tx, tbl, "p", "k", "v"); err != nil {
			return err
		}
		return tx.Commit()
	})
}

func TestZoneCutOffFromArbitratorShutsItselfDown(t *testing.T) {
	env, c, _ := testCluster(t, true, 3)
	// Cut zone 3 from both zone 1 (arbitrator) and zone 2: zone 3 cannot
	// reach the arbitrator and must shut down (§V-F).
	c.net.Partition(1, 3)
	c.net.Partition(2, 3)
	env.RunFor(3 * time.Second)
	for _, dn := range c.DataNodes() {
		down := dn.Shutdown() || dn.declaredDead
		if dn.Node.Zone() == 3 && !down {
			t.Fatalf("zone-3 node %v still up without arbitrator", dn.Node)
		}
		if dn.Node.Zone() != 3 && down {
			t.Fatalf("node %v outside zone 3 went down", dn.Node)
		}
	}
}

func TestAZFailureToleratedWithRF3(t *testing.T) {
	env, c, _ := testCluster(t, true, 3)
	tbl := c.CreateTable("t", 64, TableOptions{ReadBackup: true})
	seed := c.net.NewNode("seed", 1, 601)
	inTxn(t, env, c, seed, 1, tbl, "p", func(p *sim.Proc, tx *Txn) error {
		if err := put(tx, tbl, "p", "k", "v"); err != nil {
			return err
		}
		return tx.Commit()
	})
	c.FailZone(2)
	env.RunFor(3 * time.Second)
	inTxn(t, env, c, seed, 1, tbl, "p", func(p *sim.Proc, tx *Txn) error {
		v, ok, err := readCommitted(tx, tbl, "p", "k")
		if err != nil {
			return err
		}
		if !ok || v != "v" {
			t.Errorf("read (%v,%v) after AZ failure", v, ok)
		}
		if err := put(tx, tbl, "p", "k2", "v2"); err != nil {
			return err
		}
		return tx.Commit()
	})
}

func TestCheckpointFlushesRedoToDisk(t *testing.T) {
	env, c, client := testCluster(t, true, 3)
	tbl := c.CreateTable("t", 4096, TableOptions{ReadBackup: true})
	for i := 0; i < 5; i++ {
		key := string(rune('a' + i))
		inTxn(t, env, c, client, 1, tbl, key, func(p *sim.Proc, tx *Txn) error {
			if err := put(tx, tbl, key, key, i); err != nil {
				return err
			}
			return tx.Commit()
		})
	}
	env.RunFor(gcpInterval * 2)
	var disk int64
	for _, dn := range c.DataNodes() {
		_, w := dn.Node.DiskBytes()
		disk += w
	}
	if disk == 0 {
		t.Fatal("no REDO bytes reached disk after two checkpoint intervals")
	}
}

// Without Read Backup the TC does not wait for Completes: each one charges
// its backup's RECV where it arrives. Many concurrent commits on one
// partition back up its backups' RECV pools; once the commits quiesce and
// their last Completes have landed, the pools' busy integral already covers
// every Complete, so nothing more is charged however long the cluster runs
// on — as it would be by a process working through a queue of them.
func TestFireAndForgetCompleteChargedOnArrival(t *testing.T) {
	env, c, client := testCluster(t, true, 3)
	tbl := c.CreateTable("t", 64, TableOptions{}) // no Read Backup: Complete is fire-and-forget
	const clients, commits = 200, 20
	done := 0
	for i := 0; i < clients; i++ {
		env.Spawn("committer", func(p *sim.Proc) {
			defer func() { done++ }()
			for j := 0; j < commits; j++ {
				key := fmt.Sprintf("k%d-%d", i, j)
				tx, err := c.Begin(p, client, 1, tbl, "p")
				if err == nil {
					err = put(tx, tbl, "p", key, j)
				}
				if err == nil {
					err = tx.Commit()
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		})
	}
	backups := tbl.partitionFor("p").replicas()[1:]
	var maxBacklog time.Duration
	recvBusy := func() (busy int64) {
		for _, dn := range backups {
			maxBacklog = max(maxBacklog, dn.threads[RECV].Backlog())
			busy += dn.threads[RECV].BusyIntegral()
		}
		return busy
	}
	if !env.RunUntil(func() bool { recvBusy(); return done == clients }, 50*time.Microsecond, 10*time.Second) {
		t.Fatalf("%d of %d committers finished", done, clients)
	}
	if maxBacklog < 100*time.Microsecond {
		t.Fatalf("backups' RECV backlog peaked at %v; the load does not back the pool up", maxBacklog)
	}
	env.RunFor(5 * time.Millisecond) // the last Completes land
	atQuiesce := recvBusy()
	env.RunFor(2 * time.Second)
	if late := recvBusy() - atQuiesce; late != 0 {
		t.Fatalf("%v of RECV service was charged after the commits quiesced; every Complete must be charged on arrival",
			time.Duration(late))
	}
}

func TestSpreadPlacementSpansZonesPerGroup(t *testing.T) {
	zones := []simnet.ZoneID{1, 2, 3}
	pl := SpreadPlacement(12, zones, 0)
	numGroups := 4 // 12 nodes, RF 3
	for g := 0; g < numGroups; g++ {
		seen := map[simnet.ZoneID]bool{}
		for i := g; i < 12; i += numGroups {
			seen[pl[i].Zone] = true
		}
		if len(seen) != 3 {
			t.Fatalf("group %d spans %d zones, want 3", g, len(seen))
		}
	}
}

func TestBeginWithNoAliveNodesFails(t *testing.T) {
	env, c, client := testCluster(t, true, 3)
	for _, dn := range c.DataNodes() {
		dn.Node.Fail()
		dn.shutdown = true
	}
	var err error
	env.Spawn("probe", func(p *sim.Proc) {
		_, err = c.Begin(p, client, 1, nil, "")
	})
	env.RunFor(time.Second)
	if !errors.Is(err, ErrNoNodes) {
		t.Fatalf("err = %v, want ErrNoNodes", err)
	}
}

func TestRejoinAfterNodeFailure(t *testing.T) {
	env, c, client := testCluster(t, true, 3)
	tbl := c.CreateTable("t", 128, TableOptions{ReadBackup: true})
	inTxn(t, env, c, client, 1, tbl, "p", func(p *sim.Proc, tx *Txn) error {
		if err := put(tx, tbl, "p", "k", "v"); err != nil {
			return err
		}
		return tx.Commit()
	})
	victim := tbl.partitionFor("p").replicas()[0]
	victim.Node.Fail()
	env.RunFor(2 * time.Second)
	if !victim.declaredDead {
		t.Fatal("victim not declared dead")
	}
	env.Spawn("rejoin", func(p *sim.Proc) { c.Rejoin(p, victim) })
	env.RunFor(5 * time.Second)
	if !victim.Alive() || victim.declaredDead {
		t.Fatal("victim did not rejoin")
	}
	// The rejoined node is a replica again and the resync moved bytes.
	found := false
	for _, dn := range tbl.partitionFor("p").replicas() {
		if dn == victim {
			found = true
		}
	}
	if !found {
		t.Fatal("rejoined node not serving its partitions")
	}
	if r, _ := victim.Node.NICBytes(); r == 0 {
		t.Fatal("rejoin copied no data")
	}
	// And transactions keep working, including on the rejoined node's data.
	inTxn(t, env, c, client, 1, tbl, "p", func(p *sim.Proc, tx *Txn) error {
		v, ok, err := readCommitted(tx, tbl, "p", "k")
		if err != nil {
			return err
		}
		if !ok || v != "v" {
			t.Errorf("read after rejoin: (%v,%v)", v, ok)
		}
		return tx.Commit()
	})
}

func TestRecoverZoneAfterAZFailure(t *testing.T) {
	env, c, client := testCluster(t, true, 3)
	tbl := c.CreateTable("t", 128, TableOptions{ReadBackup: true})
	inTxn(t, env, c, client, 1, tbl, "p", func(p *sim.Proc, tx *Txn) error {
		if err := put(tx, tbl, "p", "k", "v"); err != nil {
			return err
		}
		return tx.Commit()
	})
	c.FailZone(2)
	env.RunFor(2 * time.Second)
	env.Spawn("recover", func(p *sim.Proc) { c.RecoverZone(p, 2) })
	env.RunFor(10 * time.Second)
	for _, dn := range c.DataNodes() {
		if !dn.Alive() {
			t.Fatalf("node %v still down after zone recovery", dn.Node)
		}
	}
	inTxn(t, env, c, client, 1, tbl, "p", func(p *sim.Proc, tx *Txn) error {
		if err := put(tx, tbl, "p", "k2", "v2"); err != nil {
			return err
		}
		return tx.Commit()
	})
}

// TestCommitProtocolMessageCount pins the signals of a one-row write
// transaction, from Begin to the client's Ack, to the paper's Figure 2 under
// Read Backup. With three replicas: the request to the coordinator, Prepare
// x3 down the chain as the write executes and Prepared x1 back to the TC,
// Commit x3 in reverse, Committed x1, Complete x2 and Completed x2, and the
// Ack — 14 signals, the Ack being Figure 2's message 14. There is no staging
// exchange: executing the write is its Prepare. The coordinator is the
// AZ-local backup, and the chain ends at its replica (DESIGN §10), so the
// Prepared answer, the first Commit, and its own Complete and Completed are
// local signals: 10 of the 14 cross the network, and only those charge SEND
// and RECV jobs.
func TestCommitProtocolMessageCount(t *testing.T) {
	env, c, client := testCluster(t, true, 3)
	c.StopBackground()
	env.RunFor(time.Second) // drain housekeeping
	tbl := c.CreateTable("t", 64, TableOptions{ReadBackup: true})
	var msgs int64
	var stats Stats
	env.Spawn("txn", func(p *sim.Proc) {
		before, statsBefore := c.net.TotalMessages(), c.Stats
		tx, err := c.Begin(p, client, 1, tbl, "p")
		if err != nil {
			t.Error(err)
			return
		}
		if tx.Coordinator() == tbl.PrimaryFor("p") {
			t.Error("the coordinator is the row's primary; the test wants the AZ-local backup of §IV-A5")
		}
		if err := put(tx, tbl, "p", "k", "v"); err != nil {
			t.Error(err)
			return
		}
		if err := tx.Commit(); err != nil {
			t.Error(err)
			return
		}
		p.Flush()
		msgs, stats = c.net.TotalMessages()-before, c.Stats
		stats.LocalSignals -= statsBefore.LocalSignals
		stats.RecvJobs -= statsBefore.RecvJobs
		stats.SendJobs -= statsBefore.SendJobs
	})
	env.RunFor(time.Minute)
	if msgs != 10 || stats.LocalSignals != 4 {
		t.Fatalf("Begin to Ack used %d messages and %d local signals, want 10 + 4 = 14 signals (Figure 2 with RF 3 and Read Backup)",
			msgs, stats.LocalSignals)
	}
	// Every message but the client's request is sent by a datanode, and
	// every message but the Ack is received by one.
	if stats.SendJobs != 9 || stats.RecvJobs != 9 {
		t.Fatalf("%d SEND and %d RECV jobs, want 9 each", stats.SendJobs, stats.RecvJobs)
	}
}

// TestLocalSignalAtDeadNode: a local signal — a hop whose two ends are one
// datanode — is delivered only if that node is alive; at a dead one it is
// lost as a message to a dead node is, after the RPC timeout. The datanode
// dies while the transaction waits out its own deferred delay, after its
// rows were routed and before its signals leave, so every leg of each step
// below is a hop at or from a dead node.
//
//   - (a) Commit: on RF 1, two trains — a Read Backup row and a plain row
//     of one partition key — whose chain is the coordinator alone, prepared
//     while it lived. Their Commit passes are local signals only. Two
//     trains, because a multi-train commit waits for its effective instant
//     after its chain check and before its passes.
//   - (b) A read: a two-group ReadBatch, one group served at the
//     coordinator itself, after a write prepared on it. Two groups, because
//     a fan-out waits for its effective instant after routing.
//
// Each fails with ErrNodeUnavailable once the RPC timeout has passed, and
// no row is applied.
func TestLocalSignalAtDeadNode(t *testing.T) {
	// dieDuring runs step with the coordinator dying halfway through a
	// deferred delay the caller carries into it, and returns step's error
	// and how long it took.
	dieDuring := func(env *sim.Env, p *sim.Proc, tc *DataNode, step func() error) (time.Duration, error) {
		p.Flush()
		t0 := p.Now()
		env.Spawn("kill", func(k *sim.Proc) {
			k.Sleep(time.Millisecond)
			tc.Node.Fail()
		})
		p.Defer(2 * time.Millisecond)
		err := step()
		p.Flush()
		return p.Now() - t0, err
	}
	check := func(name string, took time.Duration, err error, part *Partition, keys ...string) {
		t.Helper()
		if !errors.Is(err, ErrNodeUnavailable) || took < rpcTimeout {
			t.Errorf("%s: %v after %v, want ErrNodeUnavailable after the %v RPC timeout", name, err, took, rpcTimeout)
		}
		for _, key := range keys {
			if _, ok := part.committed("p", key); ok {
				t.Errorf("%s: row %q applied on a dead node", name, key)
			}
		}
	}

	t.Run("commit", func(t *testing.T) {
		env, c, client := testCluster(t, true, 1)
		c.StopBackground()
		env.RunFor(time.Second)
		rb := c.CreateTable("rb", 64, TableOptions{ReadBackup: true})
		plain := c.CreateTable("plain", 64, TableOptions{})
		done := false
		env.Spawn("txn", func(p *sim.Proc) {
			tx, err := c.Begin(p, client, 1, rb, "p")
			if err != nil {
				t.Error(err)
				return
			}
			tc := tx.Coordinator()
			if tc != rb.PrimaryFor("p") || tc != plain.PrimaryFor("p") {
				t.Error("the coordinator is not the rows' sole replica")
				return
			}
			if err := tx.WriteBatch([]BatchWrite{
				{Table: rb, PartKey: "p", Key: "a", Val: "v"},
				{Table: plain, PartKey: "p", Key: "b", Val: "v"},
			}); err != nil {
				t.Error(err)
				return
			}
			if len(tx.trains) != 2 {
				t.Errorf("%d trains, want 2", len(tx.trains))
			}
			took, err := dieDuring(env, p, tc, tx.Commit)
			check("commit", took, err, rb.partitionFor("p"), "a")
			check("commit", took, err, plain.partitionFor("p"), "b")
			done = true
		})
		env.RunFor(time.Minute)
		if !done {
			t.Fatal("txn did not finish")
		}
	})

	t.Run("read", func(t *testing.T) {
		env, c, client := testCluster(t, true, 1)
		c.StopBackground()
		env.RunFor(time.Second)
		tbl := c.CreateTable("t", 64, TableOptions{})
		other := ""
		for i := 0; i < 64 && other == ""; i++ {
			if pk := fmt.Sprintf("q%d", i); tbl.PrimaryFor(pk) != tbl.PrimaryFor("p") {
				other = pk
			}
		}
		done := false
		env.Spawn("txn", func(p *sim.Proc) {
			tx, err := c.Begin(p, client, 1, tbl, "p")
			if err != nil {
				t.Error(err)
				return
			}
			if err := put(tx, tbl, "p", "w", "v"); err != nil {
				t.Error(err)
				return
			}
			took, err := dieDuring(env, p, tx.Coordinator(), func() error {
				_, err := tx.ReadBatch([]BatchGet{
					{Table: tbl, PartKey: "p", Key: "w"},
					{Table: tbl, PartKey: other, Key: "x"},
				})
				return err
			})
			check("read", took, err, tbl.partitionFor("p"), "w")
			if err := tx.Commit(); !errors.Is(err, ErrAborted) {
				t.Errorf("Commit after the failed read: %v, want ErrAborted", err)
			}
			done = true
		})
		env.RunFor(time.Minute)
		if !done {
			t.Fatal("txn did not finish")
		}
	})
}

// TestReadBackupDelaysAck verifies §IV-A3: with Read Backup the Ack waits
// for the Completed round trips, so a commit takes strictly longer than
// without (same deployment geometry).
func TestReadBackupDelaysAck(t *testing.T) {
	commitTime := func(rb bool) time.Duration {
		env, c, client := testCluster(t, true, 3)
		_ = env
		tbl := c.CreateTable("t", 64, TableOptions{ReadBackup: rb})
		var took time.Duration
		env.Spawn("txn", func(p *sim.Proc) {
			tx, err := c.Begin(p, client, 1, tbl, "p")
			if err != nil {
				t.Error(err)
				return
			}
			if err := put(tx, tbl, "p", "k", "v"); err != nil {
				t.Error(err)
				return
			}
			p.Flush()
			t0 := p.Now()
			if err := tx.Commit(); err != nil {
				t.Error(err)
				return
			}
			p.Flush()
			took = p.Now() - t0
		})
		env.RunFor(time.Minute)
		return took
	}
	with := commitTime(true)
	without := commitTime(false)
	if with <= without {
		t.Fatalf("Read Backup commit (%v) not slower than plain commit (%v)", with, without)
	}
}

// TestChainEndsAtTheTC runs TestCommitProtocolMessageCount's one-row write
// once for each position of its coordinator in the row's chain — RF 3, Read
// Backup, a client in each replica's AZ. The primary heads every chain, as
// the lock head and the commit point. A backup TC's replica ends the chain,
// so Prepare visits the primary, the other backup and then the TC's replica,
// whose Prepared answer is a local signal, as is the first Commit. From
// Begin to Ack: 12 messages + 2 local signals when the TC is the primary (the
// Prepare it sends itself and the Committed it takes itself), 10 + 4 when it
// is either backup (its Complete and Completed join the two). Every message
// but the client's request charges a SEND job, and every one but the Ack a
// RECV job. A fully replicated table's chain, which adds a node of each other
// group, ends at any TC on it too, with the others in replica order.
func TestChainEndsAtTheTC(t *testing.T) {
	for _, c := range []struct {
		name              string
		tc                int   // position in the partition's replicas
		order             []int // Prepare's visits, as positions in replicas
		msgs, local, jobs int64
	}{
		{"primary", 0, []int{0, 1, 2}, 12, 2, 11},
		{"first backup", 1, []int{0, 2, 1}, 10, 4, 9},
		{"last backup", 2, []int{0, 1, 2}, 10, 4, 9},
	} {
		t.Run(c.name, func(t *testing.T) {
			env, cl, _ := testCluster(t, true, 3)
			cl.StopBackground()
			env.RunFor(time.Second) // drain housekeeping
			tbl := cl.CreateTable("t", 64, TableOptions{ReadBackup: true})
			reps := tbl.partitionFor("p").replicas()
			tc := reps[c.tc]
			client := cl.net.NewNode("client", tc.Node.Zone(), 301)
			var msgs int64
			var stats Stats
			done := false
			env.Spawn("txn", func(p *sim.Proc) {
				before, statsBefore := cl.net.TotalMessages(), cl.Stats
				tx, err := cl.Begin(p, client, tc.Domain, tbl, "p")
				if err != nil {
					t.Error(err)
					return
				}
				if tx.Coordinator() != tc {
					t.Errorf("the coordinator is %s, want the client's AZ-local replica %s", tx.Coordinator().Node.Name(), tc.Node.Name())
					return
				}
				if err := put(tx, tbl, "p", "k", "v"); err != nil {
					t.Error(err)
					return
				}
				var order []int
				for _, dn := range tx.trains[0].chain {
					order = append(order, slices.Index(reps, dn))
				}
				if !slices.Equal(order, c.order) {
					t.Errorf("Prepare visited replicas %v, want %v", order, c.order)
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
				p.Flush()
				msgs, stats = cl.net.TotalMessages()-before, cl.Stats
				stats.LocalSignals -= statsBefore.LocalSignals
				stats.RecvJobs -= statsBefore.RecvJobs
				stats.SendJobs -= statsBefore.SendJobs
				done = true
			})
			env.RunFor(time.Minute)
			if !done {
				t.Fatal("txn did not complete")
			}
			if msgs != c.msgs || stats.LocalSignals != c.local {
				t.Errorf("Begin to Ack used %d messages and %d local signals, want %d + %d", msgs, stats.LocalSignals, c.msgs, c.local)
			}
			if stats.SendJobs != c.jobs || stats.RecvJobs != c.jobs {
				t.Errorf("%d SEND and %d RECV jobs, want %d each", stats.SendJobs, stats.RecvJobs, c.jobs)
			}
		})
	}
	t.Run("fully replicated", func(t *testing.T) {
		_, cl, _ := testCluster(t, true, 3)
		part := cl.CreateTable("full", 64, TableOptions{FullyReplicated: true}).partitionFor("p")
		base := slices.Clone(part.chainOf(nil))
		if len(base) != 4 {
			t.Fatalf("the chain is %d nodes, want 3 replicas and 1 node of the other group", len(base))
		}
		for pos, tc := range base {
			want := base
			if pos > 0 {
				want = append(slices.Delete(slices.Clone(base), pos, pos+1), tc)
			}
			if got := part.chainOf(tc); !slices.Equal(got, want) {
				t.Errorf("TC at position %d: chain %v, want %v", pos, got, want)
			}
		}
	})
}

// TestCommitPointDecides: a one-train transaction is committed once its
// primary has applied it. A backup that fails between that commit point
// and its Complete arm does not fail the commit. When the TC fails then
// too, its Ack cannot come; when it fails during the Commit pass, its
// Committed cannot: either way Commit answers ErrIndeterminate — still
// ErrNodeUnavailable to a classifier — not a definite failure a caller
// would retry. Stats counts the transaction committed, nothing stays
// locked and every read sees the row.
func TestCommitPointDecides(t *testing.T) {
	for _, c := range []struct {
		name           string
		backup, tc     bool // fail a backup, the TC, after the commit point
		tcInCommitPass bool // fail the TC before it
		want           error
	}{
		{name: "backup", backup: true},
		{name: "backup-then-tc", backup: true, tc: true, want: ErrIndeterminate},
		{name: "tc-in-commit-pass", tcInCommitPass: true, want: ErrIndeterminate},
	} {
		t.Run(c.name, func(t *testing.T) {
			env, cl, client := testCluster(t, true, 3)
			cl.StopBackground()
			env.RunFor(time.Second)
			tbl := cl.CreateTable("t", 64, TableOptions{ReadBackup: true})
			part := tbl.partitionFor("p")
			ran := false
			env.Spawn("txn", func(p *sim.Proc) {
				tx, err := cl.Begin(p, client, 1, tbl, "p")
				if err != nil {
					t.Error(err)
					return
				}
				if err := put(tx, tbl, "p", "k", "v"); err != nil {
					t.Error(err)
					return
				}
				tc, backup := tx.Coordinator(), part.replicas()[1]
				if backup == tc {
					backup = part.replicas()[2]
				}
				p.Flush()
				env.Spawn("fault", func(q *sim.Proc) {
					q.Sleep(time.Microsecond)
					if c.tcInCommitPass {
						tc.Node.Fail()
						return
					}
					for _, applied := part.committed("p", "k"); !applied; _, applied = part.committed("p", "k") {
						q.Sleep(time.Microsecond)
					}
					if c.backup {
						backup.Node.Fail()
					}
					if c.tc {
						tc.Node.Fail()
					}
				})
				before := cl.Stats
				if err := tx.Commit(); err != c.want || (err != nil && !errors.Is(err, ErrNodeUnavailable)) {
					t.Errorf("Commit = %v, want %v", err, c.want)
				}
				if cl.Stats.Committed != before.Committed+1 || cl.Stats.Aborted != before.Aborted {
					t.Errorf("Stats counted %d commits, %d aborts; want the transaction committed",
						cl.Stats.Committed-before.Committed, cl.Stats.Aborted-before.Aborted)
				}
				ran = true
			})
			env.RunFor(time.Minute)
			if !ran {
				t.Fatal("txn did not run")
			}
			if v, ok := part.committed("p", "k"); !ok || v != "v" {
				t.Errorf("row after the commit = %v, %v; want v", v, ok)
			}
			if held, open := cl.HeldLocks(), cl.InFlightTxns(); len(held) != 0 || open != 0 {
				t.Errorf("after the commit: locks %v, %d transactions in flight", held, open)
			}
		})
	}
}

// TestClusterCrashRecoversDurableEpochOnly pins the §II-B2 global
// checkpoint durability semantics: commits older than the last completed
// global checkpoint survive a whole-cluster failure; newer ones are lost.
func TestClusterCrashRecoversDurableEpochOnly(t *testing.T) {
	env, c, client := testCluster(t, true, 3)
	tbl := c.CreateTable("t", 64, TableOptions{ReadBackup: true})
	write := func(p *sim.Proc, key, val string) error {
		tx, err := c.Begin(p, client, 1, tbl, "p")
		if err != nil {
			return err
		}
		if err := put(tx, tbl, "p", key, val); err != nil {
			return err
		}
		return tx.Commit()
	}
	env.Spawn("scenario", func(p *sim.Proc) {
		if err := write(p, "durable", "v1"); err != nil {
			t.Error(err)
			return
		}
		// Let GCP epochs pass so the write becomes durable, then write a
		// row in the current (non-durable) epoch and crash immediately.
		p.Sleep(3 * gcpInterval)
		if c.DurableEpoch() == 0 {
			t.Error("no durable epoch after three intervals")
			return
		}
		if err := write(p, "volatile", "v2"); err != nil {
			t.Error(err)
			return
		}
		p.Flush()
		c.CrashRestartCluster(p)
	})
	env.RunFor(10 * time.Second)

	inTxn(t, env, c, client, 1, tbl, "p", func(p *sim.Proc, tx *Txn) error {
		v, ok, err := readCommitted(tx, tbl, "p", "durable")
		if err != nil {
			return err
		}
		if !ok || v != "v1" {
			t.Errorf("durable row after crash: (%v,%v)", v, ok)
		}
		_, ok, err = readCommitted(tx, tbl, "p", "volatile")
		if err != nil {
			return err
		}
		if ok {
			t.Error("non-durable row survived a whole-cluster crash")
		}
		return tx.Commit()
	})
	// The cluster keeps working after recovery.
	inTxn(t, env, c, client, 1, tbl, "p", func(p *sim.Proc, tx *Txn) error {
		if err := put(tx, tbl, "p", "after", "v3"); err != nil {
			return err
		}
		return tx.Commit()
	})
	// Recovery replayed REDO from disk on every node.
	var reads int64
	for _, dn := range c.DataNodes() {
		r, _ := dn.Node.DiskBytes()
		reads += r
	}
	if reads == 0 {
		t.Fatal("recovery read nothing from disk")
	}
}

// TestClusterCrashRestoresDurableValues is §II-B2's system restart after
// an update, a delete and an insert that are not yet durable, made by one
// transaction across two partition keys and so two commit trains, and then
// a second update of two of the rows. The restart gives every row back the
// value it held at the last global checkpoint and undoes the transactions
// whole; a second restart changes nothing, and the cluster commits again.
func TestClusterCrashRestoresDurableValues(t *testing.T) {
	env, c, client := testCluster(t, true, 3)
	tbl := c.CreateTable("t", 64, TableOptions{ReadBackup: true})
	const pkA = "a"
	var pkB string
	for i := 0; pkB == ""; i++ {
		pk := fmt.Sprintf("b%d", i)
		if !slices.Equal(tbl.partitionFor(pk).replicas(), tbl.partitionFor(pkA).replicas()) {
			pkB = pk
		}
	}
	upd := BatchWrite{Table: tbl, PartKey: pkA, Key: "upd"}
	gone := BatchWrite{Table: tbl, PartKey: pkB, Key: "del"}
	ins := BatchWrite{Table: tbl, PartKey: pkB, Key: "ins"}
	set := func(w BatchWrite, v Value) BatchWrite { w.Val = v; return w }
	write := func(p *sim.Proc, ws ...BatchWrite) error {
		tx, err := c.Begin(p, client, 1, tbl, pkA)
		if err != nil {
			return err
		}
		if err := tx.WriteBatch(ws); err != nil {
			return err
		}
		if len(tx.trains) != 2 {
			return fmt.Errorf("%d commit trains, want 2", len(tx.trains))
		}
		return tx.Commit()
	}
	// check reads every row and compares it with the durable state.
	check := func(p *sim.Proc, when string) {
		tx, err := c.Begin(p, client, 1, tbl, pkA)
		if err != nil {
			t.Errorf("%s: %v", when, err)
			return
		}
		for _, want := range []struct {
			w   BatchWrite
			val Value
		}{{upd, "v1"}, {gone, "v1"}, {ins, nil}} {
			v, ok, err := readCommitted(tx, tbl, want.w.PartKey, want.w.Key)
			if err != nil || v != want.val || ok != (want.val != nil) {
				t.Errorf("%s: (%s, %s) reads (%v, %v, %v), want %v",
					when, want.w.PartKey, want.w.Key, v, ok, err, want.val)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Errorf("%s: %v", when, err)
		}
	}
	done := false
	env.Spawn("scenario", func(p *sim.Proc) {
		if err := write(p, set(upd, "v1"), set(gone, "v1")); err != nil {
			t.Error(err)
			return
		}
		epoch := c.CurrentEpoch()
		p.Sleep(3 * gcpInterval)
		durable := c.DurableEpoch()
		if durable < epoch {
			t.Errorf("v1 committed in epoch %d, durable epoch %d", epoch, durable)
			return
		}
		gone.Del = true
		if err := write(p, set(upd, "v2"), gone, set(ins, "v2")); err != nil {
			t.Error(err)
			return
		}
		// A second write to the same rows: only the oldest pre-image is the
		// durable value.
		if err := write(p, set(upd, "v2b"), set(ins, "v2b")); err != nil {
			t.Error(err)
			return
		}
		p.Flush()
		if c.DurableEpoch() != durable {
			t.Error("a global checkpoint made the second write durable before the crash")
			return
		}
		c.CrashRestartCluster(p)
		check(p, "after the restart")
		c.CrashRestartCluster(p)
		check(p, "after a second restart")
		if err := write(p, set(upd, "v3"), set(ins, "v3")); err != nil {
			t.Errorf("commit after the restarts: %v", err)
		}
		done = true
	})
	env.RunFor(10 * time.Second)
	if !done && !t.Failed() {
		t.Fatal("the scenario did not finish")
	}
}

func TestEpochAdvances(t *testing.T) {
	env, c, _ := testCluster(t, true, 3)
	e0 := c.CurrentEpoch()
	env.RunFor(3 * gcpInterval)
	if c.CurrentEpoch() <= e0 {
		t.Fatalf("epoch did not advance: %d -> %d", e0, c.CurrentEpoch())
	}
	if c.DurableEpoch() >= c.CurrentEpoch() {
		t.Fatalf("durable epoch %d not behind current %d", c.DurableEpoch(), c.CurrentEpoch())
	}
}

// TestRepeatedCrashRestartEpochMonotone drives several whole-cluster
// crash/restart cycles with writes in between and checks the global
// checkpoint bookkeeping: the durable epoch never regresses across a
// crash, the current epoch always stays ahead of it, and every write
// acknowledged before a durable checkpoint survives every later crash.
func TestRepeatedCrashRestartEpochMonotone(t *testing.T) {
	env, c, client := testCluster(t, true, 3)
	tbl := c.CreateTable("t", 64, TableOptions{})
	var lastDurable uint64
	for cycle := 0; cycle < 3; cycle++ {
		key := fmt.Sprintf("k%d", cycle)
		inTxn(t, env, c, client, 1, tbl, "p", func(p *sim.Proc, tx *Txn) error {
			if err := put(tx, tbl, "p", key, "v"); err != nil {
				return err
			}
			return tx.Commit()
		})
		// Let the write become durable, then crash.
		env.RunFor(3 * gcpInterval)
		if d := c.DurableEpoch(); d < lastDurable {
			t.Fatalf("cycle %d: durable epoch regressed %d -> %d before crash", cycle, lastDurable, d)
		}
		env.Spawn("crash", func(p *sim.Proc) { c.CrashRestartCluster(p) })
		env.RunFor(2 * time.Second)
		if d := c.DurableEpoch(); d < lastDurable {
			t.Fatalf("cycle %d: durable epoch regressed %d -> %d across crash", cycle, lastDurable, d)
		}
		lastDurable = c.DurableEpoch()
		if cur := c.CurrentEpoch(); cur <= lastDurable {
			t.Fatalf("cycle %d: current epoch %d not ahead of durable %d after restart", cycle, cur, lastDurable)
		}
		// Every previously durable write is still there.
		for i := 0; i <= cycle; i++ {
			want := fmt.Sprintf("k%d", i)
			inTxn(t, env, c, client, 1, tbl, "p", func(p *sim.Proc, tx *Txn) error {
				v, ok, err := readCommitted(tx, tbl, "p", want)
				if err != nil {
					return err
				}
				if !ok || v != "v" {
					t.Errorf("cycle %d: durable row %s lost across crash: (%v,%v)", cycle, want, v, ok)
				}
				return tx.Commit()
			})
		}
	}
}

// TestReinstateClearsFalseDeclaration covers the lossy-network case: a
// node declared dead on missed heartbeats while still running. Rejoin
// clears the declaration and keeps the node's one heartbeat prober — an
// idle cluster sends as many messages per heartbeat interval after the
// rejoin as before the declaration — and the cluster keeps committing.
func TestReinstateClearsFalseDeclaration(t *testing.T) {
	env, c, client := testCluster(t, true, 3)
	tbl := c.CreateTable("t", 64, TableOptions{})
	victim := c.DataNodes()[1]
	// Windows start half an interval after the probers tick, so each holds
	// whole probe round trips.
	idleMessages := func() int64 {
		before := c.net.TotalMessages()
		env.RunFor(10 * heartbeatInterval)
		return c.net.TotalMessages() - before
	}
	env.RunFor(heartbeatInterval / 2)
	probes := idleMessages()
	if probes == 0 {
		t.Fatal("setup: an idle cluster sent no heartbeat probes")
	}
	c.DeclareDeadForTest(victim)
	if !victim.DeclaredDead() || !victim.Alive() {
		t.Fatalf("setup: want alive+declared-dead, got alive=%v declared=%v",
			victim.Alive(), victim.DeclaredDead())
	}
	env.Spawn("rejoin", func(p *sim.Proc) { c.Rejoin(p, victim) })
	env.RunFor(2 * time.Second)
	if victim.DeclaredDead() {
		t.Fatal("Rejoin did not clear the declaration")
	}
	if got := idleMessages(); got != probes {
		t.Fatalf("idle cluster sends %d messages per 10 heartbeat intervals after the rejoin, %d before: "+
			"the running node's prober must not be respawned", got, probes)
	}
	inTxn(t, env, c, client, 1, tbl, "p", func(p *sim.Proc, tx *Txn) error {
		if err := put(tx, tbl, "p", "k", "v"); err != nil {
			return err
		}
		return tx.Commit()
	})
	// Rejoin on a healthy node is a no-op.
	env.Spawn("noop", func(p *sim.Proc) { c.Rejoin(p, victim) })
	env.RunFor(time.Second)
	if victim.DeclaredDead() || !victim.Alive() {
		t.Fatal("Rejoin perturbed a healthy node")
	}
}
