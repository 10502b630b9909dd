package ndb

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"hopsfscl/internal/sim"
	"hopsfscl/internal/simnet"
)

// fixedInputs is the quick.Config of a property whose inputs decide which
// code runs: they come from one fixed seed, so every run takes the same
// paths and the package's coverage is the same from run to run.
func fixedInputs(n int) *quick.Config {
	return &quick.Config{MaxCount: n, Rand: rand.New(rand.NewSource(1))}
}

// TestPropRowLockInvariants drives a row lock with random acquire/release
// sequences among six transactions — so shared holds spill past the inline
// holder — and checks the classic 2PL invariants after every step: at most
// one exclusive holder, shared and exclusive never coexist, the inline holder
// is empty only when nobody holds the row, and no granted waiter remains
// queued.
func TestPropRowLockInvariants(t *testing.T) {
	const txns = 6
	prop := func(seed int64, opsRaw []byte) bool {
		env := sim.New(seed)
		defer env.Close()
		var l rowLock
		waiter := env.NewStackless("waiter", func(*sim.Proc) {})
		rng := rand.New(rand.NewSource(seed))
		held := map[uint64]LockMode{}
		pendingTxns := map[uint64]bool{}
		for _, b := range opsRaw {
			txn := uint64(b%txns) + 1
			switch {
			case b%3 != 0:
				mode := LockShared
				if b%2 == 0 {
					mode = LockExclusive
				}
				if pendingTxns[txn] {
					continue // txn already waiting; a real txn blocks
				}
				if l.acquire(waiter, txn, mode) {
					if cur := l.held(txn); cur < mode {
						t.Errorf("grant did not record mode: %v < %v", cur, mode)
						return false
					}
					held[txn] = l.held(txn)
				} else {
					pendingTxns[txn] = true
				}
			default:
				if len(held) == 0 {
					continue
				}
				var victims []uint64
				for h := range held {
					victims = append(victims, h)
				}
				victim := victims[rng.Intn(len(victims))]
				l.release(victim)
				delete(held, victim)
				if l.held(victim) != 0 {
					t.Errorf("txn %d still holds the row after releasing it", victim)
					return false
				}
				// Grants may have fired: sync view from holders.
				for h := uint64(1); h <= txns; h++ {
					if m := l.held(h); m != 0 {
						held[h] = m
						delete(pendingTxns, h)
					}
				}
			}
			// Invariants.
			exclusive := 0
			shared := 0
			for h := uint64(1); h <= txns; h++ {
				switch l.held(h) {
				case LockExclusive:
					exclusive++
				case LockShared:
					shared++
				}
			}
			if exclusive > 1 {
				t.Errorf("%d exclusive holders", exclusive)
				return false
			}
			if exclusive == 1 && shared > 0 {
				t.Errorf("shared (%d) coexists with exclusive", shared)
				return false
			}
			if l.holder.txn == 0 && exclusive+shared > 0 {
				t.Errorf("inline holder empty with %d holders", exclusive+shared)
				return false
			}
			if got := len(l.more); exclusive+shared > 0 && got != exclusive+shared-1 {
				t.Errorf("%d spilled holders beside the inline one, want %d", got, exclusive+shared-1)
				return false
			}
			// A queued waiter must genuinely be incompatible right now,
			// or behind another waiter (FIFO, no barging).
			if len(l.waiters) > 0 {
				w := l.waiters[0]
				if l.compatible(w.txn, w.mode) {
					t.Error("head waiter is compatible but not granted")
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, fixedInputs(200)); err != nil {
		t.Fatal(err)
	}
}

// TestPropHashKeyBoundsAndDeterminism checks the partition hash.
func TestPropHashKeyBoundsAndDeterminism(t *testing.T) {
	prop := func(key string, n uint8) bool {
		parts := int(n%64) + 1
		a := hashKey(key, parts)
		b := hashKey(key, parts)
		return a == b && a >= 0 && a < parts
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPropPartitionOfMatchesHashKey: PartitionOf returns the partition
// hashKey names, and hashKey is the 32-bit FNV-1a of hash/fnv, so every
// partition key keeps its placement; two keys share a partition exactly when
// they hash to one.
func TestPropPartitionOfMatchesHashKey(t *testing.T) {
	prop := func(key, pk string, n uint8) bool {
		parts := int(n%64) + 1
		tbl := &Table{partitions: make([]*Partition, parts)}
		for i := range tbl.partitions {
			tbl.partitions[i] = &Partition{index: i}
		}
		h := fnv.New32a()
		_, _ = h.Write([]byte(key))
		return hashKey(key, parts) == int(h.Sum32()%uint32(parts)) &&
			tbl.PartitionOf([]byte(key)).index == hashKey(key, parts) &&
			(tbl.PartitionOf([]byte(key)) == tbl.PartitionOf([]byte(pk))) == (hashKey(key, parts) == hashKey(pk, parts))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestPropSpreadPlacementBalanced checks that SpreadPlacement distributes
// nodes evenly over zones and that every node group spans multiple zones
// whenever the geometry allows it.
func TestPropSpreadPlacementBalanced(t *testing.T) {
	prop := func(nodesRaw, zonesRaw, rfRaw uint8) bool {
		zones := int(zonesRaw%3) + 1
		rf := int(rfRaw%3) + 1
		// Node count: a multiple of rf and zones for clean geometry.
		factor := int(nodesRaw%4) + 1
		n := rf * zones * factor
		zoneIDs := make([]simnet.ZoneID, zones)
		for i := range zoneIDs {
			zoneIDs[i] = simnet.ZoneID(i + 1)
		}
		pls := SpreadPlacement(n, zoneIDs, 0)
		if len(pls) != n {
			return false
		}
		// Even spread.
		perZone := map[simnet.ZoneID]int{}
		for _, pl := range pls {
			perZone[pl.Zone]++
		}
		for _, c := range perZone {
			if c != n/zones {
				return false
			}
		}
		// Group coverage: group g = indices {g, g+numGroups, ...}.
		numGroups := n / rf
		want := min(zones, rf)
		for g := 0; g < numGroups; g++ {
			seen := map[simnet.ZoneID]bool{}
			for i := g; i < n; i += numGroups {
				seen[pls[i].Zone] = true
			}
			if len(seen) < want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, fixedInputs(300)); err != nil {
		t.Fatal(err)
	}
}

// TestPropSequentialCommitsMatchOracle applies random sequential write
// transactions and checks that reads always return the last committed
// value, using a plain map as the oracle.
func TestPropSequentialCommitsMatchOracle(t *testing.T) {
	prop := func(seed int64, script []byte) bool {
		env := sim.New(seed)
		defer env.Close()
		net := simnet.New(env, simnet.USWest1())
		cfg := DefaultConfig()
		cfg.DataNodes = 6
		cfg.Replication = 3
		cfg.PartitionsPerTable = 8
		c, err := New(env, net, cfg, SpreadPlacement(6, []simnet.ZoneID{1, 2, 3}, 0), nil)
		if err != nil {
			t.Fatal(err)
		}
		tbl := c.CreateTable("t", 64, TableOptions{ReadBackup: true})
		client := net.NewNode("client", 1, 100)
		oracle := map[string]int{}
		ok := true
		env.Spawn("driver", func(p *sim.Proc) {
			for i, b := range script {
				pk := fmt.Sprintf("p%d", b%5)
				key := fmt.Sprintf("k%d", b%7)
				tx, err := c.Begin(p, client, 1, tbl, pk)
				if err != nil {
					t.Error(err)
					ok = false
					return
				}
				switch b % 3 {
				case 0: // write
					if err := put(tx, tbl, pk, key, i); err != nil {
						t.Error(err)
						ok = false
						return
					}
					if err := tx.Commit(); err != nil {
						t.Error(err)
						ok = false
						return
					}
					oracle[pk+"|"+key] = i
				case 1: // delete
					if err := del(tx, tbl, pk, key); err != nil {
						t.Error(err)
						ok = false
						return
					}
					if err := tx.Commit(); err != nil {
						t.Error(err)
						ok = false
						return
					}
					delete(oracle, pk+"|"+key)
				case 2: // read and compare
					v, found, err := readCommitted(tx, tbl, pk, key)
					if err != nil {
						t.Error(err)
						ok = false
						return
					}
					tx.Abort()
					want, exists := oracle[pk+"|"+key]
					if found != exists || (found && v.(int) != want) {
						t.Errorf("read (%v,%v), oracle (%v,%v)", v, found, want, exists)
						ok = false
						return
					}
				}
			}
		})
		env.RunFor(time.Minute)
		return ok
	}
	if err := quick.Check(prop, fixedInputs(25)); err != nil {
		t.Fatal(err)
	}
}

// TestPropTCSelectionSound checks the coordinator selection policy over
// random hints: the chosen TC is always alive, and for Read Backup tables
// with an AZ-local replica the TC shares the caller's domain.
func TestPropTCSelectionSound(t *testing.T) {
	env := sim.New(5)
	defer env.Close()
	net := simnet.New(env, simnet.USWest1())
	cfg := DefaultConfig()
	cfg.DataNodes = 6
	cfg.Replication = 3
	cfg.PartitionsPerTable = 12
	c, err := New(env, net, cfg, SpreadPlacement(6, []simnet.ZoneID{1, 2, 3}, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	rb := c.CreateTable("rb", 64, TableOptions{ReadBackup: true})
	plain := c.CreateTable("plain", 64, TableOptions{})
	clients := map[simnet.ZoneID]*simnet.Node{}
	for z := simnet.ZoneID(1); z <= 3; z++ {
		clients[z] = net.NewNode("cl", z, simnet.HostID(200+int(z)))
	}
	prop := func(hintRaw uint16, zoneRaw, tblRaw uint8) bool {
		z := simnet.ZoneID(zoneRaw%3) + 1
		hint := fmt.Sprintf("h%d", hintRaw)
		tbl := rb
		if tblRaw%2 == 0 {
			tbl = plain
		}
		tc := c.selectTC(clients[z], z, tbl, hint)
		if tc == nil || !tc.Alive() {
			return false
		}
		// §IV-A5 cases 1 and 3: with RF 3 over 3 AZs a replica of the
		// hinted partition exists in the caller's zone, so the coordinator
		// is always AZ-local (for plain tables only reads reroute to the
		// primary afterwards).
		if tc.Domain != z {
			return false
		}
		for _, rep := range tbl.partitionFor(hint).replicas() {
			if rep == tc {
				return true
			}
		}
		return false
	}
	if err := quick.Check(prop, fixedInputs(500)); err != nil {
		t.Fatal(err)
	}
}

// TestPropReplicasAlwaysAliveAndPrimaryFirst kills random datanodes and
// checks partition replica lists stay consistent.
func TestPropReplicasAlwaysAliveAndPrimaryFirst(t *testing.T) {
	prop := func(seed int64, kills []byte) bool {
		env := sim.New(seed)
		defer env.Close()
		net := simnet.New(env, simnet.USWest1())
		cfg := DefaultConfig()
		cfg.DataNodes = 6
		cfg.Replication = 3
		cfg.PartitionsPerTable = 6
		c, err := New(env, net, cfg, SpreadPlacement(6, []simnet.ZoneID{1, 2, 3}, 0), nil)
		if err != nil {
			t.Fatal(err)
		}
		tbl := c.CreateTable("t", 64, TableOptions{ReadBackup: true})
		if len(kills) > 4 {
			kills = kills[:4] // keep at least 2 nodes alive
		}
		for _, k := range kills {
			dn := c.datanodes[int(k)%len(c.datanodes)]
			dn.Node.Fail()
			c.declareDead(dn)
		}
		for _, part := range tbl.Partitions() {
			reps := part.replicas()
			for _, dn := range reps {
				if !dn.Alive() {
					return false
				}
			}
			// All replicas of one partition belong to its node group.
			for _, dn := range reps {
				if dn.Group != part.Group() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, fixedInputs(60)); err != nil {
		t.Fatal(err)
	}
}

// TestPropPartitionHealSymmetry drives random partition/heal sequences
// over the zone pairs and checks, after every step, that the partition
// relation stays symmetric and reflexively clean (a zone is never
// partitioned from itself), and that healing everything leaves no pair
// partitioned and the cluster able to commit.
func TestPropPartitionHealSymmetry(t *testing.T) {
	prop := func(seed int64, script []byte) bool {
		env := sim.New(seed)
		defer env.Close()
		net := simnet.New(env, simnet.USWest1())
		cfg := DefaultConfig()
		cfg.DataNodes = 6
		cfg.Replication = 3
		cfg.PartitionsPerTable = 8
		mgmt := []Placement{{Zone: 1, Host: 200}, {Zone: 2, Host: 201}, {Zone: 3, Host: 202}}
		c, err := New(env, net, cfg, SpreadPlacement(6, []simnet.ZoneID{1, 2, 3}, 0), mgmt)
		if err != nil {
			t.Fatal(err)
		}
		tbl := c.CreateTable("t", 64, TableOptions{})
		client := net.NewNode("client", 1, 100)
		pairs := [][2]simnet.ZoneID{{1, 2}, {1, 3}, {2, 3}}
		ok := true
		check := func() {
			for z := simnet.ZoneID(1); z <= 3; z++ {
				if net.Partitioned(z, z) {
					t.Errorf("zone %d partitioned from itself", z)
					ok = false
				}
			}
			for _, pr := range pairs {
				if net.Partitioned(pr[0], pr[1]) != net.Partitioned(pr[1], pr[0]) {
					t.Errorf("partition relation asymmetric for %v", pr)
					ok = false
				}
			}
		}
		for _, b := range script {
			pr := pairs[int(b)%len(pairs)]
			if b%2 == 0 {
				c.NextArbitrationEpoch()
				net.Partition(pr[0], pr[1])
			} else {
				net.Heal(pr[0], pr[1])
			}
			check()
			env.RunFor(50 * time.Millisecond)
		}
		// Heal everything and rejoin arbitration casualties; the cluster
		// must be whole and writable again.
		for _, pr := range pairs {
			net.Heal(pr[0], pr[1])
		}
		for _, pr := range pairs {
			if net.Partitioned(pr[0], pr[1]) {
				t.Errorf("pair %v still partitioned after heal", pr)
				ok = false
			}
		}
		env.Spawn("rejoin", func(p *sim.Proc) {
			// Shutdown orders from the last arbitration round may still be
			// in flight when the heal lands, so a node examined early in a
			// pass can go down moments later: keep making passes until one
			// finds every node already restored.
			for pass := 0; pass < 8; pass++ {
				stable := true
				for _, dn := range c.DataNodes() {
					if !dn.Alive() || dn.DeclaredDead() {
						c.Rejoin(p, dn)
						stable = false
					}
				}
				if stable && pass > 0 {
					return
				}
				p.Sleep(250 * time.Millisecond)
			}
		})
		env.RunFor(5 * time.Second)
		for _, dn := range c.DataNodes() {
			if !dn.Alive() || dn.DeclaredDead() {
				t.Errorf("datanode %d not restored after heal+rejoin", dn.Index)
				ok = false
			}
		}
		var commitErr error
		env.Spawn("commit", func(p *sim.Proc) {
			tx, err := c.Begin(p, client, 1, tbl, "pk")
			if err != nil {
				commitErr = err
				return
			}
			if err := put(tx, tbl, "pk", "k", "v"); err != nil {
				commitErr = err
				return
			}
			commitErr = tx.Commit()
		})
		env.RunFor(5 * time.Second)
		if commitErr != nil {
			t.Errorf("cluster not writable after full heal: %v", commitErr)
			ok = false
		}
		return ok
	}
	if err := quick.Check(prop, fixedInputs(15)); err != nil {
		t.Fatal(err)
	}
}

// TestPropNoHalfCommitUnderRepartition fires multi-row transactions (two
// rows hashed to different partitions) while a background process keeps
// re-partitioning and healing random zone pairs mid-flight. Whatever the
// commit outcome, the two rows of each transaction must be present either
// both or not at all — a mid-2PC partition may fail the transaction but
// can never half-commit it.
func TestPropNoHalfCommitUnderRepartition(t *testing.T) {
	prop := func(seed int64, flips []byte) bool {
		env := sim.New(seed)
		defer env.Close()
		net := simnet.New(env, simnet.USWest1())
		cfg := DefaultConfig()
		cfg.DataNodes = 6
		cfg.Replication = 3
		cfg.PartitionsPerTable = 8
		mgmt := []Placement{{Zone: 1, Host: 200}, {Zone: 2, Host: 201}, {Zone: 3, Host: 202}}
		c, err := New(env, net, cfg, SpreadPlacement(6, []simnet.ZoneID{1, 2, 3}, 0), mgmt)
		if err != nil {
			t.Fatal(err)
		}
		tbl := c.CreateTable("t", 64, TableOptions{ReadBackup: true})
		client := net.NewNode("client", 1, 100)
		pairs := [][2]simnet.ZoneID{{1, 2}, {1, 3}, {2, 3}}

		// The flipper toggles partitions on a cadence chosen to land inside
		// commit chains (2PC passes take a few hundred microseconds to a
		// few milliseconds across zones).
		env.Spawn("flipper", func(p *sim.Proc) {
			for i, b := range flips {
				pr := pairs[int(b)%len(pairs)]
				c.NextArbitrationEpoch()
				net.Partition(pr[0], pr[1])
				p.Sleep(time.Duration(1+int(b)%5) * time.Millisecond)
				net.Heal(pr[0], pr[1])
				p.Sleep(time.Duration(1+i%3) * time.Millisecond)
			}
		})
		type attempt struct {
			keyA, keyB string
			err        error
		}
		var attempts []attempt
		env.Spawn("writer", func(p *sim.Proc) {
			for i := 0; i < 2*len(flips)+4; i++ {
				// Distinct partition keys so the two rows commit through
				// two parallel chains.
				a := attempt{keyA: fmt.Sprintf("a%d", i), keyB: fmt.Sprintf("b%d", i)}
				tx, err := c.Begin(p, client, 1, tbl, a.keyA)
				if err != nil {
					a.err = err
					attempts = append(attempts, a)
					continue
				}
				if err := put(tx, tbl, a.keyA, "k", i); err == nil {
					if err2 := put(tx, tbl, a.keyB, "k", i); err2 == nil {
						a.err = tx.Commit()
					} else {
						a.err = err2
						tx.Abort()
					}
				} else {
					a.err = err
					tx.Abort()
				}
				attempts = append(attempts, a)
			}
		})
		env.RunFor(30 * time.Second)

		// Heal and rejoin everything, then audit atomicity directly on
		// committed state.
		for _, pr := range pairs {
			net.Heal(pr[0], pr[1])
		}
		env.Spawn("rejoin", func(p *sim.Proc) {
			// Shutdown orders from the last arbitration round may still be
			// in flight when the heal lands, so a node examined early in a
			// pass can go down moments later: keep making passes until one
			// finds every node already restored.
			for pass := 0; pass < 8; pass++ {
				stable := true
				for _, dn := range c.DataNodes() {
					if !dn.Alive() || dn.DeclaredDead() {
						c.Rejoin(p, dn)
						stable = false
					}
				}
				if stable && pass > 0 {
					return
				}
				p.Sleep(250 * time.Millisecond)
			}
		})
		env.RunFor(5 * time.Second)

		ok := true
		exists := func(pk string) bool {
			_, found := tbl.partitionFor(pk).committed(pk, "k")
			return found
		}
		for _, a := range attempts {
			hasA, hasB := exists(a.keyA), exists(a.keyB)
			if hasA != hasB {
				t.Errorf("half-commit: %s=%v %s=%v (commit err: %v)", a.keyA, hasA, a.keyB, hasB, a.err)
				ok = false
			}
			if a.err == nil && !hasA {
				t.Errorf("acked transaction %s/%s lost", a.keyA, a.keyB)
				ok = false
			}
		}
		return ok
	}
	if err := quick.Check(prop, fixedInputs(10)); err != nil {
		t.Fatal(err)
	}
}
