package chaos

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"hopsfscl/internal/core"
	"hopsfscl/internal/namenode"
	"hopsfscl/internal/ndb"
	"hopsfscl/internal/sim"
	"hopsfscl/internal/simnet"
	"hopsfscl/internal/workload"
)

// TestCrossShardRenameCrashRace is the two-shard commit property test: a
// stream of renames pinned to cross the shard boundary races the crash of
// the exact datanode serving the participating partition — on the source
// shard, or on the destination shard — or of the namenode committing the
// rename. After recovery and an intent sweep, every file must exist exactly
// once (no lost acked write, no duplicated or orphaned inode), storage must
// agree with the acked outcome, and the operation history must check
// clean. Runs ≥5 seeds; the CI test job repeats it under -race.
func TestCrossShardRenameCrashRace(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	disturbed := 0
	for _, seed := range seeds {
		for victim := 0; victim <= victimNN; victim++ {
			seed, victim := seed, victim
			name := fmt.Sprintf("seed%d-crash-shard%d", seed, victim)
			if victim == victimNN {
				name = fmt.Sprintf("seed%d-crash-nn", seed)
			}
			t.Run(name, func(t *testing.T) {
				disturbed += runRenameCrashRace(t, seed, victim)
			})
		}
	}
	if disturbed == 0 {
		t.Fatalf("no scenario disturbed a rename: the race never bit, crash timing needs retuning")
	}
}

// victimNN names the scenario whose victim is the namenode committing the
// renames rather than a datanode of shard 0 or 1.
const victimNN = 2

// runRenameCrashRace runs one scenario and returns 1 when the crash
// actually disturbed the rename stream (an errored rename or a pending
// intent), 0 when every rename sailed through before or after the outage.
func runRenameCrashRace(t *testing.T, seed int64, victim int) int {
	const files = 16
	setup, _ := core.SetupByName("HopsFS-CL (3,3)")
	o := core.DefaultOptions(setup)
	o.MetadataServers = 3
	o.ClientsPerServer = 1
	o.StorageNodes = 6
	o.PartitionsPerTable = 8
	o.Namespace = workload.NamespaceSpec{TopDirs: 1, SubDirs: 1, FilesPerDir: 2}
	o.Seed = seed
	o.Shards = 2
	d, err := core.Build(o)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	cl := d.NS.NewClient(1, simnet.HostID(9500), 1)

	var (
		records          []Record
		renameErrs       = make([]error, files)
		srcID, dstID     uint64
		setupErr         error
		renamesStarted   bool
		renamesDone      bool
		pendingBeforeFix int
	)
	name := func(i int) string { return fmt.Sprintf("f%02d", i) }

	d.Env.Spawn("driver", func(p *sim.Proc) {
		fail := func(stage string, err error) bool {
			if err != nil && setupErr == nil {
				setupErr = fmt.Errorf("%s: %w", stage, err)
			}
			return err != nil
		}
		if fail("mkdir race", cl.Mkdir(p, "/race")) ||
			fail("mkdir src", cl.Mkdir(p, "/race/src")) ||
			fail("mkdir dst", cl.Mkdir(p, "/race/dst")) {
			return
		}
		src, err := cl.Stat(p, "/race/src")
		if fail("stat src", err) {
			return
		}
		dst, err := cl.Stat(p, "/race/dst")
		if fail("stat dst", err) {
			return
		}
		srcID, dstID = src.ID, dst.ID
		// Pin the two directories to different shards before any child
		// rows exist, so every rename below is a true two-shard commit.
		if fail("pin src", d.NS.PinSubtree(src.ID, 0)) ||
			fail("pin dst", d.NS.PinSubtree(dst.ID, 1)) {
			return
		}
		for i := 0; i < files; i++ {
			invoke := p.Now()
			err := cl.Create(p, "/race/src/"+name(i), 100)
			records = append(records, Record{Op: "create", Path: "/race/src/" + name(i),
				Invoke: invoke, Return: p.Now(), Err: err})
			if fail("create", err) {
				return
			}
		}
		renamesStarted = true
		for i := 0; i < files; i++ {
			invoke := p.Now()
			err := cl.Rename(p, "/race/src/"+name(i), "/race/dst/"+name(i))
			renameErrs[i] = err
			records = append(records, Record{Op: "rename", Path: "/race/src/" + name(i),
				Path2: "/race/dst/" + name(i), Invoke: invoke, Return: p.Now(), Err: err})
			p.Sleep(500 * time.Microsecond)
		}
		renamesDone = true
	})

	// The saboteur: once renames begin, wait a seed-dependent offset, then
	// poll for a durable cross-shard intent — the sign that some rename is
	// between its first commit and its clear — and at that instant crash the
	// victim: the datanode serving the racing partition on the victim shard,
	// or the namenode committing the rename. Crashing the destination shard
	// fails the second leg mid-commit; crashing the source shard hits the
	// intent holder, stranding the record until the sweep; killing the
	// namenode loses the rename's ack and its clear — the later leg needs
	// no message from it, so it applies — stranding the record and the
	// leg's marker. Either way the crash lands inside the two-shard commit
	// window deterministically.
	d.Env.Spawn("saboteur", func(p *sim.Proc) {
		for !renamesStarted && setupErr == nil {
			p.Sleep(200 * time.Microsecond)
		}
		if setupErr != nil {
			return
		}
		p.Sleep(time.Duration(seed) * time.Millisecond)
		deadline := p.Now() + 10*time.Second
		for d.NS.PendingIntents() == 0 && !renamesDone && p.Now() < deadline {
			p.Sleep(20 * time.Microsecond)
		}
		if victim == victimNN {
			// The namenode committing the renames is the one the client
			// is stuck to: the only one that has served an operation.
			var nn *namenode.NameNode
			for _, n := range d.NS.NameNodes() {
				if n.Ops > 0 {
					if nn != nil {
						t.Errorf("%s and %s both served operations", nn.Node.Name(), n.Node.Name())
					}
					nn = n
				}
			}
			nn.Fail()
			p.Sleep(1500 * time.Millisecond)
			nn.Recover()
			return
		}
		db := d.MetaClusters()[victim]
		dirID := srcID
		if victim == 1 {
			dirID = dstID
		}
		dn := db.Table("inodes").PrimaryFor(fmt.Sprintf("%d", dirID))
		if dn == nil {
			return
		}
		dn.Node.Fail()
		p.Sleep(1500 * time.Millisecond)
		db.Rejoin(p, dn)
	})

	d.Env.RunFor(40 * time.Second)
	if setupErr != nil {
		t.Fatalf("scenario setup failed: %v", setupErr)
	}
	if !renamesDone {
		t.Fatalf("rename stream never finished")
	}
	pendingBeforeFix = d.NS.PendingIntents()
	// The crash can land anywhere in the two-shard commit: before the
	// intent is durable (clean abort), between the commits (inline
	// resolution or a stranded intent), or after. All of those are the
	// race biting; the router's counters see every case, including the
	// ones the retry/resolution machinery masks from the client.
	crossOK := d.Registry.Counter("shard.txn.cross").Value()
	crossAborts := d.Registry.Counter("shard.txn.cross_aborts").Value()
	crossIndet := d.Registry.Counter("shard.txn.cross_indeterminate").Value()
	resolvedInline := d.Registry.Counter("shard.intents.resolved").Value()
	if crossOK+crossIndet == 0 {
		t.Fatalf("no rename crossed the shard boundary: pinning is broken")
	}

	// Recovery: sweep any intent a mid-commit crash left durable.
	d.Env.Spawn("sweeper", func(p *sim.Proc) {
		if _, err := d.NS.ResolvePendingIntents(p); err != nil {
			t.Errorf("intent sweep: %v", err)
		}
	})
	d.Env.RunFor(5 * time.Second)
	if n := d.NS.PendingIntents(); n != 0 {
		t.Fatalf("%d intents still pending after sweep", n)
	}

	// Storage-level audit: each file exists exactly once across the two
	// shards, under exactly one of its two possible parents, and no
	// conflict-parked duplicate rows linger.
	rows := make(map[[2]string]int)
	for s := 0; s < 2; s++ {
		d.MetaClusters()[s].Table("inodes").ForEachCommitted(func(pk, key string, _ ndb.Value) {
			rows[[2]string{pk, key}]++
			if strings.Contains(key, "~dup") {
				t.Errorf("shard %d holds conflict-parked duplicate row %q", s, key)
			}
		})
	}
	for i := 0; i < files; i++ {
		srcKey, dstKey := inodeAddr(srcID, name(i)), inodeAddr(dstID, name(i))
		n := rows[srcKey] + rows[dstKey]
		if n != 1 {
			t.Errorf("file %s exists %d times (src=%d dst=%d), want exactly 1",
				name(i), n, rows[srcKey], rows[dstKey])
			continue
		}
		switch err := renameErrs[i]; {
		case err == nil && rows[dstKey] != 1:
			t.Errorf("rename of %s was acked but the row sits at the source", name(i))
		case err != nil && !indeterminate(err) && !errors.Is(err, namenode.ErrNotFound) && rows[srcKey] != 1:
			// ErrNotFound can be the retry of a rename whose namenode died
			// after applying it, as CheckHistory allows.
			t.Errorf("rename of %s failed definitively (%v) but the row moved", name(i), err)
		}
	}

	// History-level audit: final reads resolve every indeterminate rename,
	// and the checker must find no lost acked write or stale read.
	d.Env.Spawn("verifier", func(p *sim.Proc) {
		for i := 0; i < files; i++ {
			for _, path := range []string{"/race/src/" + name(i), "/race/dst/" + name(i)} {
				invoke := p.Now()
				_, err := cl.Stat(p, path)
				records = append(records, Record{Op: "stat", Path: path,
					Invoke: invoke, Return: p.Now(), Err: err})
			}
		}
	})
	d.Env.RunFor(5 * time.Second)
	res := CheckHistory(records)
	if len(res.Violations) != 0 {
		for _, v := range res.Violations {
			t.Errorf("history: %s", v)
		}
	}

	errored := 0
	for _, err := range renameErrs {
		if err != nil {
			errored++
		}
	}
	t.Logf("seed=%d victim=%d: %d/%d renames errored, pending=%d aborts=%d indet=%d resolved=%d",
		seed, victim, errored, files, pendingBeforeFix, crossAborts, crossIndet, resolvedInline)
	if errored > 0 || pendingBeforeFix > 0 || crossAborts > 0 || crossIndet > 0 || resolvedInline > 0 {
		return 1
	}
	return 0
}

// TestShardedChaosCampaign runs generated fault campaigns against a
// two-shard deployment: faults land on both clusters' datanodes, the
// workload's renames cross the shard boundary (each agent's second directory
// is pinned to the other shard), and every campaign must commit across
// shards and finish with zero invariant violations (including the
// pending-intent invariant the auditor checks after each quiesced sweep) and
// a clean operation history.
func TestShardedChaosCampaign(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	if testing.Short() {
		seeds = seeds[:1]
	}
	shardFaults := 0
	for _, seed := range seeds {
		seed := seed
		t.Run(fmtSeed(seed), func(t *testing.T) {
			var cross int64
			rep, err := runCampaign(seed, CampaignOptions{
				Faults:      4,
				CampaignLen: 25 * time.Second,
				Engine:      Config{Clients: 4},
				Shards:      2,
			}, func(d *core.Deployment) {
				cross = d.Registry.Counter("shard.txn.cross").Value()
			})
			if err != nil {
				t.Fatalf("campaign: %v", err)
			}
			if cross == 0 {
				t.Fatalf("no rename committed across both shards: the two-shard commit path was not exercised")
			}
			if rep.Check.OK == 0 {
				t.Fatalf("campaign had no successful operation:\n%s", rep.Render())
			}
			if !rep.Clean() {
				t.Fatalf("campaign not clean:\n%s", rep.Render())
			}
			for _, st := range rep.Schedule {
				if st.Shard != 0 {
					shardFaults++
				}
			}
		})
	}
	if !testing.Short() && shardFaults == 0 {
		t.Errorf("no generated fault targeted shard 1 across %d campaigns", len(seeds))
	}
}

// TestCheckpointDrainsAfterIntentSweep: a sharded checkpoint runs the intent
// sweep after the quiesce, and the sweep runs the clock, so background work
// can begin a transaction while it runs — a leader election's, or here a
// probe's, begun half a millisecond into the sweep and open for 20 ms. The
// checkpoint drains again before it audits, so that transaction is waited
// for, not reported as stuck.
func TestCheckpointDrainsAfterIntentSweep(t *testing.T) {
	setup, _ := core.SetupByName("HopsFS-CL (3,3)")
	o := core.DefaultOptions(setup)
	o.MetadataServers = 3
	o.ClientsPerServer = 0
	o.StorageNodes = 6
	o.PartitionsPerTable = 8
	o.Namespace = workload.NamespaceSpec{TopDirs: 1, SubDirs: 1, FilesPerDir: 1}
	o.Seed = 1
	o.Shards = 2
	d, err := core.Build(o)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	e, err := NewEngine(d, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	d.Env.RunFor(2 * time.Second)
	d.NS.StopBackground()
	if !e.quiesce() {
		t.Fatal("the idle deployment did not drain")
	}
	nn, db := d.NS.NameNodes()[0], d.MetaClusters()[0]
	start := d.Env.Now()
	var began, ended time.Duration
	d.Env.Spawn("probe", func(p *sim.Proc) {
		p.Sleep(500 * time.Microsecond)
		tx, err := db.Begin(p, nn.Node, nn.Domain, nil, "")
		if err != nil {
			t.Error(err)
			return
		}
		began = p.Now()
		p.Sleep(20 * time.Millisecond)
		if err := tx.Commit(); err != nil {
			t.Error(err)
		}
		tx.Free()
		ended = p.Now()
	})
	e.checkpoint("sweep")
	if began == 0 || began-start > 2*pollStep {
		t.Fatalf("the probe began at %v, %v after the checkpoint: not during the sweep", began, began-start)
	}
	if ended == 0 {
		t.Error("the checkpoint audited before the probe's transaction ended")
	}
	for _, v := range e.aud.Violations {
		t.Errorf("violation: %s", v)
	}
}
