package namenode

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"hopsfscl/internal/blocks"
	"hopsfscl/internal/ndb"
	"hopsfscl/internal/shard"
	"hopsfscl/internal/sim"
	"hopsfscl/internal/simnet"
)

// harness is a full HopsFS-CL stack: 6 NDB datanodes (RF 3) over 3 zones,
// one NN per zone, 6 block datanodes, with AZ awareness on.
type harness struct {
	env *sim.Env
	net *simnet.Network
	db  *ndb.Cluster
	ns  *Namesystem
	mgr *blocks.Manager
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	return newHarnessCfg(t, 21, nil)
}

// newHarnessCfg builds the harness with a specific simulation seed and an
// optional namesystem-config hook.
func newHarnessCfg(t *testing.T, seed int64, tweak func(*Config)) *harness {
	t.Helper()
	return newHarnessFull(t, seed, nil, tweak)
}

// newHarnessFull additionally exposes the storage-layer config (e.g. to
// disable write batching for the serial-reference comparisons).
func newHarnessFull(t *testing.T, seed int64, dbTweak func(*ndb.Config), tweak func(*Config)) *harness {
	t.Helper()
	return newShardedHarness(t, seed, 1, dbTweak, tweak)
}

// newShardedHarness builds the harness over shards clusters of one shape,
// each on hosts of its own; db is shard 0's.
func newShardedHarness(t *testing.T, seed int64, shards int, dbTweak func(*ndb.Config), tweak func(*Config)) *harness {
	t.Helper()
	env := sim.New(seed)
	t.Cleanup(env.Close)
	net := simnet.New(env, simnet.USWest1())
	zones := []simnet.ZoneID{1, 2, 3}
	clusters := make([]*ndb.Cluster, shards)
	for i := range clusters {
		dbCfg := ndb.DefaultConfig()
		dbCfg.DataNodes = 6
		dbCfg.Replication = 3
		dbCfg.PartitionsPerTable = 12
		if i > 0 {
			dbCfg.NamePrefix = fmt.Sprintf("s%d-", i)
		}
		if dbTweak != nil {
			dbTweak(&dbCfg)
		}
		base := simnet.HostID(200 + 10*i)
		db, err := ndb.New(env, net, dbCfg, ndb.SpreadPlacement(6, zones, 100+1000*i),
			[]ndb.Placement{{Zone: 1, Host: base}, {Zone: 2, Host: base + 1}, {Zone: 3, Host: base + 2}})
		if err != nil {
			t.Fatal(err)
		}
		clusters[i] = db
	}
	bCfg := blocks.DefaultConfig()
	bCfg.BlockSize = 1 << 20
	var pls []blocks.Placement
	for i := 0; i < 6; i++ {
		pls = append(pls, blocks.Placement{Zone: simnet.ZoneID(i/2 + 1), Host: simnet.HostID(300 + i)})
	}
	mgr := blocks.NewManager(env, net, bCfg, pls)
	cfg := DefaultConfig()
	cfg.ElectionRound = 200 * time.Millisecond
	if tweak != nil {
		tweak(&cfg)
	}
	router, err := shard.NewRouter(clusters)
	if err != nil {
		t.Fatal(err)
	}
	ns := NewNamesystem(router, mgr, cfg)
	for z := simnet.ZoneID(1); z <= 3; z++ {
		ns.AddNameNode(z, simnet.HostID(400+int(z)), z)
	}
	return &harness{env: env, net: net, db: clusters[0], ns: ns, mgr: mgr}
}

func (h *harness) client(z simnet.ZoneID) *Client {
	return h.ns.NewClient(z, simnet.HostID(500+len(h.ns.nns)+int(z)), z)
}

// run executes fn as a client process and waits up to a virtual minute.
func (h *harness) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	done := false
	h.env.Spawn("test", func(p *sim.Proc) { fn(p); done = true })
	h.env.RunFor(time.Minute)
	if !done {
		t.Fatal("test process did not finish within a virtual minute")
	}
}

func TestMkdirCreateStatRoundtrip(t *testing.T) {
	h := newHarness(t)
	cl := h.client(1)
	h.run(t, func(p *sim.Proc) {
		if err := cl.Mkdir(p, "/data"); err != nil {
			t.Error(err)
			return
		}
		if err := cl.Create(p, "/data/f1", 0); err != nil {
			t.Error(err)
			return
		}
		ino, err := cl.Stat(p, "/data/f1")
		if err != nil {
			t.Error(err)
			return
		}
		if ino.Dir || ino.Name != "f1" {
			t.Errorf("stat returned %+v", ino)
		}
		dir, err := cl.Stat(p, "/data")
		if err != nil || !dir.Dir {
			t.Errorf("stat dir: %+v err %v", dir, err)
		}
		if _, err := cl.Stat(p, "/"); err != nil {
			t.Errorf("stat root: %v", err)
		}
	})
}

func TestMkdirAllCreatesAncestors(t *testing.T) {
	h := newHarness(t)
	cl := h.client(2)
	h.run(t, func(p *sim.Proc) {
		if err := cl.MkdirAll(p, "/a/b/c/d"); err != nil {
			t.Error(err)
			return
		}
		ino, err := cl.Stat(p, "/a/b/c/d")
		if err != nil || !ino.Dir {
			t.Errorf("stat after MkdirAll: %v %+v", err, ino)
		}
	})
}

func TestErrorCases(t *testing.T) {
	h := newHarness(t)
	cl := h.client(1)
	h.run(t, func(p *sim.Proc) {
		if err := cl.Create(p, "/missing/f", 0); !errors.Is(err, ErrNotFound) {
			t.Errorf("create in missing dir: %v", err)
		}
		if err := cl.Mkdir(p, "/d"); err != nil {
			t.Error(err)
			return
		}
		if err := cl.Mkdir(p, "/d"); !errors.Is(err, ErrExists) {
			t.Errorf("duplicate mkdir: %v", err)
		}
		if err := cl.Create(p, "/d", 0); !errors.Is(err, ErrExists) {
			t.Errorf("create over dir: %v", err)
		}
		if err := cl.Create(p, "/d/f", 0); err != nil {
			t.Error(err)
			return
		}
		if err := cl.Mkdir(p, "/d/f/sub"); !errors.Is(err, ErrNotDir) {
			t.Errorf("mkdir under file: %v", err)
		}
		if _, err := cl.Stat(p, "relative"); !errors.Is(err, ErrInvalidPath) {
			t.Errorf("relative path: %v", err)
		}
		if _, err := cl.ReadFile(p, "/d"); !errors.Is(err, ErrIsDir) {
			t.Errorf("read dir: %v", err)
		}
	})
}

func TestListReturnsSortedChildren(t *testing.T) {
	h := newHarness(t)
	cl := h.client(3)
	h.run(t, func(p *sim.Proc) {
		if err := cl.Mkdir(p, "/dir"); err != nil {
			t.Error(err)
			return
		}
		for _, name := range []string{"zeta", "alpha", "mid"} {
			if err := cl.Create(p, "/dir/"+name, 0); err != nil {
				t.Error(err)
				return
			}
		}
		kids, err := cl.List(p, "/dir")
		if err != nil {
			t.Error(err)
			return
		}
		if got, want := names(kids), []string{"alpha", "mid", "zeta"}; !slices.Equal(got, want) {
			t.Errorf("list returned %q, want %q", got, want)
		}
	})
}

// TestListingOutlivesChanges: List copies a listing into its client's
// storage before its transaction ends, so a listing a client holds — of a
// directory, and of the root — reads the same, entry for entry, after
// another client commits a create and a delete in that directory, until the
// holder's next List, which sees both.
func TestListingOutlivesChanges(t *testing.T) {
	h := newHarness(t)
	writer := h.client(1)
	holders := [2]*Client{h.client(2), h.client(3)}
	h.run(t, func(p *sim.Proc) {
		must := func(err error) bool {
			if err != nil {
				t.Error(err)
			}
			return err == nil
		}
		for _, dir := range []string{"/d", "/e"} {
			if !must(writer.Mkdir(p, dir)) {
				return
			}
		}
		for _, f := range []string{"/d/a", "/d/c"} {
			if !must(writer.Create(p, f, 0)) {
				return
			}
		}
		dirs := [2]string{"/d", "/"}
		var held [2]Listing
		var inodes [2][]*Inode
		for i, dir := range dirs {
			l, err := holders[i].List(p, dir)
			if !must(err) {
				return
			}
			held[i] = l
			for j := range l.Len() {
				inodes[i] = append(inodes[i], l.At(j))
			}
		}
		if !must(writer.Create(p, "/d/b", 0)) || !must(writer.Delete(p, "/d/a", false)) ||
			!must(writer.Mkdir(p, "/f")) || !must(writer.Delete(p, "/e", false)) {
			return
		}
		for i, want := range [2][]string{{"a", "c"}, {"d", "e"}} {
			if got := names(held[i]); !slices.Equal(got, want) {
				t.Errorf("a listing of %s held across another client's commits now reads %q, want %q", dirs[i], got, want)
				continue
			}
			for j, ino := range inodes[i] {
				if held[i].At(j) != ino {
					t.Errorf("entry %d of a listing of %s held across another client's commits is another inode now", j, dirs[i])
				}
			}
		}
		for i, want := range [2][]string{{"b", "c"}, {"d", "f"}} {
			l, err := holders[i].List(p, dirs[i])
			if must(err) && !slices.Equal(names(l), want) {
				t.Errorf("the holder's next listing of %s reads %q, want %q", dirs[i], names(l), want)
			}
		}
	})
}

func TestDeleteSemantics(t *testing.T) {
	h := newHarness(t)
	cl := h.client(1)
	h.run(t, func(p *sim.Proc) {
		if err := cl.MkdirAll(p, "/del/sub"); err != nil {
			t.Error(err)
			return
		}
		if err := cl.Create(p, "/del/sub/f", 0); err != nil {
			t.Error(err)
			return
		}
		if err := cl.Delete(p, "/del", false); !errors.Is(err, ErrNotEmpty) {
			t.Errorf("non-recursive delete of non-empty dir: %v", err)
		}
		if err := cl.Delete(p, "/del", true); err != nil {
			t.Errorf("recursive delete: %v", err)
			return
		}
		if _, err := cl.Stat(p, "/del/sub/f"); !errors.Is(err, ErrNotFound) {
			t.Errorf("stat after delete: %v", err)
		}
	})
}

func TestRenameFileAndDirectory(t *testing.T) {
	h := newHarness(t)
	cl := h.client(2)
	h.run(t, func(p *sim.Proc) {
		if err := cl.MkdirAll(p, "/a/d"); err != nil {
			t.Error(err)
			return
		}
		if err := cl.Mkdir(p, "/b"); err != nil {
			t.Error(err)
			return
		}
		if err := cl.Create(p, "/a/d/x", 0); err != nil {
			t.Error(err)
			return
		}
		// Directory rename: children remain reachable under the new path
		// without per-child updates (inode ids are stable).
		if err := cl.Rename(p, "/a/d", "/b/d"); err != nil {
			t.Error(err)
			return
		}
		if _, err := cl.Stat(p, "/b/d/x"); err != nil {
			t.Errorf("child after dir rename: %v", err)
		}
		if _, err := cl.Stat(p, "/a/d"); !errors.Is(err, ErrNotFound) {
			t.Errorf("old dir path: %v", err)
		}
		// File rename.
		if err := cl.Rename(p, "/b/d/x", "/b/y"); err != nil {
			t.Error(err)
			return
		}
		if _, err := cl.Stat(p, "/b/y"); err != nil {
			t.Errorf("renamed file: %v", err)
		}
	})
}

func TestRenameErrorCases(t *testing.T) {
	h := newHarness(t)
	cl := h.client(1)
	h.run(t, func(p *sim.Proc) {
		if err := cl.MkdirAll(p, "/r/inner"); err != nil {
			t.Error(err)
			return
		}
		if err := cl.Create(p, "/r/f", 0); err != nil {
			t.Error(err)
			return
		}
		if err := cl.Rename(p, "/r", "/r/inner/r2"); !errors.Is(err, ErrCycle) {
			t.Errorf("cycle rename: %v", err)
		}
		if err := cl.Rename(p, "/r/f", "/r/inner"); !errors.Is(err, ErrExists) {
			t.Errorf("rename onto existing: %v", err)
		}
		if err := cl.Rename(p, "/r/nope", "/r/x"); !errors.Is(err, ErrNotFound) {
			t.Errorf("rename missing src: %v", err)
		}
	})
}

func TestSetPermissionAndOwner(t *testing.T) {
	h := newHarness(t)
	cl := h.client(1)
	h.run(t, func(p *sim.Proc) {
		if err := cl.Create(p, "/f", 0); err != nil {
			t.Error(err)
			return
		}
		if err := cl.SetPermission(p, "/f", 0o600); err != nil {
			t.Error(err)
			return
		}
		if err := cl.SetOwner(p, "/f", "spotify"); err != nil {
			t.Error(err)
			return
		}
		ino, err := cl.Stat(p, "/f")
		if err != nil {
			t.Error(err)
			return
		}
		if ino.Perm != 0o600 || ino.Owner != "spotify" {
			t.Errorf("inode after updates: %+v", ino)
		}
	})
}

func TestLeaderElectionAndFailover(t *testing.T) {
	h := newHarness(t)
	h.env.RunFor(2 * time.Second)
	leader := h.ns.ElectedLeader()
	if leader == nil || leader.ID != 1 {
		t.Fatalf("leader = %+v, want NN 1", leader)
	}
	if !leader.IsLeader() {
		t.Fatal("NN 1 does not believe it is leader")
	}
	leader.Fail()
	h.env.RunFor(3 * time.Second)
	newLeader := h.ns.ElectedLeader()
	if newLeader == nil || newLeader.ID == 1 {
		t.Fatalf("no failover: leader = %+v", newLeader)
	}
	if newLeader.ID != 2 {
		t.Fatalf("leader = NN %d, want NN 2 (lowest surviving id)", newLeader.ID)
	}
}

func TestElectionReportsDomains(t *testing.T) {
	h := newHarness(t)
	h.env.RunFor(2 * time.Second)
	nn := h.ns.NameNodes()[0]
	active := nn.ActiveNameNodes()
	if len(active) != 3 {
		t.Fatalf("active list has %d entries, want 3", len(active))
	}
	for _, a := range active {
		if a.Domain != h.ns.nns[a.ID-1].Domain {
			t.Fatalf("active entry %+v does not carry the NN's domain", a)
		}
	}
}

func TestClientPrefersAZLocalNameNode(t *testing.T) {
	h := newHarness(t)
	h.env.RunFor(2 * time.Second) // let elections publish domains
	for z := simnet.ZoneID(1); z <= 3; z++ {
		cl := h.client(z)
		h.run(t, func(p *sim.Proc) {
			if err := cl.Mkdir(p, "/zone-"+string(rune('0'+z))); err != nil {
				t.Error(err)
				return
			}
		})
		if nn := cl.CurrentNameNode(); nn == nil || nn.Domain != z {
			t.Fatalf("zone %d client attached to NN domain %v", z, nn.Domain)
		}
	}
}

func TestClientFailsOverWhenNameNodeDies(t *testing.T) {
	h := newHarness(t)
	h.env.RunFor(2 * time.Second)
	cl := h.client(1)
	h.run(t, func(p *sim.Proc) {
		if err := cl.Mkdir(p, "/before"); err != nil {
			t.Error(err)
			return
		}
	})
	victim := cl.CurrentNameNode()
	victim.Fail()
	h.env.RunFor(2 * time.Second)
	h.run(t, func(p *sim.Proc) {
		if err := cl.Mkdir(p, "/after"); err != nil {
			t.Errorf("mkdir after NN failure: %v", err)
		}
	})
	if cl.CurrentNameNode() == victim {
		t.Fatal("client still attached to dead NN")
	}
}

func TestSmallFileStoredInline(t *testing.T) {
	h := newHarness(t)
	cl := h.client(1)
	h.run(t, func(p *sim.Proc) {
		if err := cl.WriteFile(p, "/small", 64<<10); err != nil {
			t.Error(err)
			return
		}
		ino, err := cl.ReadFile(p, "/small")
		if err != nil {
			t.Error(err)
			return
		}
		if ino.InlineSize != 64<<10 || len(ino.Blocks) != 0 {
			t.Errorf("small file not inline: %+v", ino)
		}
	})
}

func TestLargeFileUsesBlockLayer(t *testing.T) {
	h := newHarness(t)
	cl := h.client(2)
	h.run(t, func(p *sim.Proc) {
		size := int64(3 << 20) // 3 blocks of 1 MB
		if err := cl.WriteFile(p, "/big", size); err != nil {
			t.Error(err)
			return
		}
		ino, err := cl.ReadFile(p, "/big")
		if err != nil {
			t.Error(err)
			return
		}
		if len(ino.Blocks) != 3 {
			t.Errorf("blocks = %d, want 3", len(ino.Blocks))
			return
		}
		for _, id := range ino.Blocks {
			b, ok := h.mgr.Block(id)
			if !ok || len(b.Locations()) != 3 {
				t.Errorf("block %d replicas: %v", id, ok)
			}
		}
		// Delete reclaims the block replicas.
		if err := cl.Delete(p, "/big", false); err != nil {
			t.Error(err)
			return
		}
		for _, id := range ino.Blocks {
			if _, ok := h.mgr.Block(id); ok {
				t.Errorf("block %d survived delete", id)
			}
		}
	})
}

// TestCreateLosingCompleteArmAnswersNil: a create is committed once the
// primary of its row has applied it. A backup of that row that fails
// between the commit point and its Complete arm fails nothing, so the
// create answers nil — not the ErrExists a retry would find in the row it
// had applied. The creating client sits in a zone the primary is not in,
// so its TC is another replica and the Committed hop leaves the window.
func TestCreateLosingCompleteArmAnswersNil(t *testing.T) {
	h := newHarness(t)
	h.run(t, func(p *sim.Proc) {
		admin := h.client(1)
		if err := admin.Mkdir(p, "/d"); err != nil {
			t.Fatal(err)
		}
		d, err := admin.Stat(p, "/d")
		if err != nil {
			t.Fatal(err)
		}
		pk := partKey(d.ID)
		primary := h.ns.inodes.For(pk).PrimaryFor(pk)
		zone := primary.Node.Zone()%3 + 1
		var victim *ndb.DataNode
		for _, g := range h.db.NodeGroups() {
			for _, dn := range g {
				if slices.Contains(g, primary) && dn != primary && dn.Node.Zone() != zone {
					victim = dn
				}
			}
		}
		h.env.Spawn("fault", func(q *sim.Proc) {
			for applied := false; !applied; {
				q.Sleep(time.Microsecond)
				h.ns.inodes.ForEachCommitted(func(_, key string, _ ndb.Value) { applied = applied || key == "f" })
			}
			victim.Node.Fail()
		})
		if err := h.client(zone).Create(p, "/d/f", 0); err != nil {
			t.Errorf("create whose Complete arm was lost = %v, want nil", err)
		}
		if victim.Node.Alive() {
			t.Error("the backup did not fail during the create")
		}
	})
}

func TestConcurrentCreateOnlyOneWins(t *testing.T) {
	h := newHarness(t)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		i := i
		cl := h.client(simnet.ZoneID(i + 1))
		h.env.Spawn("racer", func(p *sim.Proc) {
			errs[i] = cl.Create(p, "/race", 0)
		})
	}
	h.env.RunFor(time.Minute)
	wins, exists := 0, 0
	for _, err := range errs {
		switch {
		case err == nil:
			wins++
		case errors.Is(err, ErrExists):
			exists++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if wins != 1 || exists != 1 {
		t.Fatalf("wins=%d exists=%d, want exactly one winner", wins, exists)
	}
}

func TestConcurrentMkdirsInSameDirProceedInParallel(t *testing.T) {
	h := newHarness(t)
	cl0 := h.client(1)
	h.run(t, func(p *sim.Proc) {
		if err := cl0.Mkdir(p, "/shared"); err != nil {
			t.Error(err)
		}
	})
	var oks int
	for i := 0; i < 8; i++ {
		i := i
		cl := h.client(simnet.ZoneID(i%3 + 1))
		h.env.Spawn("mk", func(p *sim.Proc) {
			if err := cl.Mkdir(p, "/shared/d"+string(rune('a'+i))); err == nil {
				oks++
			}
		})
	}
	h.env.RunFor(time.Minute)
	if oks != 8 {
		t.Fatalf("%d/8 sibling mkdirs succeeded", oks)
	}
}

func TestElectionExpiresStaleRows(t *testing.T) {
	h := newHarness(t)
	h.env.RunFor(2 * time.Second)
	victim := h.ns.NameNodes()[2]
	victim.Fail()
	// The row outlives the failure briefly (the lease), then expires.
	h.env.RunFor(h.ns.cfg.ElectionRound * 4)
	survivor := h.ns.NameNodes()[0]
	for _, a := range survivor.ActiveNameNodes() {
		if a.ID == victim.ID {
			t.Fatalf("dead NN %d still in the active list after expiry", victim.ID)
		}
	}
}

func TestNameNodeRecoverRejoinsElection(t *testing.T) {
	h := newHarness(t)
	h.env.RunFor(2 * time.Second)
	victim := h.ns.NameNodes()[0] // the leader
	victim.Fail()
	h.env.RunFor(h.ns.cfg.ElectionRound * 4)
	if got := h.ns.ElectedLeader(); got == nil || got.ID == victim.ID {
		t.Fatal("leadership did not move")
	}
	victim.Recover()
	h.env.RunFor(h.ns.cfg.ElectionRound * 4)
	// The recovered NN has the lowest id and reclaims leadership.
	if got := h.ns.ElectedLeader(); got == nil || got.ID != victim.ID {
		t.Fatalf("recovered NN did not reclaim leadership: %+v", got)
	}
	// And it serves requests again.
	cl := h.client(1)
	h.run(t, func(p *sim.Proc) {
		if err := cl.Mkdir(p, "/after-recover"); err != nil {
			t.Error(err)
		}
	})
}

func TestSeedRejectsOrphans(t *testing.T) {
	h := newHarness(t)
	if err := h.ns.Seed([]string{"/a/b"}, nil); err == nil {
		t.Fatal("seeding a child before its parent succeeded")
	}
	if err := h.ns.Seed([]string{"/a", "/a/b"}, []string{"/a/b/f"}); err != nil {
		t.Fatal(err)
	}
	cl := h.client(1)
	h.run(t, func(p *sim.Proc) {
		ino, err := cl.Stat(p, "/a/b/f")
		if err != nil || ino.Dir {
			t.Errorf("seeded file: %v %+v", err, ino)
		}
	})
}

// TestCrossingRenamesDoNotDeadlock runs opposing renames concurrently:
// their rows are disjoint — each one's destination is a fresh name, not the
// other's source — so both complete (one may see the moved state) without
// deadlock-timeout storms.
func TestCrossingRenamesDoNotDeadlock(t *testing.T) {
	h := newHarness(t)
	cl0 := h.client(1)
	h.run(t, func(p *sim.Proc) {
		if err := cl0.MkdirAll(p, "/a"); err != nil {
			t.Error(err)
			return
		}
		if err := cl0.MkdirAll(p, "/b"); err != nil {
			t.Error(err)
			return
		}
		if err := cl0.Create(p, "/a/x", 0); err != nil {
			t.Error(err)
			return
		}
		if err := cl0.Create(p, "/b/y", 0); err != nil {
			t.Error(err)
		}
	})
	done := 0
	for i := 0; i < 2; i++ {
		i := i
		cl := h.client(simnet.ZoneID(i + 1))
		h.env.Spawn("renamer", func(p *sim.Proc) {
			var err error
			if i == 0 {
				err = cl.Rename(p, "/a/x", "/b/moved-x")
			} else {
				err = cl.Rename(p, "/b/y", "/a/moved-y")
			}
			if err != nil && !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrExists) {
				t.Errorf("renamer %d: %v", i, err)
			}
			done++
		})
	}
	h.env.RunFor(30 * time.Second)
	if done != 2 {
		t.Fatalf("%d/2 renames completed (deadlock?)", done)
	}
	// Exactly the two files exist, under their new names.
	h.run(t, func(p *sim.Proc) {
		if _, err := cl0.Stat(p, "/b/moved-x"); err != nil {
			t.Errorf("moved-x: %v", err)
		}
		if _, err := cl0.Stat(p, "/a/moved-y"); err != nil {
			t.Errorf("moved-y: %v", err)
		}
	})
}

// TestToleratesNMinusOneNameNodeFailures pins §IV-B2: a cluster with N
// metadata servers keeps serving with a single survivor.
func TestToleratesNMinusOneNameNodeFailures(t *testing.T) {
	h := newHarness(t)
	h.env.RunFor(time.Second)
	nns := h.ns.NameNodes()
	for _, nn := range nns[:len(nns)-1] {
		nn.Fail()
	}
	h.env.RunFor(h.ns.cfg.ElectionRound * 4)
	survivor := nns[len(nns)-1]
	if got := h.ns.ElectedLeader(); got != survivor {
		t.Fatalf("leader = %v, want the sole survivor nn-%d", got, survivor.ID)
	}
	cl := h.client(1) // zone 1 client, NN in zone 3: cross-AZ fallback
	h.run(t, func(p *sim.Proc) {
		if err := cl.Mkdir(p, "/still-alive"); err != nil {
			t.Errorf("mkdir with one NN: %v", err)
		}
	})
	if cl.CurrentNameNode() != survivor {
		t.Fatal("client not attached to the survivor")
	}
}

// TestListRootScansAllPartitions covers the root-listing path: the root's
// children are deliberately scattered across partitions (partKeyOf), so
// listing "/" is a table-wide scan and must still see every child.
func TestListRootScansAllPartitions(t *testing.T) {
	h := newHarness(t)
	cl := h.client(1)
	h.run(t, func(p *sim.Proc) {
		dirs := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
		for _, n := range dirs {
			if err := cl.Mkdir(p, "/"+n); err != nil {
				t.Error(err)
				return
			}
		}
		if err := cl.Create(p, "/topfile", 0); err != nil {
			t.Error(err)
			return
		}
		kids, err := cl.List(p, "/")
		if err != nil {
			t.Error(err)
			return
		}
		got := names(kids)
		if len(got) != 6 {
			t.Errorf("root listing has %d entries, want 6: %q", len(got), got)
			return
		}
		if got[0] != "alpha" || got[5] != "topfile" {
			t.Errorf("root listing order: %v...%v", got[0], got[5])
		}
	})
}

// TestRenameCostIndependentOfSubtreeSize pins the §I claim that makes
// hierarchical file systems beat object stores: renaming a directory is a
// constant-size metadata transaction no matter how many children it has
// (inodes are keyed by parent id). We compare the wire footprint of
// renaming a 2-entry directory vs a 60-entry directory.
func TestRenameCostIndependentOfSubtreeSize(t *testing.T) {
	messagesFor := func(children int) int64 {
		h := newHarness(t)
		cl := h.client(1)
		var used int64
		h.run(t, func(p *sim.Proc) {
			if err := cl.Mkdir(p, "/src"); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < children; i++ {
				if err := cl.Create(p, fmt.Sprintf("/src/f%03d", i), 0); err != nil {
					t.Error(err)
					return
				}
			}
			h.db.StopBackground()
			p.Sleep(time.Second) // drain housekeeping
			p.Flush()
			before := h.net.TotalMessages()
			if err := cl.Rename(p, "/src", "/dst"); err != nil {
				t.Error(err)
				return
			}
			p.Flush()
			used = h.net.TotalMessages() - before
		})
		return used
	}
	small := messagesFor(2)
	big := messagesFor(60)
	if big != small {
		t.Fatalf("rename wire footprint grew with subtree size: %d vs %d messages", small, big)
	}
}

func TestDuAndExists(t *testing.T) {
	h := newHarness(t)
	cl := h.client(1)
	h.run(t, func(p *sim.Proc) {
		if err := cl.MkdirAll(p, "/proj/sub"); err != nil {
			t.Error(err)
			return
		}
		if err := cl.Create(p, "/proj/a", 100); err != nil {
			t.Error(err)
			return
		}
		if err := cl.Create(p, "/proj/sub/b", 250); err != nil {
			t.Error(err)
			return
		}
		files, dirs, size, err := cl.Du(p, "/proj")
		if err != nil {
			t.Error(err)
			return
		}
		if files != 2 || dirs != 2 || size != 350 {
			t.Errorf("du = (%d files, %d dirs, %d bytes), want (2, 2, 350)", files, dirs, size)
		}
		ok, err := cl.Exists(p, "/proj/a")
		if err != nil || !ok {
			t.Errorf("exists(/proj/a) = %v, %v", ok, err)
		}
		ok, err = cl.Exists(p, "/nope")
		if err != nil || ok {
			t.Errorf("exists(/nope) = %v, %v", ok, err)
		}
	})
}

func TestInlineReadChargesDataBytes(t *testing.T) {
	h := newHarness(t)
	cl := h.client(1)
	h.run(t, func(p *sim.Proc) {
		if err := cl.Create(p, "/small", 64<<10); err != nil {
			t.Error(err)
			return
		}
		r0, _ := cl.Node.NICBytes()
		if _, err := cl.ReadFile(p, "/small"); err != nil {
			t.Error(err)
			return
		}
		r1, _ := cl.Node.NICBytes()
		if r1-r0 < 64<<10 {
			t.Errorf("inline read moved %d bytes to the client, want >= 64KiB", r1-r0)
		}
	})
}
