package cephfs

import (
	"errors"
	"testing"
	"time"

	"hopsfscl/internal/sim"
	"hopsfscl/internal/simnet"
)

func testCluster(t *testing.T, mode Mode, kernelCache bool, mdsCount int) (*sim.Env, *Cluster) {
	t.Helper()
	env := sim.New(31)
	t.Cleanup(env.Close)
	net := simnet.New(env, simnet.USWest1())
	cfg := DefaultConfig()
	cfg.Mode = mode
	cfg.KernelCache = kernelCache
	zones := make([]simnet.ZoneID, mdsCount)
	for i := range zones {
		zones[i] = simnet.ZoneID(i%3 + 1)
	}
	return env, New(env, net, cfg, zones, 700)
}

func run(t *testing.T, env *sim.Env, fn func(p *sim.Proc)) {
	t.Helper()
	done := false
	env.Spawn("test", func(p *sim.Proc) { fn(p); done = true })
	env.RunFor(time.Minute)
	if !done {
		t.Fatal("test process did not finish")
	}
}

func TestBasicNamespaceOps(t *testing.T) {
	env, c := testCluster(t, DirPinned, true, 3)
	cl := c.NewClient(1, 800)
	run(t, env, func(p *sim.Proc) {
		if err := cl.Mkdir(p, "/d"); err != nil {
			t.Error(err)
			return
		}
		if err := cl.Create(p, "/d/f", 0); err != nil {
			t.Error(err)
			return
		}
		if err := cl.Stat(p, "/d/f"); err != nil {
			t.Error(err)
		}
		if err := cl.List(p, "/d"); err != nil {
			t.Error(err)
		}
		if err := cl.Read(p, "/d/f"); err != nil {
			t.Error(err)
		}
		if err := cl.Read(p, "/d"); !errors.Is(err, ErrIsDir) {
			t.Errorf("read dir: %v", err)
		}
		if err := cl.Delete(p, "/d", false); !errors.Is(err, ErrNotEmpty) {
			t.Errorf("delete non-empty: %v", err)
		}
		if err := cl.Delete(p, "/d", true); err != nil {
			t.Error(err)
		}
		if err := cl.Stat(p, "/d"); !errors.Is(err, ErrNotFound) {
			t.Errorf("stat deleted: %v", err)
		}
	})
}

func TestKernelCacheHitsSkipMDS(t *testing.T) {
	env, c := testCluster(t, DirPinned, true, 3)
	cl := c.NewClient(1, 800)
	run(t, env, func(p *sim.Proc) {
		if err := cl.Create(p, "/f", 0); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 5; i++ {
			if err := cl.Stat(p, "/f"); err != nil {
				t.Error(err)
				return
			}
		}
	})
	if cl.CacheHits != 4 {
		t.Fatalf("cache hits = %d, want 4 (first stat misses)", cl.CacheHits)
	}
	var mdsReqs int64
	for _, m := range c.MDSs() {
		mdsReqs += m.Requests
	}
	if mdsReqs != 2 { // create + first stat
		t.Fatalf("MDS requests = %d, want 2", mdsReqs)
	}
}

func TestSkipKernelCacheSendsEverythingToMDS(t *testing.T) {
	env, c := testCluster(t, DirPinned, false, 3)
	cl := c.NewClient(1, 800)
	run(t, env, func(p *sim.Proc) {
		if err := cl.Create(p, "/f", 0); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 5; i++ {
			if err := cl.Stat(p, "/f"); err != nil {
				t.Error(err)
				return
			}
		}
	})
	if cl.CacheHits != 0 {
		t.Fatalf("cache hits = %d with cache disabled", cl.CacheHits)
	}
	var mdsReqs int64
	for _, m := range c.MDSs() {
		mdsReqs += m.Requests
	}
	if mdsReqs != 6 {
		t.Fatalf("MDS requests = %d, want 6", mdsReqs)
	}
}

func TestMutationRevokesOtherClientsCaps(t *testing.T) {
	env, c := testCluster(t, DirPinned, true, 3)
	a := c.NewClient(1, 800)
	b := c.NewClient(2, 801)
	run(t, env, func(p *sim.Proc) {
		if err := a.Create(p, "/f", 0); err != nil {
			t.Error(err)
			return
		}
		if err := b.Stat(p, "/f"); err != nil { // b caches /f
			t.Error(err)
			return
		}
		if err := a.SetPermission(p, "/f", 0o600); err != nil { // revokes b's cap
			t.Error(err)
			return
		}
		before := b.CacheHits
		if err := b.Stat(p, "/f"); err != nil {
			t.Error(err)
			return
		}
		if b.CacheHits != before {
			t.Error("stat after revoke served from stale cache")
		}
	})
}

func TestDirPinnedSpreadsSubtrees(t *testing.T) {
	env, c := testCluster(t, DirPinned, false, 6)
	cl := c.NewClient(1, 800)
	run(t, env, func(p *sim.Proc) {
		for i := 0; i < 12; i++ {
			if err := cl.Mkdir(p, "/dir"+string(rune('a'+i))); err != nil {
				t.Error(err)
				return
			}
		}
	})
	owners := map[int]bool{}
	for _, idx := range c.owners {
		owners[idx] = true
	}
	if len(owners) < 3 {
		t.Fatalf("12 pinned subtrees landed on %d MDSs, want spread", len(owners))
	}
}

func TestDynamicBalancerMigratesLoad(t *testing.T) {
	env, c := testCluster(t, Dynamic, false, 3)
	cl := c.NewClient(1, 800)
	run(t, env, func(p *sim.Proc) {
		for i := 0; i < 6; i++ {
			if err := cl.Mkdir(p, "/dir"+string(rune('a'+i))); err != nil {
				t.Error(err)
				return
			}
		}
		// Everything starts on MDS 0 under dynamic mode.
		for name, idx := range c.owners {
			if idx != 0 {
				t.Errorf("subtree %s initially on MDS %d", name, idx)
			}
		}
		// Generate load, then let the balancer run a few rounds.
		for round := 0; round < 4; round++ {
			for i := 0; i < 6; i++ {
				if err := cl.List(p, "/dir"+string(rune('a'+i))); err != nil {
					t.Error(err)
					return
				}
			}
			p.Sleep(balanceInterval)
		}
	})
	moved := 0
	for _, idx := range c.owners {
		if idx != 0 {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("dynamic balancer never migrated a subtree")
	}
}

func TestJournalFlushReachesOSDDisks(t *testing.T) {
	env, c := testCluster(t, DirPinned, true, 3)
	cl := c.NewClient(1, 800)
	run(t, env, func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			if err := cl.Create(p, "/f"+string(rune('0'+i)), 0); err != nil {
				t.Error(err)
				return
			}
		}
		p.Sleep(time.Second)
	})
	var disk int64
	for _, osd := range c.OSDs() {
		_, w := osd.Node.DiskBytes()
		disk += w
	}
	if disk < int64(10*journalEntryBytes) {
		t.Fatalf("OSD disk writes = %d, want >= %d (journal)", disk, 10*journalEntryBytes)
	}
}

func TestMDSFailoverReassignsSubtree(t *testing.T) {
	env, c := testCluster(t, DirPinned, true, 3)
	cl := c.NewClient(1, 800)
	run(t, env, func(p *sim.Proc) {
		if err := cl.Mkdir(p, "/d"); err != nil {
			t.Error(err)
			return
		}
	})
	owner := c.owner([]string{"d"})
	owner.Fail()
	run(t, env, func(p *sim.Proc) {
		if err := cl.Create(p, "/d/f", 0); err != nil {
			t.Errorf("create after MDS failure: %v", err)
		}
	})
}

func TestRenameCrossSubtree(t *testing.T) {
	env, c := testCluster(t, DirPinned, true, 6)
	cl := c.NewClient(1, 800)
	run(t, env, func(p *sim.Proc) {
		if err := cl.Mkdir(p, "/srcdir"); err != nil {
			t.Error(err)
			return
		}
		if err := cl.Mkdir(p, "/dstdir"); err != nil {
			t.Error(err)
			return
		}
		if err := cl.Create(p, "/srcdir/f", 0); err != nil {
			t.Error(err)
			return
		}
		if err := cl.Rename(p, "/srcdir/f", "/dstdir/g"); err != nil {
			t.Error(err)
			return
		}
		if err := cl.Stat(p, "/dstdir/g"); err != nil {
			t.Errorf("stat renamed: %v", err)
		}
		if err := cl.Stat(p, "/srcdir/f"); !errors.Is(err, ErrNotFound) {
			t.Errorf("stat old path: %v", err)
		}
	})
}

func TestSingleThreadedMDSSerializesRequests(t *testing.T) {
	env, c := testCluster(t, DirPinned, false, 1)
	var done [2]time.Duration
	for i := 0; i < 2; i++ {
		i := i
		cl := c.NewClient(1, simnet.HostID(800+i))
		env.Spawn("load", func(p *sim.Proc) {
			if err := cl.Create(p, "/f"+string(rune('0'+i)), 0); err != nil {
				t.Error(err)
			}
			done[i] = p.Now()
		})
	}
	env.RunFor(time.Minute)
	gap := done[1] - done[0]
	if gap < 0 {
		gap = -gap
	}
	if gap < costMDSOp/2 {
		t.Fatalf("two requests finished %v apart; MDS should serialize (op cost %v)", gap, costMDSOp)
	}
}

func TestSkipKCacheStillTracksCaps(t *testing.T) {
	env, c := testCluster(t, DirPinned, false, 3)
	a := c.NewClient(1, 800)
	b := c.NewClient(2, 801)
	run(t, env, func(p *sim.Proc) {
		if err := a.Create(p, "/f", 0); err != nil {
			t.Error(err)
			return
		}
		// Both clients read: the MDS tracks capabilities for each even
		// though neither caches (the paper's SkipKCache overhead).
		if err := a.Stat(p, "/f"); err != nil {
			t.Error(err)
			return
		}
		if err := b.Stat(p, "/f"); err != nil {
			t.Error(err)
		}
	})
	m := c.owner([]string{"f"})
	if got := len(m.caps["/f"]); got != 2 {
		t.Fatalf("MDS tracks %d cap holders, want 2 (even with cache skipped)", got)
	}
}

func TestAttrMutationKeepsListCaps(t *testing.T) {
	env, c := testCluster(t, DirPinned, true, 3)
	a := c.NewClient(1, 800)
	b := c.NewClient(2, 801)
	run(t, env, func(p *sim.Proc) {
		if err := a.Mkdir(p, "/d"); err != nil {
			t.Error(err)
			return
		}
		if err := a.Create(p, "/d/f", 0); err != nil {
			t.Error(err)
			return
		}
		if err := b.List(p, "/d"); err != nil { // b caches the listing
			t.Error(err)
			return
		}
		if err := b.Stat(p, "/d/f"); err != nil { // b caches the inode
			t.Error(err)
			return
		}
		// chmod: an attribute mutation. It must revoke the inode cap but
		// leave the directory-listing cap valid.
		if err := a.SetPermission(p, "/d/f", 0o600); err != nil {
			t.Error(err)
			return
		}
		hitsBefore := b.CacheHits
		if err := b.List(p, "/d"); err != nil {
			t.Error(err)
			return
		}
		if b.CacheHits != hitsBefore+1 {
			t.Error("listing cap was revoked by an attribute mutation")
		}
		if err := b.Stat(p, "/d/f"); err != nil {
			t.Error(err)
			return
		}
		if b.CacheHits != hitsBefore+1 {
			t.Error("inode cap survived the attribute mutation")
		}
	})
}

func TestNamespaceMutationRevokesListCaps(t *testing.T) {
	env, c := testCluster(t, DirPinned, true, 3)
	a := c.NewClient(1, 800)
	b := c.NewClient(2, 801)
	run(t, env, func(p *sim.Proc) {
		if err := a.Mkdir(p, "/d"); err != nil {
			t.Error(err)
			return
		}
		if err := b.List(p, "/d"); err != nil {
			t.Error(err)
			return
		}
		if err := a.Create(p, "/d/new", 0); err != nil { // changes the listing
			t.Error(err)
			return
		}
		hitsBefore := b.CacheHits
		if err := b.List(p, "/d"); err != nil {
			t.Error(err)
			return
		}
		if b.CacheHits != hitsBefore {
			t.Error("stale listing served from cache after a create")
		}
	})
}

// TestRevocationOrderRepeats has many clients hold a capability on one file,
// revokes them all with one mutation, and checks that the cap-revoke
// messages reach the holders in the same order in two runs: the order they
// are sent in decides link queueing and which latency draw each one gets. A
// revoke is traffic only, so its arrival shows in the holder's NIC bytes.
func TestRevocationOrderRepeats(t *testing.T) {
	const holders = 24
	arrivals := func() []int {
		env, c := testCluster(t, DirPinned, true, 3)
		cls := make([]*Client, holders)
		for i := range cls {
			cls[i] = c.NewClient(simnet.ZoneID(i%3+1), simnet.HostID(800+i))
		}
		mutator := c.NewClient(1, 900)
		var read []int64 // each holder's NIC read bytes before the revokes
		env.Spawn("test", func(p *sim.Proc) {
			if err := mutator.Create(p, "/f", 0); err != nil {
				t.Error(err)
				return
			}
			for _, cl := range cls {
				if err := cl.Stat(p, "/f"); err != nil {
					t.Error(err)
				}
			}
			for _, cl := range cls {
				r, _ := cl.Node.NICBytes()
				read = append(read, r)
			}
			if err := mutator.SetPermission(p, "/f", 0o600); err != nil {
				t.Error(err)
			}
		})
		var order []int
		env.RunUntil(func() bool {
			for i := range read {
				if r, _ := cls[i].Node.NICBytes(); r > read[i] {
					order = append(order, i)
					read[i] = r
				}
			}
			return len(order) == holders
		}, time.Microsecond, time.Minute)
		if len(order) != holders {
			t.Fatalf("%d of %d holders were sent a cap-revoke", len(order), holders)
		}
		return order
	}
	a, b := arrivals(), arrivals()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cap-revoke arrival order differs between two runs:\n%v\n%v", a, b)
		}
	}
}
