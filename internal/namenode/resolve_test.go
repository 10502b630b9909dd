package namenode

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"hopsfscl/internal/ndb"
	"hopsfscl/internal/sim"
	"hopsfscl/internal/trace"
)

// --- hint cache unit tests ---

// get is lookup for tests: the id cached for path, bumped to most recently
// used.
func (hc *hintCache) get(path string) (uint64, bool) {
	if e := hc.lookup(path); e != nil {
		return e.id, true
	}
	return 0, false
}

func TestHintCacheLRU(t *testing.T) {
	hc := newHintCache(3)
	hc.put("/a", 1, RootID)
	hc.put("/b", 2, RootID)
	hc.put("/c", 3, RootID)
	// Touch /a so /b is the least recently used, then overflow.
	if id, ok := hc.get("/a"); !ok || id != 1 {
		t.Fatalf("get /a = (%d,%v)", id, ok)
	}
	hc.put("/d", 4, RootID)
	if hc.len() != 3 {
		t.Fatalf("len = %d, want 3 (bounded)", hc.len())
	}
	if _, ok := hc.get("/b"); ok {
		t.Error("/b should have been evicted as LRU")
	}
	for path, want := range map[string]uint64{"/a": 1, "/c": 3, "/d": 4} {
		if id, ok := hc.get(path); !ok || id != want {
			t.Errorf("get %s = (%d,%v), want (%d,true)", path, id, ok, want)
		}
	}
	// Updating an existing key must not grow the cache.
	hc.put("/a", 11, RootID)
	if id, _ := hc.get("/a"); id != 11 || hc.len() != 3 {
		t.Errorf("after update: /a=%d len=%d", id, hc.len())
	}
}

// TestHintCacheEvictionOrder pins the recency order the entries thread
// through themselves to that of the container/list LRU it replaced: over a
// fixed sequence of gets and puts on a small cache, the entries evicted, in
// order, are the ones that implementation evicted. An eviction order of its
// own would change which resolutions batch, and so the schedule.
func TestHintCacheEvictionOrder(t *testing.T) {
	hc := newHintCache(4)
	rng := rand.New(rand.NewSource(1))
	var evicted []string
	for step := 0; step < 200; step++ {
		path := fmt.Sprintf("/d%d", rng.Intn(9))
		if rng.Intn(2) == 0 {
			hc.lookup(path)
			continue
		}
		var before []string
		for k := range hc.items {
			before = append(before, k)
		}
		hc.put(path, uint64(step), RootID)
		for _, k := range before {
			if _, ok := hc.items[k]; !ok {
				evicted = append(evicted, k)
			}
		}
	}
	// Recorded on the container/list implementation.
	const want = "/d3 /d2 /d5 /d6 /d0 /d4 /d1 /d7 /d2 /d1 /d6 /d3 /d5 /d0 /d2 /d6 /d8 /d4 " +
		"/d5 /d1 /d7 /d3 /d6 /d1 /d2 /d8 /d6 /d3 /d2 /d8 /d1 /d2 /d5 /d7 /d4 /d0 /d6 /d2"
	if got := strings.Join(evicted, " "); got != want {
		t.Errorf("evicted\n  %s\nwant\n  %s", got, want)
	}
}

// TestPropHintEntryKeys: after any sequence of puts, refreshes (same id and
// parent, or not), drops and prefix invalidations, every entry holds the id
// and parent last put for its path, its cached keys are the ones they and
// its name imply, and the recency list threads exactly the cached entries.
func TestPropHintEntryKeys(t *testing.T) {
	paths := []string{"/a", "/a/b", "/a/b/c", "/ab", "/x", "/x/y", "/x/y/zz"}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		hc := newHintCache(5)
		last := map[string][2]uint64{} // path → the id and parent last put
		for step := 0; step < 300; step++ {
			path := paths[rng.Intn(len(paths))]
			switch r := rng.Intn(10); {
			case r < 6:
				// Few ids and parents, so refreshes often keep both.
				id, parent := uint64(1+rng.Intn(4)*1000), uint64(1+rng.Intn(3)*7)
				hc.put(path, id, parent)
				last[path] = [2]uint64{id, parent}
			case r < 8:
				hc.lookup(path)
			case r < 9:
				hc.drop(path)
			default:
				hc.invalidatePrefix(path)
			}
			checkHintEntries(t, hc, last)
			if t.Failed() {
				t.Fatalf("seed %d, step %d", seed, step)
			}
		}
	}
}

func checkHintEntries(t *testing.T, hc *hintCache, last map[string][2]uint64) {
	t.Helper()
	for path, e := range hc.items {
		name := path[strings.LastIndexByte(path, '/')+1:]
		if last[path] != [2]uint64{e.id, e.parent} {
			t.Errorf("entry %s holds id %d, parent %d; last put %v", path, e.id, e.parent, last[path])
		}
		// A child of "/" holds its own row's keys; below the root its row is
		// addressed by its parent's children partition and its name.
		pk, key := "", ""
		if e.parent == RootID {
			pk, key = partKeyOf(e.parent, name), inodeKey(e.parent, name)
		}
		if e.path != path || e.key != key || e.partKey != pk || e.children != partKey(e.id) {
			t.Errorf("entry %s (id %d, parent %d): keys %q %q %q", path, e.id, e.parent, e.key, e.partKey, e.children)
		}
	}
	n := 0
	for e := hc.lru.next; e != &hc.lru; e = e.next {
		if e.next.prev != e || hc.items[e.path] != e {
			t.Errorf("recency list broken at %s", e.path)
			return
		}
		n++
	}
	if n != len(hc.items) {
		t.Errorf("recency list threads %d entries, the cache holds %d", n, len(hc.items))
	}
}

func TestHintCacheInvalidatePrefix(t *testing.T) {
	hc := newHintCache(16)
	for path, id := range map[string]uint64{
		"/a": 1, "/a/b": 2, "/a/b/c": 3, "/ab": 4, "/z": 5,
	} {
		hc.put(path, id, RootID)
	}
	hc.invalidatePrefix("/a")
	for _, gone := range []string{"/a", "/a/b", "/a/b/c"} {
		if _, ok := hc.get(gone); ok {
			t.Errorf("%s should be invalidated", gone)
		}
	}
	// "/ab" shares the string prefix but is a different path: it stays.
	for path, want := range map[string]uint64{"/ab": 4, "/z": 5} {
		if id, ok := hc.get(path); !ok || id != want {
			t.Errorf("%s = (%d,%v), want (%d,true)", path, id, ok, want)
		}
	}
}

func TestHintCacheSizeGauge(t *testing.T) {
	reg := trace.NewRegistry()
	hc := newHintCache(8)
	hc.setGauge(reg.Gauge("namenode.resolve_cache.size", "nn", "nn-test"))
	hc.put("/a", 1, RootID)
	hc.put("/a/b", 2, RootID)
	g := reg.Gauge("namenode.resolve_cache.size", "nn", "nn-test")
	if g.Value() != 2 {
		t.Fatalf("gauge = %v, want 2", g.Value())
	}
	hc.invalidatePrefix("/a")
	if g.Value() != 0 {
		t.Fatalf("gauge after invalidate = %v, want 0", g.Value())
	}
}

// TestHintCacheBoundedInHarness drives a small bound through real
// operations: with every NN's cache cut to 4 entries, none ever holds more
// no matter how many directories are resolved.
func TestHintCacheBoundedInHarness(t *testing.T) {
	h := newHarness(t)
	for _, nn := range h.ns.nns {
		nn.cache.cap = 4
	}
	cl := h.client(1)
	h.run(t, func(p *sim.Proc) {
		for i := 0; i < 12; i++ {
			dir := fmt.Sprintf("/d%d/s", i)
			if err := cl.MkdirAll(p, dir); err != nil {
				t.Error(err)
				return
			}
			if _, err := cl.Stat(p, dir); err != nil {
				t.Error(err)
				return
			}
			if got := cl.CurrentNameNode().cache.len(); got > 4 {
				t.Errorf("cache grew to %d entries, bound is 4", got)
				return
			}
		}
	})
}

// --- invalidation regression tests ---

// TestRenameInvalidatesHintCache is the regression test for the stale-hint
// bug: renaming a directory must drop every hint under the old path on the
// serving NN, the new path must resolve correctly on the first try (no
// stale-cache fallback), and the old path must be gone.
func TestRenameInvalidatesHintCache(t *testing.T) {
	h := newHarness(t)
	reg := trace.NewRegistry()
	h.ns.SetTracer(trace.NewTracer(reg))
	cl := h.client(1)
	h.run(t, func(p *sim.Proc) {
		if err := cl.MkdirAll(p, "/proj/sub"); err != nil {
			t.Error(err)
			return
		}
		if err := cl.Create(p, "/proj/sub/f", 0); err != nil {
			t.Error(err)
			return
		}
		if _, err := cl.Stat(p, "/proj/sub/f"); err != nil {
			t.Error(err)
			return
		}
		nn := cl.CurrentNameNode()
		if _, ok := nn.cache.get("/proj/sub"); !ok {
			t.Error("hint for /proj/sub should be warm before the rename")
			return
		}
		if err := cl.Rename(p, "/proj/sub", "/moved"); err != nil {
			t.Error(err)
			return
		}
		for _, stale := range []string{"/proj/sub", "/proj/sub/f"} {
			if _, ok := nn.cache.get(stale); ok {
				t.Errorf("hint for %s survived the rename", stale)
			}
		}
		fallbacks := reg.Counter("namenode.resolve_cache", "result", "fallback").Value()
		ino, err := cl.Stat(p, "/moved/f")
		if err != nil || ino.Name != "f" {
			t.Errorf("stat new path: %+v, %v", ino, err)
		}
		if got := reg.Counter("namenode.resolve_cache", "result", "fallback").Value(); got != fallbacks {
			t.Errorf("resolving the new path needed %d stale-cache fallbacks, want 0", got-fallbacks)
		}
		if _, err := cl.Stat(p, "/proj/sub/f"); !errors.Is(err, ErrNotFound) {
			t.Errorf("old path still resolves: %v", err)
		}
	})
}

// TestDeleteInvalidatesHintCache: recursively deleting a directory drops
// the subtree's hints, and recreating the same paths resolves the new
// inodes.
func TestDeleteInvalidatesHintCache(t *testing.T) {
	h := newHarness(t)
	cl := h.client(1)
	h.run(t, func(p *sim.Proc) {
		if err := cl.MkdirAll(p, "/tmp/job/out"); err != nil {
			t.Error(err)
			return
		}
		if _, err := cl.Stat(p, "/tmp/job/out"); err != nil {
			t.Error(err)
			return
		}
		nn := cl.CurrentNameNode()
		oldID, ok := nn.cache.get("/tmp/job")
		if !ok {
			t.Error("hint for /tmp/job should be warm")
			return
		}
		if err := cl.Delete(p, "/tmp/job", true); err != nil {
			t.Error(err)
			return
		}
		for _, stale := range []string{"/tmp/job", "/tmp/job/out"} {
			if _, ok := nn.cache.get(stale); ok {
				t.Errorf("hint for %s survived the delete", stale)
			}
		}
		if err := cl.MkdirAll(p, "/tmp/job/out"); err != nil {
			t.Error(err)
			return
		}
		ino, err := cl.Stat(p, "/tmp/job/out")
		if err != nil || !ino.Dir {
			t.Errorf("stat recreated dir: %+v, %v", ino, err)
			return
		}
		if newID, ok := nn.cache.get("/tmp/job"); ok && newID == oldID {
			t.Error("recreated directory kept the deleted inode's hint id")
		}
	})
}

// --- batched vs serial equivalence property tests ---

// isNamespaceErr reports whether err is a final namespace answer (as
// opposed to a retriable transport/lock error the txn layer handles).
func isNamespaceErr(err error) bool {
	return errors.Is(err, ErrNotFound) || errors.Is(err, ErrNotDir)
}

// resolveBothWays resolves comps twice inside one transaction on nn —
// batched-first (the production resolveChain, primed by whatever the hint
// cache holds) then the reference serial walk — and returns both outcomes.
// lockLast is the lock both take on the path's last component (zero: none):
// in the batch, a locked get riding it; in the walk, its final step.
// Infrastructure errors (node down, lock timeout) propagate to runTxn so
// its abort/retry machinery stays in charge.
func resolveBothWays(t *testing.T, p *sim.Proc, nn *NameNode, comps fsPath, lockLast ndb.LockMode) (batched, serial []*Inode, berr, serr error) {
	// The chains are carved from the scratch: it is never returned to the
	// pool, which would clear them.
	sc := &opScratch{}
	txErr := nn.runTxn(p, nn.hintFor(comps), func(tx ndb.Tx) error {
		batched, berr = nn.resolveChain(tx, sc, comps, lockLast)
		if berr != nil && !isNamespaceErr(berr) {
			return berr
		}
		if berr == nil && lockLast != 0 && comps.depth() > 0 {
			// However far the hints reached, the last component is locked.
			table, pk, key := nn.ns.inodeRow(batched[len(batched)-2].ID, comps.name())
			if !slices.Contains(table.Cluster().HeldLocks(), table.Name()+"/"+pk+"/"+key) {
				t.Errorf("resolveChain(%s, lock %d) holds no lock on the last component", comps.raw, lockLast)
			}
		}
		serial, serr = nn.walkFrom(tx, sc, sc.newChain(&comps), comps, lockLast)
		if serr != nil && !isNamespaceErr(serr) {
			return serr
		}
		return nil
	})
	if txErr != nil {
		berr, serr = txErr, txErr
	}
	return batched, serial, berr, serr
}

// chainIDs renders a chain for comparison and error messages.
func chainIDs(chain []*Inode) string {
	var b strings.Builder
	for _, ino := range chain {
		fmt.Fprintf(&b, "%d/", ino.ID)
	}
	return b.String()
}

// TestPropBatchedSerialEquivalence checks, across seeds, that optimistic
// batched resolution returns exactly what the serial walk returns — same
// chains, same errors — over a randomized namespace whose hint caches have
// been made arbitrarily stale by renames/deletes/recreations issued through
// a different NN, plus deliberately poisoned entries.
func TestPropBatchedSerialEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runEquivalenceSeed(t, seed)
		})
	}
}

func runEquivalenceSeed(t *testing.T, seed int64) {
	h := newHarnessCfg(t, seed, nil)
	reg := trace.NewRegistry()
	h.ns.SetTracer(trace.NewTracer(reg))
	warmer := h.client(1)  // served by nn-1: its cache is the one under test
	mutator := h.client(2) // served by nn-2: nn-1 never sees these mutations
	rng := rand.New(rand.NewSource(seed))

	var paths []string
	h.run(t, func(p *sim.Proc) {
		// Random namespace, built and warmed through nn-1.
		depth := 2 + rng.Intn(4)
		for d := 0; d < 4; d++ {
			dir := fmt.Sprintf("/top%d", d)
			for lvl := 0; lvl < depth; lvl++ {
				dir = fmt.Sprintf("%s/d%d", dir, lvl)
			}
			if err := warmer.MkdirAll(p, dir); err != nil {
				t.Error(err)
				return
			}
			if err := warmer.Create(p, dir+"/leaf", 0); err != nil {
				t.Error(err)
				return
			}
			if _, err := warmer.Stat(p, dir+"/leaf"); err != nil {
				t.Error(err)
				return
			}
			paths = append(paths, dir+"/leaf", dir)
		}
		// Stale-making mutations through nn-2: renames, deletes,
		// recreations under the same names.
		for i := 0; i < 12; i++ {
			top := fmt.Sprintf("/top%d", rng.Intn(4))
			switch rng.Intn(3) {
			case 0:
				_ = mutator.Rename(p, top+"/d0", top+"/moved")
			case 1:
				_ = mutator.Delete(p, top+"/d0", true)
			case 2:
				_ = mutator.MkdirAll(p, top+"/d0/d1")
			}
		}
		// Deliberate poison: existing-path hints pointing at wrong inodes
		// force the verification fallback.
		nn1 := warmer.CurrentNameNode()
		nn1.cache.put("/top0", 999999, RootID)
		nn1.cache.put("/top1/d0", 424242, 999999)
		paths = append(paths, "/top0/d0/leaf", "/top1/d0/d1", "/nope/deep/path")

		fallbacksBefore := reg.Counter("namenode.resolve_cache", "result", "fallback").Value()
		for _, path := range paths {
			comps, err := splitPath(path)
			if err != nil {
				t.Fatalf("splitPath(%q): %v", path, err)
			}
			// Each resolution draws the lock its batch carries: none, shared
			// or exclusive on the last row. The second pass forgets the hint
			// of the path's parent first, so the batch stops one row short
			// and the walk's last step reads — and locks — the rest.
			for _, short := range []bool{false, true} {
				if short && comps.depth() > 1 {
					nn1.cache.drop(comps.prefix(comps.depth() - 1))
				}
				batched, serial, berr, serr := resolveBothWays(t, p, nn1, comps, ndb.LockMode(rng.Intn(3)))
				if !errors.Is(berr, serr) && !errors.Is(serr, berr) {
					t.Errorf("%s: batched err %v, serial err %v", path, berr, serr)
					continue
				}
				if berr == nil && chainIDs(batched) != chainIDs(serial) {
					t.Errorf("%s: batched chain %s, serial chain %s", path, chainIDs(batched), chainIDs(serial))
				}
			}
		}
		if got := reg.Counter("namenode.resolve_cache", "result", "fallback").Value(); got == fallbacksBefore {
			t.Error("poisoned hints never exercised the fallback path")
		}
	})
}

// TestPropResolutionSafeUnderConcurrentMutation runs resolutions on nn-1
// while a mutator renames/deletes/recreates the same subtrees through
// nn-2. Whatever interleaving happens, a resolution must either fail with
// a namespace error (ErrNotFound/ErrNotDir) or return a chain whose links
// are internally consistent — a stale cache may cost a retry, never a
// wrong answer.
func TestPropResolutionSafeUnderConcurrentMutation(t *testing.T) {
	for _, seed := range []int64{11, 12, 13, 14, 15} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runConcurrentSafetySeed(t, seed)
		})
	}
}

func runConcurrentSafetySeed(t *testing.T, seed int64) {
	h := newHarnessCfg(t, seed, nil)
	resolver := h.client(1)
	mutator := h.client(2)
	rng := rand.New(rand.NewSource(seed))

	// Seed the namespace and warm nn-1's cache.
	h.run(t, func(p *sim.Proc) {
		for d := 0; d < 3; d++ {
			dir := fmt.Sprintf("/w%d/a/b", d)
			if err := resolver.MkdirAll(p, dir); err != nil {
				t.Error(err)
				return
			}
			if err := resolver.Create(p, dir+"/f", 0); err != nil {
				t.Error(err)
				return
			}
			if _, err := resolver.Stat(p, dir+"/f"); err != nil {
				t.Error(err)
				return
			}
		}
	})
	if t.Failed() {
		return
	}

	mutDone := false
	h.env.Spawn("mutator", func(p *sim.Proc) {
		for i := 0; i < 40; i++ {
			d := fmt.Sprintf("/w%d", rng.Intn(3))
			switch rng.Intn(4) {
			case 0:
				_ = mutator.Rename(p, d+"/a", d+"/a2")
			case 1:
				_ = mutator.Rename(p, d+"/a2", d+"/a")
			case 2:
				_ = mutator.Delete(p, d+"/a", true)
			case 3:
				_ = mutator.MkdirAll(p, d+"/a/b")
			}
			p.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
		}
		mutDone = true
	})

	nn1 := resolver.CurrentNameNode()
	resDone := false
	h.env.Spawn("resolver", func(p *sim.Proc) {
		targets := []string{"/w0/a/b/f", "/w1/a/b/f", "/w2/a/b/f", "/w0/a/b", "/w1/a"}
		for i := 0; i < 60; i++ {
			path := targets[rng.Intn(len(targets))]
			comps, _ := splitPath(path)
			var chain []*Inode
			sc := &opScratch{}
			rerr := nn1.runTxn(p, nn1.hintFor(comps), func(tx ndb.Tx) error {
				c, err := nn1.resolveChain(tx, sc, comps, ndb.LockMode(rng.Intn(3)))
				if err != nil {
					return err
				}
				chain = c
				return nil
			})
			switch {
			case rerr == nil:
				if len(chain) != comps.depth()+1 || chain[0].ID != RootID {
					t.Errorf("%s: malformed chain %s", path, chainIDs(chain))
					return
				}
				for i := 0; i < comps.depth(); i++ {
					if chain[i+1].Parent != chain[i].ID || chain[i+1].Name != comps.comp(i) {
						t.Errorf("%s: broken link at %d: %+v under %+v", path, i, chain[i+1], chain[i])
						return
					}
				}
			case isNamespaceErr(rerr):
				// A concurrent delete/rename made the path vanish — the
				// serial walk could have seen exactly the same thing.
			case errors.Is(rerr, ErrRetriesExhausted) || errors.Is(rerr, ndb.ErrLockTimeout):
				// Lock contention with the mutator: acceptable, not a
				// correctness violation.
			default:
				t.Errorf("%s: unexpected resolution error %v", path, rerr)
				return
			}
			p.Sleep(time.Duration(rng.Intn(2)) * time.Millisecond)
		}
		resDone = true
	})
	h.env.RunFor(time.Minute)
	if !mutDone || !resDone {
		t.Fatalf("processes did not finish: mutator=%v resolver=%v", mutDone, resDone)
	}
}
