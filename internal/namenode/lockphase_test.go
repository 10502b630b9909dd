package namenode

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"hopsfscl/internal/blocks"
	"hopsfscl/internal/ndb"
	"hopsfscl/internal/sim"
	"hopsfscl/internal/trace"
)

// TestRoundTripBudget is the budget table of DESIGN §9.1 as a test: the
// sequential storage rounds each operation makes between Begin and Commit on
// a hint-warm depth-3 path, and the messages it exchanges from Begin to the
// Ack, one operation at a time on a quiesced deployment. The lock phase is
// one round — the lock rides the resolve — so a read is one round, and with
// DisableBatchedResolve the chain round becomes one round per component while
// the lock still costs none of its own. A write is its Prepare pass, so a
// mutation's messages are its reads' plus, per replica chain it writes, the
// 12 of Figure 2's three passes — no staging pair on top — and a recursive
// delete executes one write batch however deep the subtree (on the parent of
// this change: one per level plus the quota charge's, 10 rounds and 50
// messages for the two-level subtree below; every one-chain mutation row read
// 2 messages more, setquota's two chains 4).
func TestRoundTripBudget(t *testing.T) {
	type opFn func(nn *NameNode, p *sim.Proc) error
	budget := []struct {
		name            string
		run             opFn
		batched, serial int64
		msgs            int64 // Begin to Ack, batched resolve
	}{
		{"stat", func(nn *NameNode, p *sim.Proc) error { _, err := nn.Stat(p, "/a/b/f"); return err }, 1, 3, 4},
		{"read", func(nn *NameNode, p *sim.Proc) error { _, err := nn.GetBlockLocations(p, "/a/b/f"); return err }, 1, 3, 6},
		{"read (inline payload)", func(nn *NameNode, p *sim.Proc) error { _, err := nn.GetBlockLocations(p, "/a/b/small"); return err }, 2, 4, 8},
		{"list", func(nn *NameNode, p *sim.Proc) error { _, err := nn.List(p, "/a/b/d"); return err }, 2, 4, 4},
		{"setperm", func(nn *NameNode, p *sim.Proc) error { return nn.SetPermission(p, "/a/b/f", 0o600) }, 2, 4, 18},
		{"setowner", func(nn *NameNode, p *sim.Proc) error { return nn.SetOwner(p, "/a/b/f", "u") }, 2, 4, 18},
		{"attachblocks", func(nn *NameNode, p *sim.Proc) error {
			return nn.AttachBlocks(p, "/a/b/f", []blocks.BlockID{1}, 1)
		}, 2, 4, 18},
		{"setquota", func(nn *NameNode, p *sim.Proc) error { return nn.SetQuota(p, "/a/b/d", 10, 0) }, 2, 4, 30},
		{"mkdir", func(nn *NameNode, p *sim.Proc) error { return nn.Mkdir(p, "/a/b/m", 0o755) }, 3, 4, 18},
		{"create", func(nn *NameNode, p *sim.Proc) error { _, err := nn.Create(p, "/a/b/c", 0); return err }, 3, 4, 18},
		{"rename", func(nn *NameNode, p *sim.Proc) error { return nn.Rename(p, "/a/b/c", "/a/b/r") }, 5, 8, 22},
		{"delete", func(nn *NameNode, p *sim.Proc) error { _, err := nn.Delete(p, "/a/b/r", false); return err }, 3, 4, 18},
		// /a/b/d carries the quota set above: s, s/t and s/t/x die and are
		// charged back to it in the one write batch.
		{"delete -r", func(nn *NameNode, p *sim.Proc) error { _, err := nn.Delete(p, "/a/b/d/s", true); return err }, 7, 9, 46},
	}
	for _, serial := range []bool{false, true} {
		t.Run(fmt.Sprintf("DisableBatchedResolve=%v", serial), func(t *testing.T) {
			h := newHarnessCfg(t, 21, func(cfg *Config) { cfg.DisableBatchedResolve = serial })
			nn := h.ns.NameNodes()[0]
			h.run(t, func(p *sim.Proc) {
				for _, dir := range []string{"/a", "/a/b", "/a/b/d", "/a/b/d/s", "/a/b/d/s/t"} {
					if err := nn.Mkdir(p, dir, 0o755); err != nil {
						t.Error(err)
						return
					}
				}
				// In a fixed order: inode ids place the rows, and the rows'
				// primaries decide the message counts.
				for _, f := range []struct {
					path string
					size int64
				}{{"/a/b/f", 0}, {"/a/b/small", 10}, {"/a/b/d/s/t/x", 0}} {
					if _, err := nn.Create(p, f.path, f.size); err != nil {
						t.Error(err)
						return
					}
				}
				// Warm the hints of every directory on the paths below, then
				// let the election loops and the storage layer's housekeeping
				// stop: nothing but the operation under test talks to storage
				// or sends a message.
				if _, err := nn.Stat(p, "/a/b/d"); err != nil {
					t.Error(err)
					return
				}
				h.ns.StopBackground()
				h.db.StopBackground()
				h.mgr.Stop()
				p.Sleep(2 * h.ns.cfg.ElectionRound)
				quiet := h.net.TotalMessages()
				p.Sleep(2 * h.ns.cfg.ElectionRound)
				if n := h.net.TotalMessages() - quiet; n != 0 {
					t.Errorf("%d messages on the idle deployment: not quiesced", n)
				}
				for _, row := range budget {
					want := row.batched
					if serial {
						want = row.serial
					}
					before, msgs := h.db.Stats, h.net.TotalMessages()
					if err := row.run(nn, p); err != nil {
						t.Errorf("%s: %v", row.name, err)
						continue
					}
					if got := h.db.Stats.Rounds - before.Rounds; got != want {
						t.Errorf("%s: %d sequential storage rounds, budget %d", row.name, got, want)
					}
					if got := h.net.TotalMessages() - msgs; !serial && got != row.msgs {
						t.Errorf("%s: %d messages from Begin to Ack, budget %d", row.name, got, row.msgs)
					}
					if begun := h.db.Stats.Begun - before.Begun; begun != 1 {
						t.Errorf("%s: %d transactions begun, want 1 (not quiesced, or a retry)", row.name, begun)
					}
				}
			})
		})
	}
}

// TestLockedBatchOnStaleHints: a batch that takes its lock on stale hints
// locks a row of the path's previous life; verification rejects the chain,
// the serial re-walk locks the committed row in the same transaction, and
// everything is released when it ends. NN-a caches /a/b; NN-b renames it
// away and builds a new /a/b with the same names inside. NN-a's operations —
// one per lock-phase shape — must act on the committed inodes, leave the
// moved ones untouched, and leave no lock behind on any row of either life.
func TestLockedBatchOnStaleHints(t *testing.T) {
	h := newHarness(t)
	reg := trace.NewRegistry()
	h.ns.SetTracer(trace.NewTracer(reg))
	nnA, nnB := h.ns.NameNodes()[0], h.ns.NameNodes()[1]
	h.run(t, func(p *sim.Proc) {
		must := func(err error) bool {
			t.Helper()
			if err != nil {
				t.Error(err)
			}
			return err == nil
		}
		build := func(nn *NameNode) bool {
			for _, dir := range []string{"/a/b", "/a/b/d"} {
				if !must(nn.Mkdir(p, dir, 0o755)) {
					return false
				}
			}
			_, err := nn.Create(p, "/a/b/f", 0)
			return must(err)
		}
		if !must(nnA.Mkdir(p, "/a", 0o755)) || !build(nnA) {
			return
		}
		if _, err := nnA.Create(p, "/a/b/d/x-old", 0); !must(err) {
			return
		}
		if _, err := nnA.Stat(p, "/a/b/d/x-old"); !must(err) {
			return
		}
		stale := map[string]uint64{}
		for _, path := range []string{"/a/b", "/a/b/d"} {
			id, ok := nnA.cache.get(path)
			if !ok {
				t.Errorf("NN-a holds no hint for %s", path)
				return
			}
			stale[path] = id
		}
		if !must(nnB.Rename(p, "/a/b", "/a/old")) || !build(nnB) {
			return
		}
		if _, err := nnB.Create(p, "/a/b/d/x-new", 0); !must(err) {
			return
		}
		// Each operation's fallback refreshes the hints it used: make them
		// stale again before the next one, and require that it did fall back.
		fallbacks := reg.Counter("namenode.resolve_cache", "result", "fallback")
		var fellBack int64
		poison := func() {
			if fallbacks.Value() != fellBack {
				t.Errorf("%d fallbacks after %d stale operations", fallbacks.Value(), fellBack)
			}
			fellBack++
			for path, id := range stale {
				nnA.cache.put(path, id)
			}
		}
		poison()
		if !must(nnA.SetPermission(p, "/a/b/f", 0o600)) {
			return
		}
		poison()
		got, err := nnA.GetBlockLocations(p, "/a/b/f")
		if !must(err) {
			return
		}
		poison()
		listed, err := nnA.List(p, "/a/b/d")
		if !must(err) {
			return
		}
		poison()
		created, err := nnA.Create(p, "/a/b/d/g", 0)
		if !must(err) {
			return
		}
		if fallbacks.Value() != fellBack {
			t.Errorf("%d fallbacks after %d stale operations", fallbacks.Value(), fellBack)
		}

		// What NN-b, whose hints were never stale, sees.
		newF, err := nnB.Stat(p, "/a/b/f")
		if !must(err) {
			return
		}
		oldF, err := nnB.Stat(p, "/a/old/f")
		if !must(err) {
			return
		}
		newD, err := nnB.Stat(p, "/a/b/d")
		if !must(err) {
			return
		}
		if newF.Perm != 0o600 || oldF.Perm == 0o600 {
			t.Errorf("SetPermission: committed /a/b/f perm %o, moved /a/old/f perm %o", newF.Perm, oldF.Perm)
		}
		if got.ID != newF.ID {
			t.Errorf("GetBlockLocations returned inode %d, the committed /a/b/f is %d (moved one: %d)", got.ID, newF.ID, oldF.ID)
		}
		if len(listed) != 1 || listed[0].Name != "x-new" {
			t.Errorf("List(/a/b/d) = %v, want the committed directory's [x-new]", names(listed))
		}
		if created.Parent != newD.ID {
			t.Errorf("Create landed under inode %d, the committed /a/b/d is %d", created.Parent, newD.ID)
		}
		if _, err := nnB.Stat(p, "/a/old/d/g"); !errors.Is(err, ErrNotFound) {
			t.Errorf("the moved directory gained the created file: %v", err)
		}

		// Every row either life touched takes an exclusive lock at once: a
		// leaked one would park this transaction until the deadlock timeout
		// and fail it.
		if held := h.db.HeldLocks(); len(held) != 0 {
			t.Errorf("locks survive the operations: %v", held)
		}
		oldB, oldD := stale["/a/b"], stale["/a/b/d"]
		newB := newD.Parent
		aID, _ := nnA.cache.get("/a")
		rows := []struct {
			parent uint64
			name   string
		}{
			{RootID, "a"}, {aID, "b"}, {aID, "old"},
			{oldB, "f"}, {oldB, "d"}, {oldD, "g"}, {oldD, "x-old"},
			{newB, "f"}, {newB, "d"}, {newD.ID, "g"}, {newD.ID, "x-new"},
		}
		start := p.Now()
		tx, err := h.ns.router.Begin(p, nnA.Node, nnA.Domain, h.ns.inodes.For(partKey(aID)), partKey(aID))
		err = ndb.InTx(tx, err, func(tx ndb.Tx) error {
			for _, r := range rows {
				table, pk, key := h.ns.inodeRow(r.parent, r.name)
				if _, _, err := tx.ReadLocked(table, pk, key, ndb.LockExclusive); err != nil {
					return fmt.Errorf("%d/%s: %w", r.parent, r.name, err)
				}
			}
			return nil
		})
		if err != nil || p.Now()-start > 50*time.Millisecond {
			t.Errorf("locking every touched row took %v: %v", p.Now()-start, err)
		}
	})
}

func names(inos []*Inode) []string {
	out := make([]string, len(inos))
	for i, ino := range inos {
		out[i] = ino.Name
	}
	return out
}

// TestHintCacheHoldsDirectoriesOnly drives a Spotify-shaped mix — reads,
// stats and listings with a thin tail of file creates, deletes, renames and
// permission changes, plus mkdirs — through two namenodes and then requires
// every key of both hint caches to be the path of a directory. A file's id
// keys no row and is never a partition hint, so caching it buys nothing.
func TestHintCacheHoldsDirectoriesOnly(t *testing.T) {
	h := newHarness(t)
	clients := []*Client{h.client(1), h.client(2)}
	rng := rand.New(rand.NewSource(7))
	dirs := map[string]bool{}
	var dirList, files []string
	h.run(t, func(p *sim.Proc) {
		addDir := func(cl *Client, dir string) bool {
			if err := cl.MkdirAll(p, dir); err != nil {
				t.Error(err)
				return false
			}
			for fp, _ := splitPath(dir); fp.depth() > 0; fp = fp.parent() {
				dirs[fp.prefix(fp.depth())] = true
			}
			dirList = append(dirList, dir)
			return true
		}
		for i := 0; i < 4; i++ {
			for j := 0; j < 2; j++ {
				dir := fmt.Sprintf("/proj%d/ds%d", i, j)
				if !addDir(clients[0], dir) {
					return
				}
				for k := 0; k < 3; k++ {
					f := fmt.Sprintf("%s/part-%d", dir, k)
					if err := clients[0].Create(p, f, 0); err != nil {
						t.Error(err)
						return
					}
					files = append(files, f)
				}
			}
		}
		for i := 0; i < 600; i++ {
			cl := clients[rng.Intn(len(clients))]
			dir := dirList[rng.Intn(len(dirList))]
			fi := rng.Intn(len(files))
			file := files[fi]
			var err error
			switch r := rng.Float64(); {
			case r < 0.35:
				_, err = cl.Stat(p, file)
			case r < 0.68:
				_, err = cl.ReadFile(p, file)
			case r < 0.90:
				_, err = cl.List(p, dir)
			case r < 0.93:
				f := fmt.Sprintf("%s/new-%d", dir, i)
				if err = cl.Create(p, f, 0); err == nil {
					files = append(files, f)
				}
			case r < 0.95:
				if len(files) > 8 {
					err = cl.Delete(p, file, false)
					files = append(files[:fi], files[fi+1:]...)
				}
			case r < 0.96:
				if !addDir(cl, fmt.Sprintf("%s/sub-%d", dir, i)) {
					return
				}
			case r < 0.98:
				dst := fmt.Sprintf("%s/moved-%d", dir, i)
				if err = cl.Rename(p, file, dst); err == nil {
					files[fi] = dst
				}
			default:
				err = cl.SetPermission(p, file, 0o640)
			}
			if err != nil {
				t.Errorf("op %d: %v", i, err)
				return
			}
		}
	})
	for _, cl := range clients {
		nn := cl.CurrentNameNode()
		var bad []string
		for key := range nn.cache.items {
			if !dirs[key] {
				bad = append(bad, key)
			}
		}
		sort.Strings(bad)
		if len(bad) > 0 {
			t.Errorf("%s caches %d paths that are not directories, e.g. %v", nn.Node.Name(), len(bad), bad[:min(3, len(bad))])
		}
		if nn.cache.len() == 0 {
			t.Errorf("%s cached nothing: the mix never resolved a directory", nn.Node.Name())
		}
	}
}

// TestFileDropsStaleDirectoryHint: when another namenode replaces a cached
// directory with a file of the same name, resolving the path finds a file
// where the hint says a directory was. A file refreshes no hint, so the
// stale one is dropped rather than left to cost every later resolution under
// that name its fallback.
func TestFileDropsStaleDirectoryHint(t *testing.T) {
	h := newHarness(t)
	nnA, nnB := h.ns.NameNodes()[0], h.ns.NameNodes()[1]
	h.run(t, func(p *sim.Proc) {
		if err := nnA.Mkdir(p, "/a", 0o755); err != nil {
			t.Error(err)
			return
		}
		if err := nnA.Mkdir(p, "/a/b", 0o755); err != nil {
			t.Error(err)
			return
		}
		if _, err := nnA.Stat(p, "/a/b"); err != nil {
			t.Error(err)
			return
		}
		if _, ok := nnA.cache.get("/a/b"); !ok {
			t.Error("NN-a holds no hint for /a/b")
			return
		}
		if _, err := nnB.Delete(p, "/a/b", false); err != nil {
			t.Error(err)
			return
		}
		if _, err := nnB.Create(p, "/a/b", 0); err != nil {
			t.Error(err)
			return
		}
		if ino, err := nnA.Stat(p, "/a/b"); err != nil || ino.Dir {
			t.Errorf("stat of the file: %+v, %v", ino, err)
		}
		if id, ok := nnA.cache.get("/a/b"); ok {
			t.Errorf("the hint for /a/b survives as inode %d after a file was read there", id)
		}
	})
}
