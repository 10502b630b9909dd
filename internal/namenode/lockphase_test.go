package namenode

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
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
// delete writes its subtree in one batch however deep it is. A write finds out
// for itself at its chain's head: a create makes no round to learn its name
// is free, and a delete or an update makes none to lock and read its target
// — the head takes the lock and edits the committed row. So an update's
// resolve takes no lock and reads every row at a replica the coordinator's
// AZ holds (set* 16 messages, setquota 28 over its two chains); a delete's
// one round after its resolve is its Prepare, whose head sends the target's
// pre-image to the TC in one message of its own (17); and a recursive delete
// prepares its target's row before its subtree's batch, one Prepare pass
// more in the same rounds (50). Rename resolves its two paths in one batch.
// A refused write is cut short at the head — Begin, the resolve, the
// Prepare's first hop and the head's refusal: no replica beyond the head
// hears of it, and nothing retries. An update of a missing name never gets
// that far: its resolve reads the target and finds it absent.
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
		{"setperm", func(nn *NameNode, p *sim.Proc) error { return nn.SetPermission(p, "/a/b/f", 0o600) }, 2, 4, 16},
		{"setowner", func(nn *NameNode, p *sim.Proc) error { return nn.SetOwner(p, "/a/b/f", "u") }, 2, 4, 16},
		{"attachblocks", func(nn *NameNode, p *sim.Proc) error {
			return nn.AttachBlocks(p, "/a/b/f", []blocks.BlockID{1}, 1)
		}, 2, 4, 16},
		{"setquota", func(nn *NameNode, p *sim.Proc) error { return nn.SetQuota(p, "/a/b/d", 10, 0) }, 2, 4, 28},
		{"mkdir", func(nn *NameNode, p *sim.Proc) error { return nn.Mkdir(p, "/a/b/m", 0o755) }, 2, 3, 16},
		{"create", func(nn *NameNode, p *sim.Proc) error { _, err := nn.Create(p, "/a/b/c", 0); return err }, 2, 3, 16},
		{"create on an existing name", func(nn *NameNode, p *sim.Proc) error {
			if _, err := nn.Create(p, "/a/b/c", 0); !errors.Is(err, ErrExists) {
				return fmt.Errorf("got %v, want ErrExists", err)
			}
			return nil
		}, 2, 3, 5},
		{"rename", func(nn *NameNode, p *sim.Proc) error { return nn.Rename(p, "/a/b/c", "/a/b/r") }, 4, 8, 20},
		{"delete", func(nn *NameNode, p *sim.Proc) error { _, err := nn.Delete(p, "/a/b/r", false); return err }, 2, 3, 17},
		{"delete of a missing name", func(nn *NameNode, p *sim.Proc) error {
			if _, err := nn.Delete(p, "/a/b/r", false); !errors.Is(err, ErrNotFound) {
				return fmt.Errorf("got %v, want ErrNotFound", err)
			}
			return nil
		}, 2, 3, 5},
		{"setperm of a missing name", func(nn *NameNode, p *sim.Proc) error {
			if err := nn.SetPermission(p, "/a/b/r", 0o600); !errors.Is(err, ErrNotFound) {
				return fmt.Errorf("got %v, want ErrNotFound", err)
			}
			return nil
		}, 1, 3, 3},
		// /a/b/d carries the quota set above: s, s/t and s/t/x die and are
		// charged back to it in the one write batch.
		{"delete -r", func(nn *NameNode, p *sim.Proc) error { _, err := nn.Delete(p, "/a/b/d/s", true); return err }, 7, 9, 50},
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
		stale := map[string][2]uint64{} // path → id, parent
		for _, path := range []string{"/a/b", "/a/b/d"} {
			e := nnA.cache.lookup(path)
			if e == nil {
				t.Errorf("NN-a holds no hint for %s", path)
				return
			}
			stale[path] = [2]uint64{e.id, e.parent}
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
			for path, e := range stale {
				nnA.cache.put(path, e[0], e[1])
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

		if held := h.db.HeldLocks(); len(held) != 0 {
			t.Errorf("locks survive the operations: %v", held)
		}
		oldB, oldD := stale["/a/b"][0], stale["/a/b/d"][0]
		newB := newD.Parent
		aID, _ := nnA.cache.get("/a")
		var rows []ndb.BatchGet
		for _, r := range []struct {
			parent uint64
			name   string
		}{
			{RootID, "a"}, {aID, "b"}, {aID, "old"},
			{oldB, "f"}, {oldB, "d"}, {oldD, "g"}, {oldD, "x-old"},
			{newB, "f"}, {newB, "d"}, {newD.ID, "g"}, {newD.ID, "x-new"},
		} {
			table, pk, key := h.ns.inodeRow(r.parent, r.name)
			rows = append(rows, ndb.BatchGet{Table: table, PartKey: pk, Key: key})
		}
		requireUnlocked(t, h, p, nnA, rows)
	})
}

// requireUnlocked is the lock-leak walk: one transaction takes an exclusive
// lock on every given row — all those an operation under test touched — and
// must be granted each at once. A leaked lock would park it until the deadlock
// timeout and fail it.
func requireUnlocked(t *testing.T, h *harness, p *sim.Proc, nn *NameNode, rows []ndb.BatchGet) {
	t.Helper()
	start := p.Now()
	tx, err := h.ns.router.Begin(p, nn.Node, nn.Domain, rows[0].Table, rows[0].PartKey)
	err = ndb.InTx(tx, err, func(tx ndb.Tx) error {
		for _, r := range rows {
			r.Lock = ndb.LockExclusive
			if _, err := tx.ReadBatch([]ndb.BatchGet{r}); err != nil {
				return fmt.Errorf("%s %s/%s: %w", r.Table.Name(), r.PartKey, r.Key, err)
			}
		}
		return nil
	})
	if err != nil || p.Now()-start > 50*time.Millisecond {
		t.Errorf("locking every touched row took %v: %v", p.Now()-start, err)
	}
}

// TestRefusedCreateLeavesNothing: a create on a taken name is refused by its
// own insert, by which time the sibling chains of the same write batch — the
// inline payload row keyed by the inode id the attempt drew, the usage charge
// on the quota'd ancestor — are prepared, or about to be with write batching
// disabled. The abort must release all of it: no lock held, no row of the
// attempt committed, every touched row lockable at once, one transaction (no
// retry) — and the name still holds the first file.
func TestRefusedCreateLeavesNothing(t *testing.T) {
	for _, serial := range []bool{false, true} {
		h := newHarnessFull(t, 21, func(cfg *ndb.Config) { cfg.DisableBatchedWrites = serial }, nil)
		nnA, nnB := h.ns.NameNodes()[0], h.ns.NameNodes()[1]
		h.run(t, func(p *sim.Proc) {
			if err := nnA.Mkdir(p, "/q", 0o755); err != nil {
				t.Error(err)
				return
			}
			if err := nnA.SetQuota(p, "/q", 100, 0); err != nil {
				t.Error(err)
				return
			}
			first, err := nnA.Create(p, "/q/f", 10)
			if err != nil {
				t.Error(err)
				return
			}
			usage, err := nnA.Quota(p, "/q")
			if err != nil {
				t.Error(err)
				return
			}
			before, drew := h.db.Stats, h.ns.idSeq+1
			if _, err := nnB.Create(p, "/q/f", 10); !errors.Is(err, ErrExists) {
				t.Errorf("serial=%v: create on a taken name: %v, want ErrExists", serial, err)
			}
			if h.ns.idSeq != drew {
				t.Errorf("serial=%v: the refused attempt drew inode ids up to %d, want exactly %d", serial, h.ns.idSeq, drew)
			}
			if begun, aborted := h.db.Stats.Begun-before.Begun, h.db.Stats.Aborted-before.Aborted; begun != 1 || aborted != 1 {
				t.Errorf("serial=%v: %d transactions begun, %d aborted; want 1 and 1 (no retry)", serial, begun, aborted)
			}
			if held := h.db.HeldLocks(); len(held) != 0 {
				t.Errorf("serial=%v: locks survive the refusal: %v", serial, held)
			}
			if got, err := nnB.Stat(p, "/q/f"); err != nil || got.ID != first.ID {
				t.Errorf("serial=%v: /q/f is %+v, %v after the refusal; want inode %d", serial, got, err, first.ID)
			}
			if after, err := nnB.Quota(p, "/q"); err != nil || after != usage {
				t.Errorf("serial=%v: quota usage %+v, %v after the refusal; want %+v", serial, after, err, usage)
			}
			inode, ipk, ikey := h.ns.inodeRow(first.Parent, "f")
			payload, ppk := partOf(h.ns.smallfiles, drew)
			charge, cpk := partOf(h.ns.quotas, first.Parent)
			rows := []ndb.BatchGet{
				{Table: inode, PartKey: ipk, Key: ikey},
				{Table: payload, PartKey: ppk, Key: smallFileKey},
				{Table: charge, PartKey: cpk, Key: quotaUpdateKey("c", drew)},
			}
			requireUnlocked(t, h, p, nnB, rows)
			for _, r := range rows[1:] {
				r.Table.ForEachCommitted(func(pk, key string, _ ndb.Value) {
					if pk == r.PartKey && key == r.Key {
						t.Errorf("serial=%v: the refused attempt's row %s %s/%s is committed", serial, r.Table.Name(), pk, key)
					}
				})
			}
		})
	}
}

// TestRenameResolvesBothPathsInOneBatch: when the hints reach the last
// component of the source and of the destination's parent, Rename reads both
// chains in one lock-free batch; hints that fall short of either path leave
// the two resolves, and a path whose share of the batch proves stale is
// re-walked alone. The storage rounds of each shape are pinned, and the
// rename must act on the committed inodes whatever the hints said.
func TestRenameResolvesBothPathsInOneBatch(t *testing.T) {
	h := newHarness(t)
	reg := trace.NewRegistry()
	h.ns.SetTracer(trace.NewTracer(reg))
	nnA, nnB := h.ns.NameNodes()[0], h.ns.NameNodes()[1]
	h.run(t, func(p *sim.Proc) {
		for _, dir := range []string{"/a", "/a/b", "/x", "/x/y", "/u", "/u/v"} {
			if err := nnB.Mkdir(p, dir, 0o755); err != nil {
				t.Error(err)
				return
			}
		}
		for _, f := range []string{"/a/b/f", "/a/b/file", "/u/v/f"} {
			if _, err := nnB.Create(p, f, 0); err != nil {
				t.Error(err)
				return
			}
		}
		for _, dir := range []string{"/a/b", "/x/y"} {
			if _, err := nnA.Stat(p, dir); err != nil {
				t.Error(err)
				return
			}
		}
		h.ns.StopBackground()
		p.Sleep(2 * h.ns.cfg.ElectionRound)
		fallbacks := reg.Counter("namenode.resolve_cache", "result", "fallback")
		rename := func(src, dst string, want error, rounds int64) {
			t.Helper()
			before := h.db.Stats.Rounds
			if err := nnA.Rename(p, src, dst); !errors.Is(err, want) {
				t.Errorf("rename %s -> %s: %v, want %v", src, dst, err, want)
			}
			if got := h.db.Stats.Rounds - before; got != rounds {
				t.Errorf("rename %s -> %s: %d storage rounds, want %d", src, dst, got, rounds)
			}
		}
		// One batch, the two sorted locks, the write.
		rename("/a/b/f", "/x/y/f", nil, 4)
		// Errors are the batch's to give: a missing source, a destination
		// parent that is a file (its row is the parent chain's last).
		rename("/a/b/nope", "/x/y/g", ErrNotFound, 1)
		rename("/x/y/f", "/a/b/file/g", ErrNotDir, 1)
		rename("/x/y/f", "/a/b/file", ErrExists, 3)
		// "/" needs no row: the source's own batch is the only resolve round.
		rename("/x/y/f", "/top", nil, 4)
		// NN-a never saw /u: the source resolves in its batch, the
		// destination's parent by the two-step walk.
		rename("/top", "/u/v/g", nil, 6)
		// NN-b moves /u/v away and builds a new one: NN-a's hint for /u/v
		// is stale, the source's share of the batch fails to verify and is
		// re-walked (three rounds) while the destination's share stands.
		if err := nnB.Rename(p, "/u/v", "/u/w"); err != nil {
			t.Error(err)
			return
		}
		if err := nnB.Mkdir(p, "/u/v", 0o755); err != nil {
			t.Error(err)
			return
		}
		committed, err := nnB.Create(p, "/u/v/f", 0)
		if err != nil {
			t.Error(err)
			return
		}
		fell := fallbacks.Value()
		rename("/u/v/f", "/a/b/h", nil, 7)
		if fallbacks.Value() != fell+1 {
			t.Errorf("%d fallbacks on the stale source, want 1", fallbacks.Value()-fell)
		}
		if got, err := nnB.Stat(p, "/a/b/h"); err != nil || got.ID != committed.ID {
			t.Errorf("/a/b/h is %+v, %v; want the committed /u/v/f, inode %d", got, err, committed.ID)
		}
		for _, path := range []string{"/u/w/f", "/u/w/g"} {
			if _, err := nnB.Stat(p, path); err != nil {
				t.Errorf("the moved directory lost %s: %v", path, err)
			}
		}
		if held := h.db.HeldLocks(); len(held) != 0 {
			t.Errorf("locks survive the renames: %v", held)
		}
	})
}

// TestRenameStaleSourceMatchesSerial: the source's hints are stale — another
// NN moved its directory away and built a new one — while the destination's
// are warm, so Rename's one batch verifies the destination's share but
// re-walks the source, reading again before the destination's values are
// settled. The chains the resolve returns, the rename's outcome and where the
// committed file lands must be those of a run with batched resolution off.
func TestRenameStaleSourceMatchesSerial(t *testing.T) {
	run := func(serial bool) string {
		h := newHarnessCfg(t, 21, func(cfg *Config) { cfg.DisableBatchedResolve = serial })
		reg := trace.NewRegistry()
		h.ns.SetTracer(trace.NewTracer(reg))
		nnA, nnB := h.ns.NameNodes()[0], h.ns.NameNodes()[1]
		var out string
		h.run(t, func(p *sim.Proc) {
			must := func(err error) bool {
				t.Helper()
				if err != nil {
					t.Error(err)
				}
				return err == nil
			}
			for _, dir := range []string{"/s", "/s/t", "/d", "/d/e"} {
				if !must(nnB.Mkdir(p, dir, 0o755)) {
					return
				}
			}
			if _, err := nnB.Create(p, "/s/t/f", 0); !must(err) {
				return
			}
			for _, path := range []string{"/s/t/f", "/d/e"} {
				if _, err := nnA.Stat(p, path); !must(err) {
					return
				}
			}
			stale := nnA.cache.lookup("/s/t")
			if stale == nil {
				t.Error("NN-a holds no hint for /s/t")
				return
			}
			staleID, staleParent := stale.id, stale.parent
			if !must(nnB.Rename(p, "/s/t", "/s/old")) || !must(nnB.Mkdir(p, "/s/t", 0o755)) {
				return
			}
			committed, err := nnB.Create(p, "/s/t/f", 0)
			if !must(err) {
				return
			}
			src, _ := splitPath("/s/t/f")
			dst, _ := splitPath("/d/e/g")
			fallbacks := reg.Counter("namenode.resolve_cache", "result", "fallback")
			sc := &opScratch{}
			err = nnA.runTxn(p, nnA.hintFor(src), func(tx ndb.Tx) error {
				sChain, dChain, err := nnA.resolveBoth(tx, sc, src, dst.parent())
				out = fmt.Sprintf("source %s, destination %s, %v", chainIDs(sChain), chainIDs(dChain), err)
				return err
			})
			if !must(err) {
				return
			}
			if !serial && fallbacks.Value() != 1 {
				t.Errorf("%d fallbacks on the stale source, want 1", fallbacks.Value())
			}
			// The resolve refreshed the source's hint: make it stale again.
			nnA.cache.put("/s/t", staleID, staleParent)
			err = nnA.Rename(p, "/s/t/f", "/d/e/g")
			moved, serr := nnB.Stat(p, "/d/e/g")
			_, oerr := nnB.Stat(p, "/s/old/f")
			out += fmt.Sprintf("; rename %v; /d/e/g is the committed file: %v (%v); /s/old/f: %v",
				err, serr == nil && moved.ID == committed.ID, serr, oerr)
		})
		return out
	}
	batched, serial := run(false), run(true)
	if batched != serial {
		t.Errorf("stale source, batched:\n  %s\nserial:\n  %s", batched, serial)
	}
	if !strings.Contains(batched, "rename <nil>; /d/e/g is the committed file: true") {
		t.Errorf("rename on a stale source: %s", batched)
	}
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
