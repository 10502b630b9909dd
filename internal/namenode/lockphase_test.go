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
// a hint-warm depth-3 path, the messages it exchanges from Begin to the Ack,
// and the RECV and SEND jobs its datanodes are charged, one operation at a
// time on a quiesced deployment. A stat, a read and a list take no lock, and
// a subtree lives in its top-level directory's partition (nextID), so the
// coordinator, hinted at the target's partition, holds a replica in its own
// AZ of every row they read: a read is one round of 2 messages, the request
// and the Ack. With DisableBatchedResolve the chain round becomes one round
// per component. A path through a directory renamed in from another
// top-level directory reads the rows above the rename at another datanode,
// a remote pair (4 messages). A mutation's lock rides its resolve and costs
// no round of its own. A write is its Prepare pass, so a mutation's messages
// are its reads' plus, per replica chain it writes, the 12 signals of Figure
// 2's three passes — no staging pair on top — and a recursive delete writes
// its subtree in one batch however deep it is. A signal between two blocks
// of one datanode is local: it crosses no wire and charges no job, so every
// message costs two jobs but the client's request and the Ack, one each.
// Here the coordinator holds a replica of the chain a write takes, and four
// of its 12 signals stay local. A write finds out for itself at its chain's
// head: a create makes no round to learn its name is free, and a delete or
// an update makes none to lock and read its target — the head takes the
// lock and edits the committed row. A single-name mutation whose hints reach
// its parent sends its write in the batch that reads the parent chain, so
// mkdir, create, delete and set* are one round. An update is 10 messages:
// the request, the Ack and its train's 8 wire signals. A create, a mkdir and
// a delete also share-lock the parent at its primary, another datanode, a
// remote pair (12; a delete's head also sends the TC the target's
// pre-image, 13); on a taken or a missing name the head's refusal ends that
// round (5). SetQuota resolves its target before it writes, both its rows in
// the one chain (10); a recursive delete prepares its target's row in that
// round, before its subtree's batch, one Prepare pass more in the same
// rounds (20). Rename resolves its two paths in one batch and writes its two
// rows in one Prepare pass, on the one chain: the source's delete, whose
// head checks the resolved inode is still the committed one and, unlike a
// delete's, sends nothing back, and the destination's insert; the
// destination's parent is read under its share lock at its primary in the
// same round (12).
// A refused write is cut short at the head — Begin, the resolve, the
// Prepare's first hop and the head's refusal: no replica beyond the head
// hears of it, nothing retries, and no Ack is sent. An update of a missing
// name pays that Prepare hop and the refusal, 2 messages more than a resolve
// that finds the name absent, and that only the serial path still does.
// The last column counts the shared locks the transaction's end drops at a
// primary other than its coordinator, with no message: the parent share
// lock of a create, a delete or a rename's destination, where the parent's
// primary is elsewhere.
func TestRoundTripBudget(t *testing.T) {
	type opFn func(nn *NameNode, p *sim.Proc) error
	budget := []struct {
		name            string
		run             opFn
		batched, serial int64
		msgs            int64 // Begin to Ack, batched resolve
		jobs            int64 // RECV + SEND jobs, Begin to Ack, batched resolve
		unpriced        int64 // shared locks dropped at a remote primary, batched resolve
	}{
		{"stat", func(nn *NameNode, p *sim.Proc) error { _, err := nn.Stat(p, "/a/b/f"); return err }, 1, 3, 2, 2, 0},
		{"read", func(nn *NameNode, p *sim.Proc) error { _, err := nn.GetBlockLocations(p, "/a/b/f"); return err }, 1, 3, 2, 2, 0},
		{"read (inline payload)", func(nn *NameNode, p *sim.Proc) error { _, err := nn.GetBlockLocations(p, "/a/b/small"); return err }, 2, 4, 2, 2, 0},
		{"list", func(nn *NameNode, p *sim.Proc) error { _, err := nn.List(p, "/a/b/d"); return err }, 2, 4, 2, 2, 0},
		// /a/b/y came from /x, whose partition is on the other node group:
		// the rows above it are read there.
		{"stat through a renamed directory", func(nn *NameNode, p *sim.Proc) error { _, err := nn.Stat(p, "/a/b/y/g"); return err }, 1, 4, 4, 6, 0},
		{"setperm", func(nn *NameNode, p *sim.Proc) error { return nn.SetPermission(p, "/a/b/f", 0o600) }, 1, 4, 10, 18, 0},
		{"setowner", func(nn *NameNode, p *sim.Proc) error { return nn.SetOwner(p, "/a/b/f", "u") }, 1, 4, 10, 18, 0},
		{"attachblocks", func(nn *NameNode, p *sim.Proc) error {
			return nn.AttachBlocks(p, "/a/b/f", 0, []blocks.BlockID{1}, 1)
		}, 1, 4, 10, 18, 0},
		{"setquota", func(nn *NameNode, p *sim.Proc) error { return nn.SetQuota(p, "/a/b/d", 10, 0) }, 2, 4, 10, 18, 0},
		{"mkdir", func(nn *NameNode, p *sim.Proc) error { _, err := nn.Mkdir(p, "/a/b/m", 0o755); return err }, 1, 3, 12, 22, 1},
		{"create", func(nn *NameNode, p *sim.Proc) error { _, err := nn.Create(p, "/a/b/c", 0); return err }, 1, 3, 12, 22, 1},
		{"create on an existing name", func(nn *NameNode, p *sim.Proc) error {
			if _, err := nn.Create(p, "/a/b/c", 0); !errors.Is(err, ErrExists) {
				return fmt.Errorf("got %v, want ErrExists", err)
			}
			return nil
		}, 1, 3, 5, 9, 1},
		{"rename", func(nn *NameNode, p *sim.Proc) error { return nn.Rename(p, "/a/b/c", "/a/b/r") }, 2, 6, 12, 22, 1},
		{"delete", func(nn *NameNode, p *sim.Proc) error { _, err := nn.Delete(p, "/a/b/r", false); return err }, 1, 3, 13, 24, 1},
		{"delete of a missing name", func(nn *NameNode, p *sim.Proc) error {
			if _, err := nn.Delete(p, "/a/b/r", false); !errors.Is(err, ErrNotFound) {
				return fmt.Errorf("got %v, want ErrNotFound", err)
			}
			return nil
		}, 1, 3, 5, 9, 1},
		{"setperm of a missing name", func(nn *NameNode, p *sim.Proc) error {
			if err := nn.SetPermission(p, "/a/b/r", 0o600); !errors.Is(err, ErrNotFound) {
				return fmt.Errorf("got %v, want ErrNotFound", err)
			}
			return nil
		}, 1, 3, 3, 5, 0},
		// /a/b/d carries the quota set above: s, s/t and s/t/x die and are
		// charged back to it in the one write batch.
		{"delete -r", func(nn *NameNode, p *sim.Proc) error { _, err := nn.Delete(p, "/a/b/d/s", true); return err }, 6, 9, 20, 38, 1},
		// The usage charge on /a/b/d follows the verified chain: a write of
		// its own after the resolve-and-insert round, its row joining the
		// insert's train — one Prepare pass more than a create's 12.
		{"create under a quota'd ancestor", func(nn *NameNode, p *sim.Proc) error { _, err := nn.Create(p, "/a/b/d/q", 0); return err }, 2, 4, 15, 28, 1},
	}
	for _, serial := range []bool{false, true} {
		t.Run(fmt.Sprintf("DisableBatchedResolve=%v", serial), func(t *testing.T) {
			h := newHarnessCfg(t, 21, func(cfg *Config) { cfg.DisableBatchedResolve = serial })
			nn := h.ns.NameNodes()[0]
			h.run(t, func(p *sim.Proc) {
				for _, dir := range []string{"/a", "/a/b", "/a/b/d", "/a/b/d/s", "/a/b/d/s/t"} {
					if _, err := nn.Mkdir(p, dir, 0o755); err != nil {
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
				// A directory renamed in from another top-level directory
				// keeps its id, so its children stay in /x's partition.
				for _, dir := range []string{"/x", "/x/y"} {
					if _, err := nn.Mkdir(p, dir, 0o755); err != nil {
						t.Error(err)
						return
					}
				}
				if _, err := nn.Create(p, "/x/y/g", 0); err != nil {
					t.Error(err)
					return
				}
				if err := nn.Rename(p, "/x/y", "/a/b/y"); err != nil {
					t.Error(err)
					return
				}
				if nn.ns.inodes.For("c:a").PrimaryFor("c:a").Group == nn.ns.inodes.For("c:x").PrimaryFor("c:x").Group {
					t.Error("/a and /x are on one node group")
					return
				}
				// Warm the hints of every directory on the paths below, then
				// let the election loops and the storage layer's housekeeping
				// stop: nothing but the operation under test talks to storage
				// or sends a message.
				for _, path := range []string{"/a/b/d", "/a/b/y/g"} {
					if _, err := nn.Stat(p, path); err != nil {
						t.Error(err)
						return
					}
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
					jobs := h.db.Stats.RecvJobs + h.db.Stats.SendJobs - before.RecvJobs - before.SendJobs
					if !serial && jobs != row.jobs {
						t.Errorf("%s: %d RECV+SEND jobs from Begin to Ack, budget %d", row.name, jobs, row.jobs)
					}
					if got := h.db.Stats.UnpricedReleases - before.UnpricedReleases; !serial && got != row.unpriced {
						t.Errorf("%s: %d shared locks dropped at a remote primary, budget %d", row.name, got, row.unpriced)
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
// the serial re-walk locks the committed row in the same transaction — or,
// for a mutation whose write rode the batch (a create, a delete, an update),
// the attempt is refused and retried — and everything is released when it
// ends. NN-a caches /a/b; NN-b renames it away and builds a new /a/b with the
// same names inside. NN-a's operations — one per lock-phase shape — must act
// on the committed inodes, leave the moved ones untouched, count one
// fallback each and, when their write rode the batch, one extra attempt, and
// leave no lock behind on any row of either life.
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
				if _, err := nn.Mkdir(p, dir, 0o755); !must(err) {
					return false
				}
			}
			for _, f := range []string{"/a/b/e", "/a/b/f"} {
				if _, err := nn.Create(p, f, 0); !must(err) {
					return false
				}
			}
			return true
		}
		if _, err := nnA.Mkdir(p, "/a", 0o755); !must(err) || !build(nnA) {
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
		// No election transaction may count as an operation's attempt.
		h.ns.StopBackground()
		p.Sleep(2 * h.ns.cfg.ElectionRound)
		// Each operation's fallback refreshes the hints it used: make them
		// stale again before the next one, and require that it did fall back.
		fallbacks := reg.Counter("namenode.resolve_cache", "result", "fallback")
		var fellBack int64
		// onStale runs op on the poisoned hints. A mutation's write rides its
		// resolve's batch, keyed by the stale parent: the attempt is refused
		// and retried once, without the hints it proved stale (attempts 2).
		// A read re-walks inside its one attempt.
		onStale := func(name string, attempts int64, op func() error) bool {
			t.Helper()
			for path, e := range stale {
				nnA.cache.put(path, e[0], e[1])
			}
			fellBack++
			begun := h.db.Stats.Begun
			if !must(op()) {
				return false
			}
			if fallbacks.Value() != fellBack {
				t.Errorf("%s: %d fallbacks after %d stale operations", name, fallbacks.Value(), fellBack)
			}
			if got := h.db.Stats.Begun - begun; got != attempts {
				t.Errorf("the stale %s took %d attempts, want %d", name, got, attempts)
			}
			return true
		}
		var got, created *Inode
		var listed Listing
		if !onStale("setPermission", 2, func() error { return nnA.SetPermission(p, "/a/b/f", 0o600) }) ||
			!onStale("read", 1, func() (err error) { got, err = nnA.GetBlockLocations(p, "/a/b/f"); return err }) ||
			!onStale("list", 1, func() (err error) { listed, err = nnA.List(p, "/a/b/d"); return err }) ||
			!onStale("create", 2, func() (err error) { created, err = nnA.Create(p, "/a/b/d/g", 0); return err }) ||
			!onStale("delete", 2, func() error { _, err := nnA.Delete(p, "/a/b/e", false); return err }) {
			return
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
		if _, err := nnB.Stat(p, "/a/b/e"); !errors.Is(err, ErrNotFound) {
			t.Errorf("Delete: the committed /a/b/e survives: %v", err)
		}
		if _, err := nnB.Stat(p, "/a/old/e"); err != nil {
			t.Errorf("Delete: the moved /a/old/e is gone: %v", err)
		}
		if got.ID != newF.ID {
			t.Errorf("GetBlockLocations returned inode %d, the committed /a/b/f is %d (moved one: %d)", got.ID, newF.ID, oldF.ID)
		}
		if got := names(listed); len(got) != 1 || got[0] != "x-new" {
			t.Errorf("List(/a/b/d) = %v, want the committed directory's [x-new]", got)
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
			{oldB, "e"}, {oldB, "f"}, {oldB, "d"}, {oldD, "g"}, {oldD, "x-old"},
			{newB, "e"}, {newB, "f"}, {newB, "d"}, {newD.ID, "g"}, {newD.ID, "x-new"},
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
			if _, err := nnA.Mkdir(p, "/q", 0o755); err != nil {
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
			// One draw for the attempt's row: the id it gives, and where it
			// leaves the sequence (a draw may skip ids of other partitions).
			inode, ipk, ikey := h.ns.inodeRow(first.Parent, "f")
			seq := h.ns.idSeq
			drew := h.ns.nextID(inode, ipk)
			oneDraw := h.ns.idSeq
			h.ns.idSeq = seq
			before := h.db.Stats
			if _, err := nnB.Create(p, "/q/f", 10); !errors.Is(err, ErrExists) {
				t.Errorf("serial=%v: create on a taken name: %v, want ErrExists", serial, err)
			}
			if h.ns.idSeq != oneDraw {
				t.Errorf("serial=%v: the refused attempt left the id sequence at %d, want %d (exactly one draw, id %d)", serial, h.ns.idSeq, oneDraw, drew)
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
			if _, err := nnB.Mkdir(p, dir, 0o755); err != nil {
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
		// One batch, then the write: both rows lock at their heads.
		rename("/a/b/f", "/x/y/f", nil, 2)
		// Errors are the batch's to give: a missing source, a destination
		// parent that is a file (its row is the parent chain's last). A taken
		// destination is the write's: its head refuses the insert.
		rename("/a/b/nope", "/x/y/g", ErrNotFound, 1)
		rename("/x/y/f", "/a/b/file/g", ErrNotDir, 1)
		rename("/x/y/f", "/a/b/file", ErrExists, 2)
		// "/" needs no row: the source's own batch is the only resolve round.
		rename("/x/y/f", "/top", nil, 2)
		// NN-a never saw /u: the source resolves in its batch, the
		// destination's parent by the two-step walk.
		rename("/top", "/u/v/g", nil, 4)
		// NN-b moves /u/v away and builds a new one: NN-a's hint for /u/v
		// is stale, the source's share of the batch fails to verify and is
		// re-walked (three rounds) while the destination's share stands.
		if err := nnB.Rename(p, "/u/v", "/u/w"); err != nil {
			t.Error(err)
			return
		}
		if _, err := nnB.Mkdir(p, "/u/v", 0o755); err != nil {
			t.Error(err)
			return
		}
		committed, err := nnB.Create(p, "/u/v/f", 0)
		if err != nil {
			t.Error(err)
			return
		}
		fell := fallbacks.Value()
		rename("/u/v/f", "/a/b/h", nil, 5)
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
				if _, err := nnB.Mkdir(p, dir, 0o755); !must(err) {
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
			if !must(nnB.Rename(p, "/s/t", "/s/old")) {
				return
			}
			if _, err := nnB.Mkdir(p, "/s/t", 0o755); !must(err) {
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
				sChain, dChain, err := nnA.resolveBoth(tx, sc, src, dst.parent(), 0)
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

// TestRenameLosingToUpdateRetriesAtOnce: a rename whose source a racing
// setPermission rewrote between the rename's resolve and its Prepare is
// refused at the source's head (errMoved) and retried. The update it lost to
// has committed, so there is nothing to back off from: the retry's attempt
// begins the instant the refused one ends. Round after round an update of a
// fresh file starts and its rename follows 150 µs later than in the round
// before, until some rename has resolved before the update committed and
// prepared after it.
func TestRenameLosingToUpdateRetriesAtOnce(t *testing.T) {
	h, sink := tracedHarness(t)
	mover, updater := h.client(1), h.client(2)
	retried := 0
	h.run(t, func(p *sim.Proc) {
		if err := mover.Mkdir(p, "/r"); err != nil {
			t.Error(err)
			return
		}
		for r := 0; r < 16 && retried == 0; r++ {
			f, g := fmt.Sprintf("/r/f%d", r), fmt.Sprintf("/r/g%d", r)
			if err := mover.Create(p, f, 0); err != nil {
				t.Error(err)
				return
			}
			var renameErr, permErr error
			done, parent := 0, p
			for i, fn := range []func(p *sim.Proc){
				func(p *sim.Proc) {
					p.Sleep(time.Duration(r) * 150 * time.Microsecond)
					renameErr = mover.Rename(p, f, g)
				},
				func(p *sim.Proc) { permErr = updater.SetPermission(p, f, 0o600) },
			} {
				h.env.Spawn(fmt.Sprintf("racer%d", i), func(p *sim.Proc) {
					fn(p)
					done++
					parent.Wake()
				})
			}
			p.Flush()
			for done < 2 {
				p.Wait()
			}
			if renameErr != nil {
				t.Errorf("rename %s: %v", f, renameErr)
				return
			}
			moved, err := mover.Stat(p, g)
			if err != nil {
				t.Errorf("stat %s: %v", g, err)
				return
			}
			if permErr == nil && moved.Perm != 0o600 {
				t.Errorf("%s has perm %o after an acked setPermission", g, moved.Perm)
			}
			// The round's rename is the last one the sink holds.
			spans := sink.Spans()
			for i := len(spans) - 1; i >= 0; i-- {
				if spans[i].Name != "rename" {
					continue
				}
				var prev *trace.Span
				for _, c := range spans[i].Children {
					if c.Name != "txn" {
						continue
					}
					if prev != nil {
						retried++
						if c.Start != prev.End {
							t.Errorf("rename %s: a retry began %v after the refused attempt ended, want at once", f, c.Start-prev.End)
						}
					}
					prev = c
				}
				break
			}
		}
	})
	if retried == 0 {
		t.Fatal("no rename lost to the racing update: the refusal was not exercised")
	}
}

// TestMergedCreateNeverQueuesForItsParent: a hint-warm create sends its
// parent's share lock and its insert in one batch, so it may hold its new
// row's lock before it asks for the parent's. If that ask queued, three
// transactions could wait in a ring until the lock timeout: a delete of
// /p/s/c holding /p/s shared and waiting for c, which the create holds; a
// setPermission of /p/s queued for it exclusively behind the delete; and the
// create, queued for /p/s behind the setPermission. The parent's lock is
// therefore taken only if it can be granted at once; otherwise the attempt is
// refused and retried parent first. The delete's namenode has lost its hint
// for /p/s, so the delete resolves its parent before it writes and holds
// /p/s through a round of its own. The three start at staggered instants
// around the ones that close the ring, and none may wait out the lock
// timeout; the create is refused or lands, and the delete and the update
// land.
func TestMergedCreateNeverQueuesForItsParent(t *testing.T) {
	raceRing(t, [][3]int{{13, 13, 13}, {13, 13, 14}, {14, 14, 15}, {14, 15, 15}, {15, 15, 15}},
		func(nns []*NameNode) [3]func(p *sim.Proc) error {
			nns[0].cache.drop("/p/s")
			return [3]func(p *sim.Proc) error{
				func(p *sim.Proc) error { _, err := nns[0].Delete(p, "/p/s/c", false); return err },
				func(p *sim.Proc) error { return nns[1].SetPermission(p, "/p/s", 0o700) },
				func(p *sim.Proc) error { _, err := nns[2].Create(p, "/p/s/c", 0); return err },
			}
		},
		func(errs [3]error) bool {
			return errs[0] == nil && errs[1] == nil && (errs[2] == nil || errors.Is(errs[2], ErrExists))
		})
}

// TestMergedDeleteNeverQueuesForItsParent: a hint-warm delete sends its
// parent's share lock and its target's delete in one batch, so it too may
// hold its target's lock before it asks for the parent's. If that ask queued,
// a ring of three would close through the FIFO lock queue: a setPermission
// of /p/s holds /p/s, a recursive delete of /p/s queues for it exclusively,
// and the delete of /p/s/c, holding c, queues for /p/s behind it; the
// recursive delete, once granted /p/s, waits for c. The start instants are
// ones at which the ring closes with the rule removed, and only with the
// setPermission among the racers. None may wait out the lock timeout; the
// recursive delete lands, and the delete of c and the update land or find
// their name gone.
func TestMergedDeleteNeverQueuesForItsParent(t *testing.T) {
	raceRing(t, [][3]int{{16, 8, 9}, {17, 8, 10}, {17, 9, 10}, {18, 9, 11}, {18, 10, 11}},
		func(nns []*NameNode) [3]func(p *sim.Proc) error {
			return [3]func(p *sim.Proc) error{
				func(p *sim.Proc) error { _, err := nns[0].Delete(p, "/p/s/c", false); return err },
				func(p *sim.Proc) error { return nns[1].SetPermission(p, "/p/s", 0o700) },
				func(p *sim.Proc) error { _, err := nns[2].Delete(p, "/p/s", true); return err },
			}
		},
		func(errs [3]error) bool {
			landed := func(err error) bool { return err == nil || errors.Is(err, ErrNotFound) }
			return landed(errs[0]) && landed(errs[1]) && errs[2] == nil
		})
}

// raceRing builds /p/s/c with every namenode's hints warm down to /p/s and,
// once per row of starts, runs the three racers, racer i starting starts[i]
// steps of 150 µs in on its own process. No racer may wait out the lock
// timeout, and the outcomes must satisfy ok.
func raceRing(t *testing.T, starts [][3]int, racers func(nns []*NameNode) [3]func(p *sim.Proc) error, ok func(errs [3]error) bool) {
	t.Helper()
	const step = 150 * time.Microsecond
	for _, at := range starts {
		h := newHarness(t)
		nns := h.ns.NameNodes()
		h.run(t, func(p *sim.Proc) {
			for _, dir := range []string{"/p", "/p/s"} {
				if _, err := nns[0].Mkdir(p, dir, 0o755); err != nil {
					t.Error(err)
					return
				}
			}
			if _, err := nns[0].Create(p, "/p/s/c", 0); err != nil {
				t.Error(err)
				return
			}
			for _, nn := range nns {
				if _, err := nn.Stat(p, "/p/s"); err != nil {
					t.Error(err)
					return
				}
			}
			var errs [3]error
			done, parent := 0, p
			for i, fn := range racers(nns) {
				h.env.Spawn("racer", func(p *sim.Proc) {
					p.Sleep(time.Duration(at[i]) * step)
					start := p.Now()
					errs[i] = fn(p)
					if took := p.Now() - start; took >= 100*time.Millisecond {
						t.Errorf("starts %v: racer %d took %v: it waited out the lock timeout", at, i, took)
					}
					done++
					parent.Wake()
				})
			}
			p.Flush()
			for done < len(errs) {
				p.Wait()
			}
			if !ok(errs) {
				t.Errorf("starts %v: outcomes %v", at, errs)
			}
		})
	}
}

func names(l Listing) []string {
	out := make([]string, l.Len())
	for i := range out {
		out[i] = l.At(i).Name
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
		if _, err := nnA.Mkdir(p, "/a", 0o755); err != nil {
			t.Error(err)
			return
		}
		if _, err := nnA.Mkdir(p, "/a/b", 0o755); err != nil {
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
