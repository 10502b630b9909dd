package namenode

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"hopsfscl/internal/ndb"
	"hopsfscl/internal/sim"
)

// --- batched vs serial write-path equivalence property tests ---

// fsOp is one step of a randomized namespace workload.
type fsOp struct {
	kind     string
	path, p2 string
	size     int64
	ns, ss   int64
}

// randomFSOps generates a deterministic op sequence over a small path
// universe: creates spanning the small-file threshold, recursive deletes,
// renames, and quota changes — every mutation shape that now stages through
// WriteBatch and commits in trains.
func randomFSOps(seed int64, n int) []fsOp {
	rng := rand.New(rand.NewSource(seed * 131))
	dir := func() string { return fmt.Sprintf("/t%d/s%d", rng.Intn(3), rng.Intn(3)) }
	ops := make([]fsOp, 0, n)
	for i := 0; i < n; i++ {
		switch rng.Intn(6) {
		case 0:
			ops = append(ops, fsOp{kind: "mkdir", path: dir()})
		case 1:
			// Sizes straddle the 128 KB inline threshold: some creates add a
			// smallfiles row to the batch, some do not.
			ops = append(ops, fsOp{kind: "create",
				path: dir() + fmt.Sprintf("/f%d", rng.Intn(4)),
				size: int64(rng.Intn(200 << 10))})
		case 2:
			ops = append(ops, fsOp{kind: "delete", path: dir()})
		case 3:
			ops = append(ops, fsOp{kind: "rename", path: dir(), p2: dir()})
		case 4:
			ops = append(ops, fsOp{kind: "setQuota", path: fmt.Sprintf("/t%d", rng.Intn(3)),
				ns: int64(rng.Intn(50)), ss: int64(rng.Intn(1 << 20))})
		case 5:
			ops = append(ops, fsOp{kind: "quota", path: fmt.Sprintf("/t%d", rng.Intn(3))})
		}
	}
	return ops
}

// applyFSOp runs one op, returning its outcome (the error's message, or "").
func applyFSOp(p *sim.Proc, cl *Client, op fsOp) string {
	var err error
	switch op.kind {
	case "mkdir":
		err = cl.MkdirAll(p, op.path)
	case "create":
		err = cl.Create(p, op.path, op.size)
	case "delete":
		err = cl.Delete(p, op.path, true)
	case "rename":
		err = cl.Rename(p, op.path, op.p2)
	case "setQuota":
		err = cl.SetQuota(p, op.path, op.ns, op.ss)
	case "quota":
		_, err = cl.Quota(p, op.path)
	}
	if err != nil {
		return err.Error()
	}
	return ""
}

// dumpNamesystem renders the full committed metadata state — inodes,
// inline small-file payloads, quota records and updates — for comparison.
// Mtime is deliberately excluded: it records virtual time, and the batched
// path finishing operations earlier than the serial one is exactly the
// point, not a divergence.
func dumpNamesystem(ns *Namesystem) map[string]string {
	out := make(map[string]string)
	ns.inodes.ForEachCommitted(func(pk, key string, val ndb.Value) {
		ino, ok := val.(*Inode)
		if !ok {
			out["inodes|"+pk+"|"+key] = "corrupt"
			return
		}
		out["inodes|"+pk+"|"+key] = fmt.Sprintf("id=%d parent=%d name=%s dir=%v size=%d perm=%o owner=%s inline=%d qns=%d qss=%d blocks=%v",
			ino.ID, ino.Parent, ino.Name, ino.Dir, ino.Size, ino.Perm, ino.Owner,
			ino.InlineSize, ino.QuotaNS, ino.QuotaSS, ino.Blocks)
	})
	ns.smallfiles.ForEachCommitted(func(pk, key string, val ndb.Value) {
		out["smallfiles|"+pk+"|"+key] = fmt.Sprint(val)
	})
	ns.quotas.ForEachCommitted(func(pk, key string, val ndb.Value) {
		out["quotas|"+pk+"|"+key] = fmt.Sprintf("%+v", val)
	})
	return out
}

// TestPropWriteBatchedSerialEquivalence drives the same randomized op
// sequence through a batched and a serial (DisableBatchedWrites) stack for
// each seed and requires identical outcomes: every operation returns the
// same result and the final committed state of all three metadata tables is
// identical. Coalescing rows into staging batches and commit trains must be
// invisible to the namespace.
func TestPropWriteBatchedSerialEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ops := randomFSOps(seed, 60)
			run := func(serial bool) (map[string]string, []string) {
				h := newHarnessFull(t, seed,
					func(cfg *ndb.Config) { cfg.DisableBatchedWrites = serial }, nil)
				cl := h.client(1)
				outcomes := make([]string, len(ops))
				h.run(t, func(p *sim.Proc) {
					for i, op := range ops {
						outcomes[i] = applyFSOp(p, cl, op)
					}
				})
				return dumpNamesystem(h.ns), outcomes
			}
			batchedState, batchedOut := run(false)
			serialState, serialOut := run(true)
			for i := range ops {
				if batchedOut[i] != serialOut[i] {
					t.Errorf("op %d %s %s: batched %q vs serial %q",
						i, ops[i].kind, ops[i].path, batchedOut[i], serialOut[i])
				}
			}
			if len(batchedState) != len(serialState) {
				t.Errorf("%d rows batched vs %d serial", len(batchedState), len(serialState))
			}
			for k, v := range serialState {
				if batchedState[k] != v {
					t.Errorf("row %s:\n  batched %q\n  serial  %q", k, batchedState[k], v)
				}
			}
			for k := range batchedState {
				if _, ok := serialState[k]; !ok {
					t.Errorf("row %s exists only in the batched state", k)
				}
			}
		})
	}
}

// TestPropWritesSafeUnderConcurrentMutation runs two writers on different
// NNs mutating the same subtrees — creates, recursive deletes, renames,
// quota changes — and then audits cross-table invariants that only hold if
// commit trains preserved multi-row atomicity: every inode row sits under
// its keyed parent/name, and the smallfiles table holds exactly one payload
// row per living inline file. Run under -race this also proves the batch
// fan-out and train spawning stay data-race free across NNs.
func TestPropWritesSafeUnderConcurrentMutation(t *testing.T) {
	for _, seed := range []int64{11, 12, 13, 14, 15} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			h := newHarnessCfg(t, seed, nil)
			a, b := h.client(1), h.client(2)
			rngA := rand.New(rand.NewSource(seed))
			rngB := rand.New(rand.NewSource(seed + 1000))

			writer := func(cl *Client, rng *rand.Rand, done *bool) func(p *sim.Proc) {
				return func(p *sim.Proc) {
					for i := 0; i < 40; i++ {
						d := fmt.Sprintf("/w%d", rng.Intn(3))
						switch rng.Intn(5) {
						case 0:
							_ = cl.MkdirAll(p, d+"/a/b")
						case 1:
							_ = cl.Create(p, d+fmt.Sprintf("/a/f%d", rng.Intn(3)), int64(rng.Intn(8<<10)))
						case 2:
							_ = cl.Delete(p, d+"/a", true)
						case 3:
							_ = cl.Rename(p, d+"/a", d+"/a2")
						case 4:
							_ = cl.SetQuota(p, d, int64(rng.Intn(100)), 0)
						}
						p.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
					}
					*done = true
				}
			}
			var doneA, doneB bool
			h.run(t, func(p *sim.Proc) {
				for i := 0; i < 3; i++ {
					if err := a.MkdirAll(p, fmt.Sprintf("/w%d/a", i)); err != nil {
						t.Error(err)
						return
					}
				}
			})
			if t.Failed() {
				return
			}
			h.env.Spawn("writer-a", writer(a, rngA, &doneA))
			h.env.Spawn("writer-b", writer(b, rngB, &doneB))
			h.env.RunFor(time.Minute)
			if !doneA || !doneB {
				t.Fatalf("writers did not finish: a=%v b=%v", doneA, doneB)
			}

			// Invariant 1: every inode row is keyed by its own parent/name.
			inline := make(map[string]int64)
			h.ns.inodes.ForEachCommitted(func(pk, key string, val ndb.Value) {
				ino, ok := val.(*Inode)
				if !ok {
					t.Errorf("non-inode value at %s|%s", pk, key)
					return
				}
				if key != inodeKey(ino.Parent, ino.Name) || pk != partKeyOf(ino.Parent, ino.Name) {
					t.Errorf("inode %d stored at (%s,%s), want (%s,%s)",
						ino.ID, pk, key, partKeyOf(ino.Parent, ino.Name), inodeKey(ino.Parent, ino.Name))
				}
				if !ino.Dir && ino.InlineSize > 0 {
					inline[partKey(ino.ID)] = ino.InlineSize
				}
			})
			// Invariant 2: the smallfiles table matches the living inline
			// files exactly — no orphaned payloads after deletes, no files
			// whose payload went missing mid-rename.
			seen := make(map[string]bool)
			h.ns.smallfiles.ForEachCommitted(func(pk, key string, val ndb.Value) {
				want, ok := inline[pk]
				if !ok {
					t.Errorf("orphan smallfiles row in partition %s", pk)
					return
				}
				if got, _ := val.(int64); got != want {
					t.Errorf("smallfiles row %s = %v, inode says %d", pk, val, want)
				}
				seen[pk] = true
			})
			for pk := range inline {
				if !seen[pk] {
					t.Errorf("inline file in partition %s lost its payload row", pk)
				}
			}
		})
	}
}

// --- quota behavior ---

func TestQuotaSetAndUsage(t *testing.T) {
	h := newHarness(t)
	cl := h.client(1)
	h.run(t, func(p *sim.Proc) {
		if err := cl.Mkdir(p, "/q"); err != nil {
			t.Error(err)
			return
		}
		if err := cl.SetQuota(p, "/q", 100, 1<<20); err != nil {
			t.Error(err)
			return
		}
		ino, err := cl.Stat(p, "/q")
		if err != nil || ino.QuotaNS != 100 || ino.QuotaSS != 1<<20 {
			t.Errorf("inode quota copy = %+v, %v", ino, err)
			return
		}
		// Nested quota: charges must reach every quota'd ancestor.
		if err := cl.Mkdir(p, "/q/sub"); err != nil {
			t.Error(err)
			return
		}
		if err := cl.SetQuota(p, "/q/sub", 10, 0); err != nil {
			t.Error(err)
			return
		}
		if err := cl.Create(p, "/q/sub/f1", 1000); err != nil {
			t.Error(err)
			return
		}
		if err := cl.Create(p, "/q/f2", 2000); err != nil {
			t.Error(err)
			return
		}
		info, err := cl.Quota(p, "/q")
		if err != nil {
			t.Error(err)
			return
		}
		if info.NS != 100 || info.SS != 1<<20 || info.UsedNS != 3 || info.UsedSS != 3000 {
			t.Errorf("Quota(/q) = %+v, want limits 100/%d used 3/3000", info, 1<<20)
		}
		sub, err := cl.Quota(p, "/q/sub")
		if err != nil || sub.NS != 10 || sub.UsedNS != 1 || sub.UsedSS != 1000 {
			t.Errorf("Quota(/q/sub) = %+v, %v, want NS 10 used 1/1000", sub, err)
		}
		// Recursive delete charges the whole subtree back as one aggregate.
		if err := cl.Delete(p, "/q/sub", true); err != nil {
			t.Error(err)
			return
		}
		info, err = cl.Quota(p, "/q")
		if err != nil || info.UsedNS != 1 || info.UsedSS != 2000 {
			t.Errorf("Quota(/q) after delete = %+v, %v, want used 1/2000", info, err)
		}
		// The dead directory's quota rows died with it.
		orphans := 0
		h.ns.quotas.ForEachCommitted(func(pk, _ string, _ ndb.Value) {
			if id, err := strconv.ParseUint(pk, 10, 64); err == nil && id != ino.ID {
				orphans++
			}
		})
		if orphans != 0 {
			t.Errorf("%d quota rows survived outside /q's partition", orphans)
		}
		// Clearing the quota deletes the authoritative record.
		if err := cl.SetQuota(p, "/q", 0, 0); err != nil {
			t.Error(err)
			return
		}
		info, err = cl.Quota(p, "/q")
		if err != nil || info.NS != 0 || info.SS != 0 {
			t.Errorf("Quota(/q) after clear = %+v, %v, want no limits", info, err)
		}
	})
}

func TestSetQuotaOnFileFails(t *testing.T) {
	h := newHarness(t)
	cl := h.client(1)
	h.run(t, func(p *sim.Proc) {
		if err := cl.Create(p, "/f", 0); err != nil {
			t.Error(err)
			return
		}
		if err := cl.SetQuota(p, "/f", 10, 0); err != ErrNotDir {
			t.Errorf("SetQuota on a file = %v, want ErrNotDir", err)
		}
	})
}

// --- small-file inline payload behavior ---

func TestSmallFileInlineRowLifecycle(t *testing.T) {
	h := newHarness(t)
	cl := h.client(1)
	h.run(t, func(p *sim.Proc) {
		if err := cl.Mkdir(p, "/d"); err != nil {
			t.Error(err)
			return
		}
		if err := cl.Create(p, "/d/small", 4096); err != nil {
			t.Error(err)
			return
		}
		ino, err := cl.Stat(p, "/d/small")
		if err != nil || ino.InlineSize != 4096 {
			t.Errorf("stat small file = %+v, %v, want InlineSize 4096", ino, err)
			return
		}
		rows := func() map[string]int64 {
			out := make(map[string]int64)
			h.ns.smallfiles.ForEachCommitted(func(pk, key string, val ndb.Value) {
				if key != smallFileKey {
					t.Errorf("unexpected smallfiles key %q", key)
				}
				out[pk], _ = val.(int64)
			})
			return out
		}
		if got := rows(); len(got) != 1 || got[partKey(ino.ID)] != 4096 {
			t.Errorf("smallfiles rows = %v, want one 4096-byte row in partition %s", got, partKey(ino.ID))
			return
		}
		if _, err := cl.ReadFile(p, "/d/small"); err != nil {
			t.Errorf("read inline file: %v", err)
			return
		}
		// The payload is keyed by the file's own inode id: a rename moves
		// the metadata row but must leave the data row untouched.
		if err := cl.Rename(p, "/d/small", "/d/moved"); err != nil {
			t.Error(err)
			return
		}
		if got := rows(); len(got) != 1 || got[partKey(ino.ID)] != 4096 {
			t.Errorf("smallfiles rows after rename = %v", got)
			return
		}
		if _, err := cl.ReadFile(p, "/d/moved"); err != nil {
			t.Errorf("read renamed inline file: %v", err)
			return
		}
		// Above the threshold no payload row is written.
		if err := cl.Create(p, "/d/big", 1<<20); err != nil {
			t.Error(err)
			return
		}
		if got := rows(); len(got) != 1 {
			t.Errorf("large create added a smallfiles row: %v", got)
			return
		}
		// Delete removes metadata and payload atomically.
		if err := cl.Delete(p, "/d/moved", false); err != nil {
			t.Error(err)
			return
		}
		if got := rows(); len(got) != 0 {
			t.Errorf("smallfiles rows after delete = %v, want none", got)
		}
	})
}
