package namenode_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"hopsfscl/internal/core"
	"hopsfscl/internal/namenode"
	"hopsfscl/internal/nsmodel"
	"hopsfscl/internal/sim"
	"hopsfscl/internal/workload"
)

// TestHistoryMatchesOracle is the sequential differential check: one seeded
// client runs a mixed history — mkdir, create, delete, rename, list and stat
// over a small pool of names, so that names collide and every error path is
// taken — on an empty namespace at Shards 1, 2 and 4, recording it at the
// client. Replayed through the sequential oracle, every recorded operation
// must come back as the oracle's does: the same error class, the same
// listing in the same order, the same stat. Inode ids are compared up to
// renaming, since the shard count shapes them: the deployment's ids and the
// oracle's must stay a bijection. A quarter of the listings are of "/",
// whose children scatter across shards and come back merged.
func TestHistoryMatchesOracle(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			setup, _ := core.SetupByName("HopsFS-CL (3,3)")
			o := core.DefaultOptions(setup)
			o.MetadataServers = 3
			o.ClientsPerServer = 0
			o.Namespace = workload.NamespaceSpec{}
			o.Seed = 1
			o.Shards = shards
			d, err := core.Build(o)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			cl := d.NS.NewClient(1, 9001, 1)
			var h nsmodel.History
			cl.Record(&h)
			const ops = 300
			ran := 0
			d.Env.Spawn("history", func(p *sim.Proc) {
				runMixedHistory(p, cl, rand.New(rand.NewSource(1)), ops)
				ran = ops
			})
			d.Env.RunFor(time.Minute)
			if ran != ops || len(h.Ops) != ops {
				t.Fatalf("the client ran %d operations and the history holds %d, want %d", ran, len(h.Ops), ops)
			}
			for i, op := range h.Ops {
				if op.Client != int(cl.Node.ID()) {
					t.Fatalf("op %d is recorded for client %d, want %d", i, op.Client, cl.Node.ID())
				}
			}
			checkAgainstOracle(t, h.Ops)
		})
	}
}

// runMixedHistory runs n random operations on cl. Top-level names come from
// a wider pool than deeper ones, so "/" has children on every shard.
func runMixedHistory(p *sim.Proc, cl *namenode.Client, rng *rand.Rand, n int) {
	top := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	deep := []string{"a", "b", "c"}
	randPath := func() string {
		comps := []string{top[rng.Intn(len(top))]}
		for depth := rng.Intn(3); depth > 0; depth-- {
			comps = append(comps, deep[rng.Intn(len(deep))])
		}
		return "/" + strings.Join(comps, "/")
	}
	for range n {
		path := randPath()
		switch k := rng.Intn(20); {
		case k < 5:
			cl.Mkdir(p, path)
		case k < 9:
			cl.Create(p, path, 0)
		case k < 11:
			cl.Delete(p, path, rng.Intn(2) == 0)
		case k < 13:
			cl.Rename(p, path, randPath())
		case k < 14:
			cl.List(p, "/")
		case k < 17:
			cl.List(p, path)
		default:
			cl.Stat(p, path)
		}
	}
}

// checkAgainstOracle replays a sequential history through the oracle and
// reports every operation whose outcome differs from the oracle's.
func checkAgainstOracle(t *testing.T, ops []nsmodel.Op) {
	t.Helper()
	m := nsmodel.New()
	// toModel and fromModel are the id renaming, grown as ids are seen.
	toModel := map[uint64]uint64{namenode.RootID: nsmodel.RootID}
	fromModel := map[uint64]uint64{nsmodel.RootID: namenode.RootID}
	sameEntry := func(got *namenode.Inode, want nsmodel.Entry) error {
		if got.Name != want.Name || got.Dir != want.Dir {
			return fmt.Errorf("%s (dir %v), oracle %s (dir %v)", got.Name, got.Dir, want.Name, want.Dir)
		}
		mid, seen := toModel[got.ID]
		fid, seenBack := fromModel[want.ID]
		if (seen && mid != want.ID) || (seenBack && fid != got.ID) {
			return fmt.Errorf("%s has id %d, which renames to %d; the oracle's id is %d, which renames to %d",
				got.Name, got.ID, mid, want.ID, fid)
		}
		toModel[got.ID], fromModel[want.ID] = want.ID, got.ID
		return nil
	}
	seen := map[string]bool{}
	for i, op := range ops {
		var want, diff error
		switch op.Name {
		case "mkdir":
			want = m.Mkdir(op.Path)
		case "create":
			want = m.Create(op.Path)
		case "delete":
			want = m.Delete(op.Path, op.Recursive)
		case "rename":
			want = m.Rename(op.Path, op.Dst)
		case "list":
			var entries []nsmodel.Entry
			entries, want = m.List(op.Path)
			if op.Err == nil && want == nil {
				got := op.Result.(namenode.Listing)
				if got.Len() != len(entries) {
					diff = fmt.Errorf("%d children %v, oracle %d %v", got.Len(), names(got), len(entries), entries)
				}
				for j := 0; diff == nil && j < got.Len(); j++ {
					if err := sameEntry(got.At(j), entries[j]); err != nil {
						diff = fmt.Errorf("child %d of %v: %w", j, names(got), err)
					}
				}
			}
		case "stat":
			var entry nsmodel.Entry
			entry, want = m.Stat(op.Path)
			if op.Err == nil && want == nil {
				diff = sameEntry(op.Result.(*namenode.Inode), entry)
			}
		default:
			t.Fatalf("op %d: the history holds an unexpected %q", i, op.Name)
		}
		if namenode.ModelErr(op.Err) != want {
			diff = fmt.Errorf("returned %v, oracle %v", op.Err, want)
		}
		if op.Return < op.Invoke {
			diff = fmt.Errorf("returned at %v, before its invoke at %v", op.Return, op.Invoke)
		}
		if diff != nil {
			t.Fatalf("op %d %s %s %s: %v", i, op.Name, op.Path, op.Dst, diff)
		}
		outcome := "ok"
		if want != nil {
			outcome = want.Error()
		}
		seen[op.Name+" "+outcome] = true
	}
	// The history must have exercised the error paths, not only successes.
	for _, want := range []string{"mkdir ok", "create ok", "delete ok", "rename ok", "list ok", "stat ok",
		"mkdir " + nsmodel.ErrExists.Error(), "create " + nsmodel.ErrNotFound.Error(),
		"delete " + nsmodel.ErrNotEmpty.Error(), "list " + nsmodel.ErrNotDir.Error()} {
		if !seen[want] {
			t.Errorf("the history never ran a %s", want)
		}
	}
}

func names(l namenode.Listing) []string {
	out := make([]string, l.Len())
	for i := range out {
		out[i] = l.At(i).Name
	}
	return out
}
