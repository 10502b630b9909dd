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
	"hopsfscl/internal/simnet"
	"hopsfscl/internal/workload"
)

// historyDeployment builds an empty HopsFS-CL (3,3) namespace with a block
// layer over the given number of shards, with no workload clients.
func historyDeployment(t *testing.T, shards int, seed int64) *core.Deployment {
	t.Helper()
	setup, _ := core.SetupByName("HopsFS-CL (3,3)")
	o := core.DefaultOptions(setup)
	o.MetadataServers = 3
	o.ClientsPerServer = 0
	o.Namespace = workload.NamespaceSpec{}
	o.Seed = seed
	o.Shards = shards
	o.WithBlockLayer = true
	d, err := core.Build(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

// TestHistoryMatchesOracle is the sequential differential check: one seeded
// client runs a mixed history — mkdir, create, delete, rename, list and stat
// over a small pool of names, so that names collide and every error path is
// taken — on an empty namespace at Shards 1, 2 and 4, recording it at the
// client. A sequential history has one order, so the checker holds every
// recorded operation to the oracle's answer: the same error class — a
// failed rename's the oracle's first, at every shard count — the same
// listing in the same order, the same stat, inode ids included. A quarter
// of the listings are of "/", whose children scatter across shards and
// come back merged.
func TestHistoryMatchesOracle(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			d := historyDeployment(t, shards, 1)
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
			checkIntervals(t, &h)
			for i, op := range h.Ops {
				if op.Client != int(cl.Node.ID()) {
					t.Fatalf("op %d is recorded for client %d, want %d", i, op.Client, cl.Node.ID())
				}
				// One fault-free client meets no contention: every
				// operation answers one of the oracle's classes, and none
				// is left out as not applied (no server reachable, or
				// retries exhausted).
				if out := namenode.Outcome(op).Err; out == nsmodel.ErrUnknown || out == nsmodel.ErrNotApplied {
					t.Fatalf("op %d %s %s %s: %v, which the oracle has no class for", i, op.Name, op.Path, op.Dst, op.Err)
				}
			}
			if err := nsmodel.Check(h.Ops, namenode.Outcome, nsmodel.FirstRenameErr); err != nil {
				t.Fatal(err)
			}
			// The history must have exercised the error paths, not only
			// successes.
			seen := map[string]bool{}
			for _, op := range h.Ops {
				seen[op.Name+" "+outcomeClass(op)] = true
			}
			for _, want := range []string{"mkdir ok", "create ok", "delete ok", "rename ok", "list ok", "stat ok",
				"mkdir " + nsmodel.ErrExists.Error(), "create " + nsmodel.ErrNotFound.Error(),
				"delete " + nsmodel.ErrNotEmpty.Error(), "list " + nsmodel.ErrNotDir.Error()} {
				if !seen[want] {
					t.Errorf("the history never ran a %s", want)
				}
			}
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

func outcomeClass(op nsmodel.Op) string {
	if err := namenode.Outcome(op).Err; err != nil {
		return err.Error()
	}
	return "ok"
}

// TestConcurrentHistoryLinearizes is the shared-subtree check: five clients
// on three metadata servers in three AZs run at once over three top-level
// directories, pinned to different shards when there are two, drawing
// names from a pool of two, so that mkdir, create, delete, 3 MiB writes,
// renames inside and across the top-level directories (sharedOp), and
// stats, reads and lists — none of which takes a lock — collide on the
// same names. The
// history they record must have a linearization (nsmodel.Check), each
// operation judged by its promise row, a failed rename by the oracle's
// first error on one shard and by any of its errors across two. The run must have taken the paths
// it exists to judge: cross-shard renames at Shards 2, writes whose attach
// lost its file to a racing delete, and every kind of operation succeeding.
func TestConcurrentHistoryLinearizes(t *testing.T) {
	seen := map[string]int{}
	cross := int64(0)
	for _, shards := range []int{1, 2} {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				d := historyDeployment(t, shards, seed)
				h := runSharedSubtree(t, d, seed)
				renames := nsmodel.FirstRenameErr
				if shards > 1 {
					renames = nsmodel.AnyRenameErr
				}
				if err := nsmodel.Check(h.Ops, namenode.Outcome, renames); err != nil {
					t.Fatal(err)
				}
				for _, op := range h.Ops {
					seen[op.Name+" "+outcomeClass(op)]++
				}
				if shards > 1 {
					cross += d.Registry.Counter("shard.txn.cross").Value()
				}
			})
		}
	}
	for _, want := range []string{"mkdir ok", "create ok", "delete ok", "rename ok", "attachBlocks ok", "stat ok", "read ok", "list ok",
		"attachBlocks " + nsmodel.ErrNotFound.Error(), "delete " + nsmodel.ErrNotEmpty.Error()} {
		if seen[want] == 0 {
			t.Errorf("the histories never ran a %s: %v", want, seen)
		}
	}
	if cross == 0 {
		t.Error("no rename committed across shards")
	}
}

// sharedTops are the shape's top-level directories.
var sharedTops = []string{"A", "B", "C"}

// runSharedSubtree makes the shape's top-level directories, pinning each to
// a shard in turn, then runs the five clients to completion and returns
// their history, the setup's included.
func runSharedSubtree(t *testing.T, d *core.Deployment, seed int64) *nsmodel.History {
	t.Helper()
	const agents, opsPerAgent = 5, 150
	var h nsmodel.History
	clients := make([]*namenode.Client, agents)
	for i := range clients {
		zone := simnet.ZoneID(1 + i%3)
		clients[i] = d.NS.NewClient(zone, simnet.HostID(9001+i), zone)
		clients[i].Record(&h)
	}
	shards := len(d.MetaClusters())
	done := 0
	d.Env.Spawn("setup", func(p *sim.Proc) {
		for i, top := range sharedTops {
			if err := clients[0].Mkdir(p, "/"+top); err != nil {
				t.Error(err)
				return
			}
			ino, err := clients[0].Stat(p, "/"+top)
			if err == nil {
				err = d.NS.PinSubtree(ino.ID, i%shards)
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
		for i, cl := range clients {
			rng := rand.New(rand.NewSource(seed*100 + int64(i)))
			d.Env.Spawn("agent", func(p *sim.Proc) {
				for range opsPerAgent {
					sharedOp(p, cl, rng)
				}
				done++
			})
		}
	})
	d.Env.RunFor(10 * time.Minute)
	if done != agents {
		t.Fatalf("%d of %d agents finished", done, agents)
	}
	checkIntervals(t, &h)
	return &h
}

// checkIntervals fails the test if an operation of h returned before its
// invoke.
func checkIntervals(t *testing.T, h *nsmodel.History) {
	t.Helper()
	for i, op := range h.Ops {
		if op.Return < op.Invoke {
			t.Fatalf("op %d returned at %v, before its invoke at %v", i, op.Return, op.Invoke)
		}
	}
}

// sharedOp runs one random operation of the shape on cl. A rename inside a
// top-level directory may move a name into a directory that is being
// deleted; one across them moves x between /A and /B, and a probe stats x
// under both, back to back, so a reader can see both ends of a move; /C
// only ever changes within itself.
func sharedOp(p *sim.Proc, cl *namenode.Client, rng *rand.Rand) {
	pool := []string{"x", "y"}
	name := pool[rng.Intn(len(pool))]
	top := "/" + sharedTops[rng.Intn(len(sharedTops))]
	path := top + "/" + name
	if rng.Intn(3) == 0 {
		path += "/" + pool[rng.Intn(len(pool))]
	}
	from, to := "/A/x", "/B/x"
	if rng.Intn(2) == 0 {
		from, to = to, from
	}
	switch k := rng.Intn(100); {
	case k < 12:
		cl.Mkdir(p, path)
	case k < 24:
		cl.Create(p, path, int64(rng.Intn(2))*1024)
	case k < 33:
		cl.Delete(p, path, rng.Intn(2) == 0)
	case k < 41:
		cl.WriteFile(p, path, 3<<20)
	case k < 49:
		dst := top + "/" + pool[rng.Intn(len(pool))]
		if rng.Intn(2) == 0 {
			dst += "/" + name
		}
		cl.Rename(p, top+"/"+name, dst)
	case k < 61:
		cl.Rename(p, from, to)
	case k < 71:
		cl.Stat(p, path)
	case k < 81:
		cl.Stat(p, from)
		cl.Stat(p, to)
	case k < 91:
		cl.ReadFile(p, path)
	default:
		if rng.Intn(2) == 0 {
			top += "/" + name
		}
		cl.List(p, top)
	}
}
