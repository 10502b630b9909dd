package ndb

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"hopsfscl/internal/sim"
)

// Fan-out arms must come from the cluster's pools: the first fan-out grows a
// pool to its concurrency high-water mark and every later one reuses those
// arms instead of making new ones. A lock-free read batch's arms are
// stackless; a multi-train commit's are worker processes. The joins that
// collect their outcomes are pooled the same way.
func TestFanOutReusesPooledWorkers(t *testing.T) {
	env, c, client := testCluster(t, true, 3)
	tbl := c.CreateTable("inodes", 256, TableOptions{})
	const n = 8
	// writeAll commits a row on each of n partition keys: n rows on several
	// replica chains, so the commit fans its trains out to workers.
	writeAll := func() {
		inTxn(t, env, c, client, 1, tbl, "p0", func(p *sim.Proc, tx *Txn) error {
			for i := 0; i < n; i++ {
				pk := fmt.Sprintf("p%d", i)
				if err := put(tx, tbl, pk, "k", "v"); err != nil {
					return err
				}
			}
			return tx.Commit()
		})
	}
	// readAll reads the n rows back in one lock-free batch of several groups.
	readAll := func() {
		inTxn(t, env, c, client, 1, tbl, "p0", func(p *sim.Proc, tx *Txn) error {
			gets := make([]BatchGet, n)
			for i := range gets {
				gets[i] = BatchGet{Table: tbl, PartKey: fmt.Sprintf("p%d", i), Key: "k"}
			}
			if _, err := tx.ReadBatch(gets); err != nil {
				return err
			}
			return tx.Commit()
		})
	}
	writeAll()
	readAll()
	checkReuse(t, "stackless arm", &c.arms, readAll)
	checkReuse(t, "worker", &c.workers, writeAll)
	checkReuse(t, "join", &c.joins, writeAll)
}

// A join wakes its parked parent on every arrival, not only the last: when
// two arms arrive at one instant and an unrelated process is readied between
// the two arrivals, the parent — readied by the first of them — runs before
// that process. The join also keeps the outcome of every arm.
func TestJoinWakesParentOnEveryArrival(t *testing.T) {
	env := sim.New(1)
	defer env.Close()
	c := &Cluster{}
	c.joins.fresh = func() *join { return &join{} }
	var order []string
	unrelated := env.Spawn("unrelated", func(p *sim.Proc) {
		p.Wait()
		order = append(order, "unrelated")
	})
	errArm := errors.New("arm failed")
	env.Spawn("parent", func(p *sim.Proc) {
		j := c.newJoin(p, 3)
		arm := func(d time.Duration, ok bool, err error, then func()) {
			env.Spawn("arm", func(p *sim.Proc) {
				p.Sleep(d)
				j.arrive(ok, err)
				then()
			})
		}
		arm(time.Millisecond, true, nil, func() {})
		arm(2*time.Millisecond, false, errArm, unrelated.Wake)
		arm(2*time.Millisecond, true, nil, func() {})
		allOK, err := c.collect(j)
		order = append(order, "parent")
		if allOK || err != errArm {
			t.Errorf("join after every arm: allOK %v, err %v; want false, %v", allOK, err, errArm)
		}
	})
	env.Run()
	if !slices.Equal(order, []string{"parent", "unrelated"}) {
		t.Fatalf("order %v: the parent was not readied by the first arm of the instant", order)
	}
}

// An arm that arrives while its parent waits for something else — a lock,
// while it serves its own group — counts without waking the parent.
func TestJoinArrivalLeavesOtherWaitsAlone(t *testing.T) {
	env := sim.New(1)
	defer env.Close()
	c := &Cluster{}
	c.joins.fresh = func() *join { return &join{} }
	done := false
	env.Spawn("parent", func(p *sim.Proc) {
		j := c.newJoin(p, 1)
		env.Spawn("arm", func(p *sim.Proc) {
			p.Sleep(time.Millisecond)
			j.arrive(true, nil)
		})
		if p.WaitFor(10 * time.Millisecond) {
			t.Error("the arm's arrival woke the parent out of an unrelated wait")
		}
		if allOK, _ := c.collect(j); !allOK || p.Now() != 10*time.Millisecond {
			t.Errorf("join returned %v at %v, want true at 10ms", allOK, p.Now())
		}
		done = true
	})
	env.Run()
	if !done {
		t.Fatal("the parent never returned from its join")
	}
}

// checkReuse runs a fan-out that has already run once five more times and
// fails unless pool holds exactly the same members afterwards.
func checkReuse[T comparable](t *testing.T, name string, pool *freeList[T], run func()) {
	t.Helper()
	if len(pool.free) == 0 {
		t.Fatalf("no pooled %s after a multi-group fan-out", name)
	}
	before := make(map[T]bool, len(pool.free))
	for _, v := range pool.free {
		before[v] = true
	}
	for i := 0; i < 5; i++ {
		run()
	}
	if len(pool.free) != len(before) {
		t.Fatalf("%s pool grew from %d to %d across identical fan-outs, want reuse", name, len(before), len(pool.free))
	}
	for _, v := range pool.free {
		if !before[v] {
			t.Fatalf("%s pool holds a new member: arms were not served by the original pool", name)
		}
	}
}
