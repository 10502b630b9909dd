package ndb

import (
	"hopsfscl/internal/sim"
	"hopsfscl/internal/trace"
)

// This file implements the cluster's fan-out pools. Batched reads and
// writes, commit trains, and Complete acks all fan out as concurrent arms,
// and a fresh process per arm was once the simulator's largest
// steady-state allocation source. An arm that may block — a commit train,
// a write group, a read group with a locked get — goes to a pooled worker
// process waiting for its next task. Every other arm — a lock-free read
// group, a scan group, one leg of an awaited Complete pass — only charges
// deferred delay and replies, and runs as a pooled stackless arm (fanArm):
// no coroutine, no switch. Nearly every arm is of the second kind. Every
// arm reports to its fan-out's join.
//
// Determinism: dispatch is schedule-equivalent to Spawn, which pushes the
// new process onto the ready ring at the call instant and takes no event
// sequence number. Waking a waiting worker pushes it at that same position;
// a fresh worker is spawned there and finds its task already set. A
// stackless arm keeps all three positions of the worker it replaces: Ready
// pushes it where the Wake did; its first step serves where the worker's
// first resume did and schedules its wake-up as the worker's Flush did,
// taking the same sequence number; its second step reports to the join
// where the worker's second resume did. So virtual-time schedules, RNG
// streams and golden outputs do not depend on the pools.
type fanTask struct {
	// span is the trace span the arm's work is attributed to (nil when the
	// operation is untraced).
	span *trace.Span

	// Batch fan-out: serve group g of the batch sc holds (batchScratch.serve),
	// reporting success. sc carries the transaction, the requests and the
	// result slots, so a k-group fan-out allocates nothing per arm.
	g  *batchGroup
	sc *batchScratch

	// Commit fan-out, on behalf of txn: the Commit and Complete passes of
	// one train, or one backup's leg of an awaited Complete pass. Plain
	// fields, so neither allocates a closure.
	txn    *Txn
	train  *train
	backup *DataNode

	// join receives the arm's outcome once its deferred delay is flushed.
	join *join
}

// fanWorker is one pooled worker process and the task it serves next.
type fanWorker struct {
	p    *sim.Proc
	task fanTask
}

// join collects a fan-out's outcomes for the process that dispatched it:
// how many arms are still out, whether every arm succeeded, and the first
// error an arm returned. Each arrival wakes the parent if it is parked in
// collect — on every arrival, not only the last, so the parent takes the
// ready position of the first arm to reach it at an instant, ahead of
// anything readied after that arm. parked keeps an arrival from waking the
// parent out of another wait (a lock wait while it serves its own group).
type join struct {
	parent *sim.Proc
	out    int
	parked bool
	allOK  bool
	err    error
}

// newJoin checks out a join for parent's fan-out of arms arms.
func (c *Cluster) newJoin(parent *sim.Proc, arms int) *join {
	j := c.joins.get()
	*j = join{parent: parent, out: arms, allOK: true}
	return j
}

// arrive records one arm's outcome.
func (j *join) arrive(ok bool, err error) {
	j.out--
	j.allOK = j.allOK && ok
	if j.err == nil {
		j.err = err
	}
	if j.parked {
		j.parent.Wake()
	}
}

// collect waits until every arm of j has arrived, returns j to the pool
// and reports whether every arm succeeded and the first error. The parent
// flushes its deferred delay before it counts, so an arm that arrives
// during the flush is not missed.
func (c *Cluster) collect(j *join) (allOK bool, err error) {
	j.parent.Flush()
	for j.out > 0 {
		j.parked = true
		j.parent.Wait()
		j.parked = false
	}
	allOK, err = j.allOK, j.err
	*j = join{}
	c.joins.put(j)
	return allOK, err
}

// freeList is the one LIFO pool behind the cluster's reusable objects: get
// pops the most recently returned value and calls fresh only when the list
// is empty, so each list grows to the high-water mark of concurrent use and
// the steady state allocates nothing.
type freeList[T any] struct {
	free  []T
	fresh func() T
}

func (f *freeList[T]) get() T {
	n := len(f.free)
	if n == 0 {
		return f.fresh()
	}
	v := f.free[n-1]
	var zero T
	f.free[n-1] = zero
	f.free = f.free[:n-1]
	return v
}

func (f *freeList[T]) put(v T) { f.free = append(f.free, v) }

// dispatch hands task to an idle pooled arm that can serve it — a stackless
// arm when the task cannot block, a worker otherwise — making one only when
// that pool is empty.
func (c *Cluster) dispatch(task fanTask) {
	if task.train == nil && (task.g == nil || task.sc.cannotBlock(task.g)) {
		a := c.arms.get()
		a.task = task
		a.p.Ready()
		return
	}
	w := c.workers.get()
	w.task = task
	w.p.Wake()
}

// cannotBlock reports whether serving group g of sc's batch never parks: a
// scan group, or a read group none of whose gets takes a lock. A train's
// group locks its rows.
func (sc *batchScratch) cannotBlock(g *batchGroup) bool {
	if g.train != nil {
		return false
	}
	if sc.kind == getRows {
		for _, i := range g.idx {
			if sc.gets[i].Lock != 0 {
				return false
			}
		}
	}
	return true
}

// fanArm is one pooled stackless arm (sim.Env.NewStackless). Its first step
// serves the task and schedules its wake-up at the end of the delay the
// service charged; its second returns the arm to the pool and reports to the
// join.
type fanArm struct {
	c      *Cluster
	p      *sim.Proc
	task   fanTask
	ok     bool
	served bool
}

func (c *Cluster) newArm() *fanArm {
	a := &fanArm{c: c}
	a.p = c.env.NewStackless("ndb-fan", a.step)
	return a
}

func (a *fanArm) step(p *sim.Proc) {
	if !a.served {
		a.served = true
		p.SetSpan(a.task.span)
		if a.task.g != nil {
			a.ok = a.task.sc.serve(p, a.task.g)
		} else {
			a.ok = a.task.txn.complete(p, a.task.backup)
		}
		if p.FlushAsync() {
			return
		}
	}
	// Drop the span and the task before the arm is pooled, so it pins
	// nothing of a finished operation.
	p.SetSpan(nil)
	j, ok := a.task.join, a.ok
	a.task, a.served = fanTask{}, false
	a.c.arms.put(a)
	j.arrive(ok, nil)
}

func (c *Cluster) newWorker() *fanWorker {
	w := &fanWorker{}
	w.p = c.env.Spawn("ndb-fan", func(p *sim.Proc) {
		for {
			// A worker re-enters the free list only after finishing a task,
			// so a busy worker is never dispatched to; a fresh one finds the
			// task it was spawned for already set. A Complete leg never
			// blocks, so it is never a worker's task.
			for w.task.join == nil {
				p.Wait()
			}
			task := w.task
			w.task = fanTask{}
			p.SetSpan(task.span)
			ok := true
			var err error
			if task.train != nil {
				err = task.txn.commitTrain(p, task.train, false)
				ok = err == nil
			} else {
				ok = task.sc.serve(p, task.g)
			}
			p.Flush()
			// Drop the span before waiting so a pooled worker does not pin
			// a finished operation's trace memory.
			p.SetSpan(nil)
			task.join.arrive(ok, err)
			c.workers.put(w)
		}
	})
	return w
}

// batchScratch is one batch in flight: groupByTarget's working arrays, and
// everything the arm serving a group (serve) reads and writes — the
// transaction, the kind of batch, the requests (copied in, so the caller's
// slice does not escape), the result slots and the per-row failures. A batch
// checks one out for its whole lifetime — routing through fan-out — and
// returns it with putScratch when done, so concurrent transactions never
// share one.
type batchScratch struct {
	targets []*DataNode
	trains  []*train
	backing []batchGroup
	groups  []*batchGroup
	buf     []int

	t      *Txn
	kind   batchKind
	noWait bool // a get's lock is taken only if granted at once
	gets   []BatchGet
	vals   []BatchVal
	scans  []BatchScan
	kvs    [][]KV
	parts  []*Partition
	slots  []int
	errs   []error
}

// putScratch returns sc to the pool, dropping what it references of the
// batch it served.
func (c *Cluster) putScratch(sc *batchScratch) {
	sc.t, sc.vals, sc.kvs, sc.noWait = nil, nil, nil, false
	clear(sc.gets)
	clear(sc.scans)
	c.scratch.put(sc)
}

// zeroed returns a zeroed length-n slice backed by *buf, growing it when it
// is short.
func zeroed[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	s := (*buf)[:n]
	clear(s)
	return s
}
