package ndb

import (
	"hopsfscl/internal/sim"
	"hopsfscl/internal/trace"
)

// This file implements the cluster's fan-out pools. Batched reads and
// writes, commit trains, and Complete acks all fan out as concurrent
// sub-processes; spawning a fresh process per fan-out arm was the simulator's
// largest steady-state allocation source (a Proc, a resume channel, a
// goroutine stack, and a closure per arm). An arm that may block — a commit
// train, a write group, a read group with a locked get — goes to a free-list
// of long-lived worker processes parked on per-worker task mailboxes, by
// Send. Every other arm — a lock-free read group, a scan group, one leg of
// an awaited Complete pass — only charges deferred delay and
// replies, and runs as a pooled stackless arm (fanArm): no coroutine, no
// switch. Nearly every arm is of the second kind.
//
// Determinism: dispatch is schedule-equivalent to Spawn. Spawn pushes the
// new process onto the ready ring at the call instant and consumes no event
// sequence number; Send to a parked worker does exactly the same (readyProc
// appends at the identical ready position), and a Send that has to spawn a
// fresh worker queues the task and pushes the new process at that same
// position, where its first Recv picks the task up without parking. Either
// way the arm starts at the instant and ready-order the old per-arm Spawn
// gave it, so virtual-time schedules — and hence RNG streams and golden
// outputs — are unchanged. A stackless arm keeps all three positions of the
// worker it replaces: Ready pushes it where the Send did; its first step
// serves where the worker's first resume did and schedules its wake-up as the
// worker's Flush did, taking the same sequence number; its second step
// delivers the result where the worker's second resume did.
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
	// one train (errResults), or one backup's leg of an awaited Complete
	// pass (boolResults). Plain fields, so neither allocates a closure.
	txn    *Txn
	train  *train
	backup *DataNode

	// Exactly one of boolResults/errResults is set and receives the arm's
	// outcome after its deferred delay has been flushed.
	boolResults *sim.Mailbox[bool]
	errResults  *sim.Mailbox[error]
}

// fanWorker is one pooled worker process, addressed by its task mailbox.
type fanWorker struct {
	tasks *sim.Mailbox[fanTask]
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
	c.workers.get().tasks.Send(task)
}

// cannotBlock reports whether serving group g of sc's batch never parks: a
// scan group, or a read group none of whose gets takes a lock.
func (sc *batchScratch) cannotBlock(g *batchGroup) bool {
	switch sc.kind {
	case writeRows:
		return false
	case getRows:
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
// service charged; its second returns the arm to the pool and delivers the
// result.
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
	results, ok := a.task.boolResults, a.ok
	a.task, a.served = fanTask{}, false
	a.c.arms.put(a)
	results.Send(ok)
}

func (c *Cluster) newWorker() *fanWorker {
	w := &fanWorker{tasks: sim.NewMailbox[fanTask](c.env)}
	c.env.Spawn("ndb-fan", func(p *sim.Proc) {
		for {
			// A worker re-enters the free list only after finishing a task,
			// so a busy worker is never dispatched to; its queue holds at
			// most the one task a fresh spawn was created for. A Complete
			// leg never blocks, so it is never a worker's task.
			task := w.tasks.Recv(p)
			p.SetSpan(task.span)
			var ok bool
			var err error
			if task.train != nil {
				err = task.txn.commitTrain(p, task.train, false)
			} else {
				ok = task.sc.serve(p, task.g)
			}
			p.Flush()
			// Drop the span before parking so a pooled worker does not pin
			// a finished operation's trace memory.
			p.SetSpan(nil)
			if task.errResults != nil {
				task.errResults.Send(err)
			} else {
				task.boolResults.Send(ok)
			}
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

	t     *Txn
	kind  batchKind
	gets  []BatchGet
	vals  []BatchVal
	scans []BatchScan
	kvs   [][]KV
	parts []*Partition
	slots []int
	errs  []error
}

// putScratch returns sc to the pool, dropping what it references of the
// batch it served.
func (c *Cluster) putScratch(sc *batchScratch) {
	sc.t, sc.vals, sc.kvs = nil, nil, nil
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
