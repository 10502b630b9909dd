package ndb

import (
	"hopsfscl/internal/sim"
	"hopsfscl/internal/trace"
)

// This file implements the cluster's fan-out worker pool. Batched reads and
// writes, commit trains, and Complete acks all fan out as concurrent
// sub-processes; spawning a fresh process per fan-out arm was the simulator's
// largest steady-state allocation source (a Proc, a resume channel, a
// goroutine stack, and a closure per arm). The pool keeps a free-list of
// long-lived worker processes parked on per-worker task mailboxes and
// dispatches work by Send.
//
// Determinism: dispatch is schedule-equivalent to Spawn. Spawn pushes the
// new process onto the ready ring at the call instant and consumes no event
// sequence number; Send to a parked worker does exactly the same (readyProc
// appends at the identical ready position), and a Send that has to spawn a
// fresh worker queues the task and pushes the new process at that same
// position, where its first Recv picks the task up without parking. Either
// way the arm starts at the instant and ready-order the old per-arm Spawn
// gave it, so virtual-time schedules — and hence RNG streams and golden
// outputs — are unchanged.
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

// dispatch hands task to an idle pooled worker, spawning one only when the
// pool is empty.
func (c *Cluster) dispatch(task fanTask) {
	c.workers.get().tasks.Send(task)
}

func (c *Cluster) newWorker() *fanWorker {
	w := &fanWorker{tasks: sim.NewMailbox[fanTask](c.env)}
	c.env.Spawn("ndb-fan", func(p *sim.Proc) {
		for {
			// A worker re-enters the free list only after finishing a task,
			// so a busy worker is never dispatched to; its queue holds at
			// most the one task a fresh spawn was created for.
			task := w.tasks.Recv(p)
			p.SetSpan(task.span)
			var ok bool
			var err error
			switch {
			case task.train != nil:
				err = task.txn.commitTrain(p, task.train, false)
			case task.g != nil:
				ok = task.sc.serve(p, task.g)
			default:
				ok = task.txn.complete(p, task.backup)
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
