package ndb

import (
	"strconv"

	"hopsfscl/internal/sim"
	"hopsfscl/internal/trace"
)

// This file implements the batched read API of the primary-key-batched path
// resolution protocol (HopsFS [23] §3.2.2 and the λFS elasticity argument):
// instead of one serial round trip per row, the transaction coordinator fans
// all reads out to their routed replicas in one shot. Rows are grouped by
// target datanode, each group travels as a single request/response pair, and
// the groups proceed concurrently. Per-row routing honors the same rules as
// ReadCommitted/ScanPrefix: fully replicated tables serve from the TC, Read
// Backup tables from the replica nearest the TC, plain tables from the
// primary replica — and a get that asks for a row lock goes to the primary
// and takes it there, as ReadLocked, so a transaction's lock phase can ride
// the same round as its reads (HopsFS takes the lock on a path's last
// component inside the batched primary-key read that resolves it). The
// per-row LDM charges flow through DataNode.use, so the
// executor batching cost model (threads.go) amortizes them exactly as NDB's
// LDM threads do for a multi-row TCKEYREQ train.

// BatchGet names one row of a ReadBatch: a committed point read, lock-free
// unless Lock is set. A locked get is ReadLocked inside the fan-out: it is
// routed to the primary replica and the arm serving it takes the row lock
// before the LDM read, so the value is the committed one under the lock. A
// batch may carry locks only where taking them in arm order cannot deadlock;
// the metadata layer's rule is at most one per batch (DESIGN §9).
type BatchGet struct {
	Table   *Table
	PartKey string
	Key     string
	Lock    LockMode
}

// BatchVal is the result of one BatchGet.
type BatchVal struct {
	Val Value
	OK  bool
}

// BatchScan names one partition-pruned prefix scan of a ScanBatch.
type BatchScan struct {
	Table   *Table
	PartKey string
	Prefix  string
}

// batchRowOverhead is the nominal wire size each additional row key adds to
// a batched request beyond the first.
const batchRowOverhead = 24

// batchGroup is the per-target slice of a batch: the rows (indices into the
// caller's request slice) served by one datanode, plus the §IV-A4 proximity
// of that datanode to the TC. A write batch's group is one train — the rows
// prepared together down one replica chain, whose head is target (two trains
// can share a head: a fully replicated table's chain is longer) — and a read
// batch's has none. rows is groupByTarget's counting scratch.
type batchGroup struct {
	target *DataNode
	train  *train
	prox   int
	rows   int
	idx    []int
}

// routeRow is the one §IV-A5 replica choice behind every read — single rows,
// scans and both batches: a locked read goes to the primary whatever the
// table (§II-B2: that is where row locks live); unlocked, Read Backup tables
// serve from the replica nearest the TC (primary or backup), fully
// replicated tables from the TC itself, plain tables from the primary. It
// attributes the access to part's heat and returns the chosen datanode (nil
// when none is reachable) and its replica slot (-1 when the TC serves a fully
// replicated row it does not own).
func (t *Txn) routeRow(part *Partition, lock LockMode) (*DataNode, int) {
	table := part.table
	t.heatTouch(part)
	reps := part.replicas()
	if len(reps) == 0 {
		return nil, -1
	}
	var target *DataNode
	slot := -1
	switch {
	case lock != 0:
		target, slot = reps[0], 0
	case table.opts.FullyReplicated:
		target = t.tc
		for i, r := range reps {
			if r == target {
				slot = i
			}
		}
	case table.opts.ReadBackup:
		best := ProximityRemote + 1
		for i, r := range reps {
			if !r.Alive() {
				continue
			}
			if d := domainProximity(t.tc.Node, t.tc.Domain, r); d < best {
				best, target, slot = d, r, i
			}
		}
	default:
		target, slot = reps[0], 0
	}
	if target != nil && !target.Alive() {
		target = nil
	}
	return target, slot
}

// groupByTarget routes every row and groups the row indices by target
// datanode (and train, for writes), preserving first-appearance order for
// determinism. route is called once per row index, in order, and returns a
// nil target when the row has nowhere to go, which fails the grouping.
// Batches are small (a path's worth of rows over a handful of targets), so
// groups are found by linear scan and the index lists are carved out of one
// shared array — no per-batch map, no per-group slice growth.
func groupByTarget(sc *batchScratch, n int, route func(i int) (*DataNode, *train)) ([]*batchGroup, bool) {
	if cap(sc.targets) < n {
		sc.targets = make([]*DataNode, n)
		sc.trains = make([]*train, n)
	}
	targets, trains := sc.targets[:n], sc.trains[:n]
	for i := 0; i < n; i++ {
		if targets[i], trains[i] = route(i); targets[i] == nil {
			return nil, false
		}
	}
	// backing is pre-sized so appends never reallocate: pointers handed out
	// in groups stay valid.
	if cap(sc.backing) < n {
		sc.backing = make([]batchGroup, 0, n)
		sc.groups = make([]*batchGroup, 0, n)
		sc.buf = make([]int, 0, n)
	}
	backing := sc.backing[:0]
	groups := sc.groups[:0]
	for i, target := range targets {
		g := findGroup(groups, target, trains[i])
		if g == nil {
			backing = append(backing, batchGroup{target: target, train: trains[i]})
			g = &backing[len(backing)-1]
			groups = append(groups, g)
		}
		g.rows++
	}
	buf := sc.buf[:0]
	for _, g := range groups {
		g.idx = buf[len(buf) : len(buf) : len(buf)+g.rows]
		buf = buf[:len(buf)+g.rows]
	}
	for i, target := range targets {
		g := findGroup(groups, target, trains[i])
		g.idx = append(g.idx, i)
	}
	return groups, true
}

func findGroup(groups []*batchGroup, target *DataNode, tr *train) *batchGroup {
	for _, g := range groups {
		if g.target == target && g.train == tr {
			return g
		}
	}
	return nil
}

// sendTo and replyFrom are the two legs of the one request/response envelope
// between a transaction's TC and the datanode serving a row or a row train:
// the request travels and the target receives it; the target sends the
// response, it travels, and the TC receives it. A target that is the TC
// itself exchanges no message. Each reports false when its leg was lost (the
// RPC timeout expired).
func (t *Txn) sendTo(p *sim.Proc, target *DataNode, bytes int) bool {
	if target == t.tc {
		return true
	}
	if !t.c.net.TravelDeferred(p, t.tc.Node, target.Node, bytes, rpcTimeout) {
		return false
	}
	target.recv(p)
	return true
}

func (t *Txn) replyFrom(p *sim.Proc, target *DataNode, bytes int) bool {
	if target == t.tc {
		return true
	}
	target.send(p)
	if !t.c.net.TravelDeferred(p, target.Node, t.tc.Node, bytes, rpcTimeout) {
		return false
	}
	t.tc.recv(p)
	return true
}

// trainReq is the request size of a group's row train: one request plus the
// key overhead of every further row.
func trainReq(g *batchGroup) int {
	return reqSize + batchRowOverhead*(len(g.idx)-1)
}

// readBatch is the one batched read: ReadBatch and ScanBatch differ only in
// where a request's row lives and whether it is locked (at), and in what the
// serving replica does for it (row, which takes the lock if any, charges the
// LDM work and returns the result with its response bytes). Routing is per
// row (see the file comment); rows sharing a target travel together, distinct
// targets are visited concurrently. The whole batch is one "batch_read" child
// span, and the registry counts rows per proximity class of their serving
// replica. Any failure — an unreachable target, as ReadCommitted, or a lock
// timeout, as ReadLocked — aborts the transaction, and the first failed row
// in request order decides the error, as in WriteBatch. at and row are
// static functions, so the batch allocates its result slice and one serve
// closure.
func readBatch[T, R any](t *Txn, reqs []T, at func(*T) (*Partition, LockMode),
	row func(t *Txn, p *sim.Proc, target *DataNode, part *Partition, req *T) (R, int, error)) ([]R, error) {
	if t.done {
		return nil, ErrAborted
	}
	out := make([]R, len(reqs))
	if len(reqs) == 0 {
		return out, nil
	}
	t.c.Stats.Rounds++
	// One coordinator pass routes the whole key train (§II-B: a multi-row
	// TCKEYREQ is a single TC job, not one per row).
	t.tc.use(t.p, TC, t.c.cfg.Costs.TCOp)

	sc := t.c.scratch.get()
	defer t.c.scratch.put(sc)
	slots := zeroed(&sc.slots, len(reqs))
	parts := zeroed(&sc.parts, len(reqs))
	groups, ok := groupByTarget(sc, len(reqs), func(i int) (*DataNode, *train) {
		part, lock := at(&reqs[i])
		target, slot := t.routeRow(part, lock)
		parts[i], slots[i] = part, slot
		return target, nil
	})
	if !ok {
		return nil, t.failAbort()
	}
	errs := zeroed(&sc.errs, len(reqs))
	serve := func(p *sim.Proc, g *batchGroup) bool {
		if !t.sendTo(p, g.target, trainReq(g)) {
			errs[g.idx[0]] = ErrNodeUnavailable
			return false
		}
		resp := ackSize
		for _, i := range g.idx {
			var bytes int
			// A failure stops this group where a serial sequence of reads
			// would have stopped.
			if out[i], bytes, errs[i] = row(t, p, g.target, parts[i], &reqs[i]); errs[i] != nil {
				return false
			}
			t.c.Stats.Reads++
			if slots[i] >= 0 {
				parts[i].reads[slots[i]]++
			}
			resp += bytes
		}
		if !t.replyFrom(p, g.target, resp) {
			errs[g.idx[0]] = ErrNodeUnavailable
			return false
		}
		return true
	}
	if !t.runBatch("read", groups, len(reqs), serve) {
		return nil, t.abortBatch(errs)
	}
	return out, nil
}

// abortBatch ends a transaction one of whose batches failed, as the serial
// path would: every lock taken so far — including those of groups that
// succeeded before another failed — is released, nothing will commit, and the
// first failed row in request order decides the returned error.
func (t *Txn) abortBatch(errs []error) error {
	t.abortLocked()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ErrNodeUnavailable
}

// ReadBatch reads the committed values of all rows in one batched fan-out,
// returning results positionally. A get with Lock set is a ReadLocked that
// rides the batch (see BatchGet).
func (t *Txn) ReadBatch(gets []BatchGet) ([]BatchVal, error) {
	return readBatch(t, gets,
		func(g *BatchGet) (*Partition, LockMode) { return g.Table.partitionFor(g.PartKey), g.Lock },
		func(t *Txn, p *sim.Proc, target *DataNode, part *Partition, g *BatchGet) (BatchVal, int, error) {
			if g.Lock != 0 {
				// Conflicts, the ledger and the deadlock timeout behave
				// exactly as on ReadLocked's path.
				if err := t.lockRowOn(p, part, g.PartKey, g.Key, g.Lock); err != nil {
					return BatchVal{}, 0, err
				}
			}
			target.use(p, LDM, t.c.cfg.Costs.LDMRead)
			val, exists := part.committed(g.PartKey, g.Key)
			return BatchVal{Val: val, OK: exists}, g.Table.rowSize, nil
		})
}

// ScanBatch runs all partition-pruned prefix scans in one batched fan-out,
// returning each scan's rows positionally (key-sorted, as ScanPrefix) — a
// level of a subtree walk costs one parallel round instead of one serial
// round trip per directory.
func (t *Txn) ScanBatch(scans []BatchScan) ([][]KV, error) {
	return readBatch(t, scans,
		func(s *BatchScan) (*Partition, LockMode) { return s.Table.partitionFor(s.PartKey), 0 },
		func(t *Txn, p *sim.Proc, target *DataNode, part *Partition, s *BatchScan) ([]KV, int, error) {
			rows := part.scanPrefix(s.PartKey, s.Prefix)
			// One LDM charge per small batch of rows scanned, minimum one
			// (the ScanPrefix cost model).
			for b := 0; b < 1+len(rows)/8; b++ {
				target.use(p, LDM, t.c.cfg.Costs.LDMRead)
			}
			return rows, len(rows) * s.Table.rowSize, nil
		})
}

// runBatch executes the groups of one batch — inline when a single target
// serves everything, concurrently otherwise — under one "batch_<kind>" child
// span carrying row/target counts. kind is "read" or "write" and selects
// which registry family counts the fan-out. It returns false if any group
// failed (unreachable target, or a lock failure).
func (t *Txn) runBatch(kind string, groups []*batchGroup, rows int, serve func(p *sim.Proc, g *batchGroup) bool) bool {
	obs := t.c.obs
	sp := t.p.Span().Child("batch_"+kind, t.p.EffNow())
	var prev *trace.Span
	if sp != nil {
		sp.SetAttr("rows", strconv.Itoa(rows))
		sp.SetAttr("targets", strconv.Itoa(len(groups)))
		prev = t.p.SetSpan(sp)
	}
	defer func() {
		if sp != nil {
			sp.Finish(t.p.EffNow())
			t.p.SetSpan(prev)
		}
	}()
	if obs != nil {
		batches, rowsByProx := obs.batchReads, &obs.batchRows
		if kind == "write" {
			batches, rowsByProx = obs.batchWrites, &obs.batchWriteRows
		}
		batches.Add(1)
		for _, g := range groups {
			g.prox = domainProximity(t.tc.Node, t.tc.Domain, g.target)
			rowsByProx[g.prox].Add(int64(len(g.idx)))
		}
	}
	// Concurrent deferred travel: every group starts from the transaction's
	// current effective instant, so the batch's latency is the slowest group,
	// not the sum. The caller is the last arm — it would only wait otherwise —
	// and each other group is a pooled worker arm; the first Recv flushes the
	// caller's own arm before collecting the others. The serve closure is
	// shared across arms and the results mailbox is pooled, so the fan-out
	// itself allocates nothing.
	last := len(groups) - 1
	if last == 0 {
		return serve(t.p, groups[0])
	}
	t.p.Flush()
	fanSpan := sp
	if fanSpan == nil {
		fanSpan = t.p.Span()
	}
	results := t.c.boolMbx.get()
	for _, g := range groups[:last] {
		t.c.dispatch(fanTask{span: fanSpan, g: g, serve: serve, boolResults: results})
	}
	allOK := serve(t.p, groups[last])
	for range groups[:last] {
		if !results.Recv(t.p) {
			allOK = false
		}
	}
	t.c.boolMbx.put(results)
	return allOK
}

// Annotate tags the calling process's active trace span (a no-op when
// tracing is off). Layers above use it to mark operations that took a
// batched path without threading the process handle around.
func (t *Txn) Annotate(key, value string) {
	t.p.Span().SetAttr(key, value)
}
