package ndb

import (
	"slices"
	"strconv"

	"hopsfscl/internal/sim"
	"hopsfscl/internal/trace"
)

// This file implements the one read path, built for the primary-key-batched
// path resolution protocol (HopsFS [23] §3.2.2 and the λFS elasticity
// argument): instead of one serial round trip per row, the transaction
// coordinator fans all reads out to their routed replicas in one shot. Rows
// are grouped by target datanode, each group travels as a single
// request/response pair, and the groups proceed concurrently. Each leg is a
// Txn.hop, priced by the one rule every leg of a chain pass is priced by: a
// remote leg costs the sender's SEND job, the wire and the receiver's RECV
// job, and a leg whose two ends are one datanode — a group the TC serves
// itself — is a local signal that costs neither and crosses no wire, but is
// lost, after the RPC timeout, when that datanode is dead. A one-row read
// is a batch of one — NDB's single TCKEYREQ — so every read, point or scan,
// locked or not, takes this path and is routed by routeRow: fully replicated
// tables serve from the TC, Read Backup tables from the replica nearest the
// TC, plain tables from the primary replica — and a get that asks for a row
// lock goes to the primary and takes it there, so a transaction's lock phase
// can ride the same round as its reads (HopsFS takes the lock on a path's
// last component inside the batched primary-key read that resolves it). The
// per-row LDM charges flow through DataNode.use, so the executor batching
// cost model (threads.go) amortizes them exactly as NDB's LDM threads do for
// a multi-row TCKEYREQ train.

// BatchGet names one row of a ReadBatch: a committed point read, lock-free
// unless Lock is set. A locked get is routed to the primary replica and the arm serving it takes the row lock
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
// batch's rows, reads before writes) served by one datanode, plus the
// §IV-A4 proximity of that datanode to the TC. A group with a train
// prepares it — the written rows prepared together down one replica chain,
// whose head is target (two trains can share a head: a fully replicated
// table's chain is longer) — and a group without one reads. rows is
// groupByTarget's counting scratch.
type batchGroup struct {
	target *DataNode
	train  *train
	prox   int
	rows   int
	idx    []int
}

// routeRow is the one §IV-A5 replica choice behind every read — gets, scans
// and each round of a table scan: a locked read goes to the primary whatever the
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

// trainReq is the request size of a group's row train: one request plus the
// key overhead of every further row.
func trainReq(g *batchGroup) int {
	return reqSize + batchRowOverhead*(len(g.idx)-1)
}

// batchKind is what a batch's read rows are, and so what the arm serving a
// read group does for each row. Written rows need no kind: their groups are
// trains.
type batchKind uint8

const (
	getRows   batchKind = iota // ReadBatch, ReadWriteBatch: point reads, lock-free or locked
	scanRows                   // ScanBatch: partition-pruned prefix scans
	scanParts                  // ScanTablePrefix: a prefix scan of a whole partition
)

// ReadBatch reads the committed values of all rows in one batched fan-out,
// returning results positionally. A get with Lock set takes its row lock on
// the way (see BatchGet). The result of a batch of up to eight rows lives in
// the transaction and is valid until its next read, or until InTx returns.
func (t *Txn) ReadBatch(gets []BatchGet) ([]BatchVal, error) {
	if t.done {
		return nil, ErrAborted
	}
	if len(gets) == 0 {
		return nil, nil
	}
	sc := t.c.scratch.get()
	defer t.c.putScratch(sc)
	sc.t, sc.kind = t, getRows
	sc.gets = append(sc.gets[:0], gets...)
	sc.vals = slices.Grow(t.vals[:0], len(gets))[:len(gets)]
	parts := zeroed(&sc.parts, len(gets))
	for i := range gets {
		parts[i] = gets[i].Table.partitionFor(gets[i].PartKey)
	}
	if _, err := t.batch(sc, len(gets), nil); err != nil {
		return nil, err
	}
	return sc.vals, nil
}

// ScanBatch runs all partition-pruned prefix scans in one batched fan-out,
// returning each scan's rows positionally, key-sorted — a level of a subtree
// walk costs one parallel round instead of one serial round trip per
// directory. As with ReadBatch, the outer slice of a batch of up to eight
// scans lives in the transaction until its next read, or until InTx returns.
func (t *Txn) ScanBatch(scans []BatchScan) ([][]KV, error) {
	if t.done {
		return nil, ErrAborted
	}
	if len(scans) == 0 {
		return nil, nil
	}
	sc := t.c.scratch.get()
	defer t.c.putScratch(sc)
	sc.t, sc.kind = t, scanRows
	sc.scans = append(sc.scans[:0], scans...)
	sc.kvs = slices.Grow(t.kvs[:0], len(scans))[:len(scans)]
	parts := zeroed(&sc.parts, len(scans))
	for i := range scans {
		parts[i] = scans[i].Table.partitionFor(scans[i].PartKey)
	}
	if _, err := t.batch(sc, len(scans), nil); err != nil {
		return nil, err
	}
	return sc.kvs, nil
}

// ScanTablePrefix scans every partition of the table for committed rows
// whose key starts with prefix, in key order. It exists for listings whose
// rows are deliberately scattered across partitions (a HopsFS root directory
// listing); it costs one round per partition, in partition order, each a
// one-scan batch over every partition key the partition holds.
func (t *Txn) ScanTablePrefix(table *Table, prefix string) ([]KV, error) {
	if t.done {
		return nil, ErrAborted
	}
	sc := t.c.scratch.get()
	defer t.c.putScratch(sc)
	sc.t, sc.kind = t, scanParts
	sc.scans = append(sc.scans[:0], BatchScan{Table: table, Prefix: prefix})
	sc.kvs = t.kvs[:1]
	var out []KV
	for _, part := range table.partitions {
		zeroed(&sc.parts, 1)[0] = part
		if _, err := t.batch(sc, 1, nil); err != nil {
			return nil, err
		}
		out = append(out, sc.kvs[0]...)
	}
	slices.SortFunc(out, byKey)
	return out, nil
}

// ReadWriteBatch reads gets and executes writes in one batched fan-out, as
// NDB's execute() sends a transaction's reads and writes together: one
// coordinator pass routes every row, the gets' groups are served as
// ReadBatch serves them and the writes' trains prepare as WriteBatch
// prepares them, all concurrently, so the batch costs one round. Results
// are the gets', positionally, and live in the transaction as ReadBatch's
// do. Any failure aborts the transaction as either batch would. A failed
// write leaves every get served, so its values come back with the error:
// the caller can learn what the reads saw — a missing parent, say — before
// it believes the write's refusal. On any other error the values are nil.
// Gets and writes share no arm, so the locks they take come in no order of
// their own. A get's lock is therefore taken only if it can be granted at
// once — the batch never queues for a read lock while its writes may hold
// theirs — and is refused with ErrLockBusy otherwise; a write's lock waits
// as WriteBatch's do, and the caller must know that no other transaction
// holding a row the batch writes waits for a row it locks (DESIGN §9).
// With write batching disabled the batch is ReadBatch and then WriteBatch,
// two rounds, whose gets wait as ReadBatch's do.
func (t *Txn) ReadWriteBatch(gets []BatchGet, writes []BatchWrite) ([]BatchVal, error) {
	if t.done {
		return nil, ErrAborted
	}
	if t.c.cfg.DisableBatchedWrites {
		vals, err := t.ReadBatch(gets)
		if err != nil {
			return nil, err
		}
		return vals, t.WriteBatch(writes)
	}
	sc := t.c.scratch.get()
	defer t.c.putScratch(sc)
	sc.t, sc.kind, sc.noWait = t, getRows, true
	sc.gets = append(sc.gets[:0], gets...)
	sc.vals = slices.Grow(t.vals[:0], len(gets))[:len(gets)]
	parts := zeroed(&sc.parts, len(gets))
	for i := range gets {
		parts[i] = gets[i].Table.partitionFor(gets[i].PartKey)
	}
	if failed, err := t.batch(sc, len(gets), writes); err != nil {
		if failed < len(gets) {
			return nil, err
		}
		return sc.vals, err
	}
	return sc.vals, nil
}

// batch is the one envelope behind every read and write: the first reads
// rows are the ones loaded in sc (their requests and partitions), routed per
// row (see the file comment), and each of writes joins its train
// (WriteBatch); rows sharing a target — and, for writes, a train — travel
// together, and distinct groups are visited concurrently: a read group's arm
// does what sc.kind asks for each row, a train's prepares it. Any failure — an
// unreachable target, a lock timeout or a refused row — aborts the
// transaction, and the first failed row in request order, reads before
// writes, decides the error; failed is that row's index, or -1 when the
// failure is no row's.
func (t *Txn) batch(sc *batchScratch, reads int, writes []BatchWrite) (failed int, err error) {
	t.c.Stats.Rounds++
	// One coordinator pass routes the whole key train (§II-B: a multi-row
	// TCKEYREQ is a single TC job, not one per row).
	t.tc.use(t.p, TC, costTCOp)
	slots := zeroed(&sc.slots, reads)
	// Rows join their trains in request order, so a train's unprepared rows
	// are its group's rows, position for position.
	groups, ok := groupByTarget(sc, reads+len(writes), func(i int) (*DataNode, *train) {
		if i >= reads {
			tr := t.stage(&writes[i-reads])
			if tr == nil {
				return nil, nil
			}
			// Writes lock on the acting primary: the chain's head.
			return tr.chain[0], tr
		}
		var lock LockMode
		if sc.kind == getRows {
			lock = sc.gets[i].Lock
		}
		target, slot := t.routeRow(sc.parts[i], lock)
		slots[i] = slot
		return target, nil
	})
	if !ok {
		return -1, t.failAbort()
	}
	return t.runBatch(sc, groups, reads, len(writes))
}

// serve is the arm of every batch fan-out: it serves one group of sc's batch
// on process p — the caller's own or a pooled worker's — and reports whether
// it succeeded, recording a failure in sc.errs at the row that failed. A
// group with a train prepares it; a read group is one request/response pair
// with its target, whose rows are served in order, and a failure stops the
// group where a sequence of one-row batches would have stopped.
func (sc *batchScratch) serve(p *sim.Proc, g *batchGroup) bool {
	t := sc.t
	if g.train != nil {
		failed, err := t.prepareTrain(p, g.train)
		if err != nil {
			sc.errs[g.idx[failed]] = err
		}
		return err == nil
	}
	if !t.hop(p, t.tc, g.target, trainReq(g)) {
		sc.errs[g.idx[0]] = ErrNodeUnavailable
		return false
	}
	resp := ackSize
	for _, i := range g.idx {
		bytes, err := sc.read(p, g.target, i)
		if err != nil {
			sc.errs[i] = err
			return false
		}
		t.c.Stats.Reads++
		if slot := sc.slots[i]; slot >= 0 {
			sc.parts[i].reads[slot]++
		}
		resp += bytes
	}
	if !t.hop(p, g.target, t.tc, resp) {
		sc.errs[g.idx[0]] = ErrNodeUnavailable
		return false
	}
	return true
}

// read serves row i of a read batch at target: a get takes its row lock if
// it asks for one — conflicts, the ledger and the deadlock timeout are those
// of any locked access, unless the batch takes no lock it would wait for
// (sc.noWait) — so the value is the committed one under the lock;
// a scan charges one LDM job per small batch of rows found, minimum one. It
// stores the row's result and returns its response bytes.
func (sc *batchScratch) read(p *sim.Proc, target *DataNode, i int) (int, error) {
	t, part := sc.t, sc.parts[i]
	if sc.kind == getRows {
		g := &sc.gets[i]
		if g.Lock != 0 {
			if sc.noWait {
				// At the instant the request reaches the row, as lockRowOn
				// takes it.
				p.Flush()
				if !part.grantable(g.PartKey, g.Key, t.id, g.Lock) {
					return 0, ErrLockBusy
				}
			}
			if err := t.lockRowOn(p, part, g.PartKey, g.Key, g.Lock); err != nil {
				return 0, err
			}
		}
		target.use(p, LDM, costLDMRead)
		val, ok := part.committed(g.PartKey, g.Key)
		sc.vals[i] = BatchVal{Val: val, OK: ok}
		return g.Table.rowSize, nil
	}
	s := &sc.scans[i]
	var rows []KV
	if sc.kind == scanRows {
		rows = part.scanPrefix(s.PartKey, s.Prefix)
	} else {
		for pk := range part.rows {
			rows = append(rows, part.scanPrefix(pk, s.Prefix)...)
		}
	}
	for b := 0; b < 1+len(rows)/8; b++ {
		target.use(p, LDM, costLDMRead)
	}
	sc.kvs[i] = rows
	return len(rows) * s.Table.rowSize, nil
}

// runBatch executes the groups of sc's batch — reads read rows, then writes
// written ones — inline when a single group serves everything, concurrently
// otherwise —
// under one "batch_read", "batch_write" or, for both, "batch_read_write"
// child span carrying row/target counts, and counts the fan-out's reads and
// writes each in its own registry family. If any group failed (unreachable
// target, lock failure or refused row) it ends the transaction as a
// sequence of one-row batches would: every lock taken so far — including
// those of groups that succeeded — is released, nothing will commit, and
// the first failed row in request order decides the error (failed, its
// index, is -1 when no row recorded one).
func (t *Txn) runBatch(sc *batchScratch, groups []*batchGroup, reads, writes int) (failed int, err error) {
	rows := reads + writes
	zeroed(&sc.errs, rows)
	obs := t.c.obs
	name := "batch_read"
	switch {
	case reads == 0:
		name = "batch_write"
	case writes > 0:
		name = "batch_read_write"
	}
	sp := t.p.Span().Child(name, t.p.EffNow())
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
		if reads > 0 {
			obs.batchReads.Add(1)
		}
		if writes > 0 {
			obs.batchWrites.Add(1)
		}
		for _, g := range groups {
			g.prox = domainProximity(t.tc.Node, t.tc.Domain, g.target)
			rowsByProx := &obs.batchRows
			if g.train != nil {
				rowsByProx = &obs.batchWriteRows
			}
			rowsByProx[g.prox].Add(int64(len(g.idx)))
		}
	}
	// Concurrent deferred travel: every group starts from the transaction's
	// current effective instant, so the batch's latency is the slowest group,
	// not the sum. The caller is the last arm — it would only wait otherwise —
	// and each other group is a pooled arm handed sc and its group; the join
	// flushes the caller's own arm before counting the others. The join is
	// pooled, so the fan-out itself allocates nothing.
	last := len(groups) - 1
	allOK := true
	if last == 0 {
		allOK = sc.serve(t.p, groups[0])
	} else {
		t.p.Flush()
		fanSpan := sp
		if fanSpan == nil {
			fanSpan = t.p.Span()
		}
		j := t.c.newJoin(t.p, last)
		for _, g := range groups[:last] {
			t.c.dispatch(fanTask{span: fanSpan, sc: sc, g: g, join: j})
		}
		allOK = sc.serve(t.p, groups[last])
		if armsOK, _ := t.c.collect(j); !armsOK {
			allOK = false
		}
	}
	if allOK {
		return 0, nil
	}
	t.abortLocked()
	for i, err := range sc.errs {
		if err != nil {
			return i, err
		}
	}
	return -1, ErrNodeUnavailable
}

// Annotate tags the calling process's active trace span (a no-op when
// tracing is off). Layers above use it to mark operations that took a
// batched path without threading the process handle around.
func (t *Txn) Annotate(key, value string) {
	t.p.Span().SetAttr(key, value)
}
