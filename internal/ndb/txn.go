package ndb

import (
	"slices"
	"sort"
	"strings"
	"time"

	"hopsfscl/internal/sim"
	"hopsfscl/internal/simnet"
	"hopsfscl/internal/trace"
)

// Txn is a transaction coordinated by one datanode's TC thread on behalf of
// an API client (a HopsFS metadata server). The calling process drives the
// protocol; every hop between nodes is a simulated message with latency,
// bandwidth, and CPU accounting.
//
// Isolation follows NDB: read committed by default, with explicit row locks
// for stronger guarantees (§II-B). Locks follow strict two-phase locking
// and are released as the commit chain passes the primary replica — or, for
// a transaction committed by CommitHolding, all at once by Release.
type Txn struct {
	c            *Cluster
	p            *sim.Proc
	id           uint64
	origin       *simnet.Node
	originDomain simnet.ZoneID
	tc           *DataNode

	locks  []lockRef
	trains []*train
	done   bool
	// holding is set by CommitHolding: the commit applies the trains and
	// keeps every lock until Release.
	holding bool

	// vals and kvs hold the result of a ReadBatch or ScanBatch of up to
	// eight rows (and of each round of ScanTablePrefix), so a path's worth
	// of reads returns without allocating; such a result is valid until the
	// transaction's next read, or until Free. lockBuf backs the few locks an
	// operation takes.
	vals    [8]BatchVal
	kvs     [8][]KV
	lockBuf [4]lockRef
	// A mutation's writes nearly always fill one train of one or two rows
	// (a rename within a directory), or two trains of one row each (a rename
	// across directories): train0 and train1, their rows0 and rows1 and
	// trainBuf hold those, so staging them allocates nothing. Further
	// trains, and rows beyond two, spill to the heap.
	train0   train
	train1   train
	rows0    [2]writeOp
	rows1    [2]writeOp
	trainBuf [2]*train
}

// Tx is the storage-transaction surface the metadata layer is written
// against: HopsFS's one transaction template — a lock phase and an execute
// phase (ReadBatch, whose gets may carry row locks, ScanBatch and
// ScanTablePrefix) and an update phase (WriteBatch, Commit); ReadWriteBatch
// runs a lock phase and a write in one round. Each kind of storage work has
// one verb, and a one-row operation is a batch of one.
// *Txn is the implementation; the shard router's dispatcher satisfies it by
// routing each batch, by table, to the *Txn of the owning cluster.
type Tx interface {
	Now() time.Duration
	Annotate(key, value string)
	ReadBatch(gets []BatchGet) ([]BatchVal, error)
	ScanBatch(scans []BatchScan) ([][]KV, error)
	ScanTablePrefix(table *Table, prefix string) ([]KV, error)
	WriteBatch(items []BatchWrite) error
	ReadWriteBatch(gets []BatchGet, writes []BatchWrite) ([]BatchVal, error)
	Commit() error
	Abort()
	// Free returns the ended transaction to its pool; only InTx calls it.
	Free()
}

// InTx runs fn inside the transaction a Begin call just opened — Begin's two
// results are InTx's first two arguments — and ends it: aborted when fn
// fails, committed otherwise. It is the one place the begin → execute →
// abort-or-commit shape is written; T lets cluster-local callers keep
// *Txn's wider method set. InTx owns the transaction from begin to end, so
// it alone frees it: once ended, the transaction goes back to its pool for
// the next Begin, and nothing fn read through it — a ReadBatch or ScanBatch
// result — may be used after InTx returns. A transaction from a bare Begin is
// never recycled.
func InTx[T Tx](tx T, beginErr error, fn func(T) error) error {
	if beginErr != nil {
		return beginErr
	}
	err := fn(tx)
	if err != nil {
		tx.Abort()
	} else {
		err = tx.Commit()
	}
	tx.Free()
	return err
}

type lockRef struct {
	part *Partition
	pk   string
	key  string
}

type writeOp struct {
	part     *Partition
	pk       string
	key      string
	val      Value
	del      bool
	ifAbsent bool
	// edit marks val as the row's Editor until the head has applied it.
	edit bool
}

// train is the transaction's rows that share one replica chain: the unit of
// the commit protocol. A write joins the train of its chain — two rows share
// one iff their partitions resolve to the same replica datanodes in the same
// order (fully replicated rows compare their full chain) and agree on Read
// Backup, exactly the condition under which one linear 2PC pass can carry
// both — and is prepared on that chain as it executes (prepareTrain), so
// rows[:prepared] hold their exclusive locks and sit REDO-logged on every
// replica of chain. Commit walks the remaining passes over the same chain.
type train struct {
	chain      []*DataNode
	readBackup bool
	rows       []writeOp
	prepared   int
}

// reqSize/ackSize are nominal wire sizes of protocol messages.
const (
	reqSize = 128
	ackSize = 64
)

// Begin starts a transaction from the given origin node (with the origin's
// LocationDomainId), using table and partKey as the distribution-aware hint
// for transaction-coordinator selection (§IV-A5). A nil table or empty
// partKey is the no-hint fallback (case 4).
func (c *Cluster) Begin(p *sim.Proc, origin *simnet.Node, originDomain simnet.ZoneID, table *Table, partKey string) (*Txn, error) {
	tc := c.selectTC(origin, originDomain, table, partKey)
	if tc == nil {
		return nil, ErrNoNodes
	}
	if sp := p.Span(); c.obs != nil || sp != nil {
		d := domainProximity(origin, originDomain, tc)
		if c.obs != nil {
			c.obs.tcSelect[d].Add(1)
		}
		sp.SetAttr("tc", tc.Node.Name())
		sp.SetAttr("tc_prox", proximityLabel(d))
	}
	id := c.nextTxnID()
	if !c.net.TravelDeferred(p, origin, tc.Node, reqSize, rpcTimeout) {
		return nil, ErrNodeUnavailable
	}
	t := c.txns.get()
	t.c, t.p, t.id = c, p, id
	t.origin, t.originDomain, t.tc = origin, originDomain, tc
	t.locks, t.trains = t.lockBuf[:0], t.trainBuf[:0]
	if c.activeOps != nil {
		// Name the transaction after the client op driving it (the process
		// name for untraced internal work), so the contention ledger can
		// label both sides of a wait-for edge.
		op := p.Span().OpName()
		if op == "" {
			op = p.Name()
		}
		c.activeOps[t.id] = op
	}
	tc.recv(p)
	tc.use(p, TC, costTCBegin)
	c.Stats.Begun++
	return t, nil
}

// Free returns a transaction that has ended — committed, aborted or
// released — to its cluster's pool for Begin to reuse, zeroed, so the pooled
// Txn keeps no value, row, scan result or span reachable. Freeing an open
// transaction — one CommitHolding committed and Release has not ended
// included — panics.
func (t *Txn) Free() {
	if !t.done {
		panic("ndb: Free of an open transaction")
	}
	c := t.c
	*t = Txn{}
	c.txns.put(t)
}

func (c *Cluster) nextTxnID() uint64 {
	c.txnSeq++
	return c.txnSeq
}

// selectTC implements the four-case AZ-aware coordinator selection policy
// of §IV-A5. Ties are broken by the candidate order (primary replica first,
// as NDB's distribution awareness orders them), then randomly among nodes
// of equal proximity to spread coordination load.
func (c *Cluster) selectTC(origin *simnet.Node, originDomain simnet.ZoneID, table *Table, partKey string) *DataNode {
	var candidates []*DataNode
	switch {
	case table != nil && partKey != "" && table.opts.FullyReplicated:
		// Case 2: a replica exists on every node; use them all.
		candidates = c.datanodes
	case table != nil && partKey != "":
		// Cases 1 and 3: the nodes holding the hinted partition,
		// primary replica first.
		candidates = table.partitionFor(partKey).replicas()
	default:
		// Case 4: no usable hint; all datanodes by proximity.
		candidates = c.datanodes
	}
	// The pool is the alive candidates of the best proximity, in candidate
	// order: count it, then walk to the member drawn.
	best, pool := ProximityRemote+1, 0
	var first *DataNode
	for _, dn := range candidates {
		if d := domainProximity(origin, originDomain, dn); dn.Alive() && d <= best {
			if d < best {
				best, pool, first = d, 0, dn
			}
			pool++
		}
	}
	if pool <= 1 || best == ProximityRemote {
		// No choice, or no locality information distinguishes the pool:
		// NDB prefers the first candidate (the primary replica under
		// distribution awareness).
		return first
	}
	k := c.env.Rand().Intn(pool)
	for _, dn := range candidates {
		if dn.Alive() && domainProximity(origin, originDomain, dn) == best {
			if k--; k < 0 {
				return dn
			}
		}
	}
	panic("ndb: TC pool changed while selecting")
}

// Proximity distances mirror simnet's but operate on configured location
// domains, not physical zones: an unconfigured deployment gets no locality.
const (
	ProximitySameHost = simnet.ProximitySameHost
	ProximitySameZone = simnet.ProximitySameZone
	ProximityRemote   = simnet.ProximityRemote
)

// domainProximity is the §IV-A4 score between a caller (its node and
// configured domain) and a datanode, using LocationDomainIds.
func domainProximity(origin *simnet.Node, originDomain simnet.ZoneID, dn *DataNode) int {
	if origin.Host() == dn.Node.Host() && originDomain == dn.Domain && originDomain != simnet.ZoneUnset {
		return ProximitySameHost
	}
	if originDomain != simnet.ZoneUnset && originDomain == dn.Domain {
		return ProximitySameZone
	}
	return ProximityRemote
}

// Now returns the executing process's current virtual time, so callers can
// timestamp derived observations (heat touches) without holding the proc.
func (t *Txn) Now() time.Duration { return t.p.Now() }

// heatTouch attributes one row access to the accessed partition in the
// cluster's heat collector; a no-op for uninstrumented clusters.
func (t *Txn) heatTouch(part *Partition) {
	if t.c.heat != nil {
		t.c.heat.TouchPartition(t.p.Now(), part.table.name, part.index)
	}
}

// HasWrites reports whether the transaction has staged any writes; the
// shard router uses it to pick between the single-cluster fast path and
// the cross-shard intent protocol.
func (t *Txn) HasWrites() bool { return len(t.trains) > 0 }

// StagedWrites calls fn for every write staged so far, train by train: rows
// sharing a replica chain in the order they were written, trains in the order
// their first row was. Two writes of one row land on one chain, so they keep
// their order. The shard router serializes these into a durable intent record
// before committing a cross-shard transaction, so a crash between the
// per-shard commits leaves enough to finish or undo the operation.
func (t *Txn) StagedWrites(fn func(table *Table, partKey, key string, val Value, del bool)) {
	for _, tr := range t.trains {
		for _, w := range tr.rows {
			fn(w.part.table, w.pk, w.key, w.val, w.del)
		}
	}
}

// KV is one row returned by a scan.
type KV struct {
	Key string
	Val Value
}

// stage appends one write to the train of its replica chain, opening a train
// when no existing one walks that chain, and returns it; nil means the row's
// whole node group is down. With write batching disabled every row opens its
// own train: the one-chain-per-row reference protocol.
func (t *Txn) stage(w *BatchWrite) *train {
	part := w.Table.partitionFor(w.PartKey)
	t.heatTouch(part)
	chain := part.chainOf(t.tc)
	if len(chain) == 0 {
		return nil
	}
	readBackup := w.Table.opts.ReadBackup
	var tr *train
	if !t.c.cfg.DisableBatchedWrites {
		for _, have := range t.trains {
			if have.readBackup == readBackup && slices.Equal(have.chain, chain) {
				tr = have
				break
			}
		}
	}
	if tr == nil {
		switch len(t.trains) {
		case 0:
			tr = &t.train0
			tr.rows = t.rows0[:0]
		case 1:
			tr = &t.train1
			tr.rows = t.rows1[:0]
		default:
			tr = &train{}
		}
		tr.chain, tr.readBackup = chain, readBackup
		t.trains = append(t.trains, tr)
	}
	tr.rows = append(tr.rows, writeOp{part: part, pk: w.PartKey, key: w.Key, val: w.Val, del: w.Del, ifAbsent: w.IfAbsent, edit: w.Edit})
	return tr
}

// phaseSpans instruments the 2PC passes one process walks for one train:
// each pass gets a child span of the caller's (detailed mode only) and a
// registry timing, back to back from the instant the walk began. Hops made
// while a phase span is installed are attributed to both the phase and the
// operation's root.
type phaseSpans struct {
	obs    *clusterObs
	p      *sim.Proc
	parent *trace.Span
	span   *trace.Span
	idx    int
	start  time.Duration
}

func (t *Txn) phases(p *sim.Proc) phaseSpans {
	return phaseSpans{obs: t.c.obs, p: p, parent: p.Span(), start: p.EffNow()}
}

func (ph *phaseSpans) begin(idx int) {
	ph.idx = idx
	ph.span = ph.parent.Child(phaseNames[idx], ph.start)
	if ph.span != nil {
		ph.p.SetSpan(ph.span)
	}
}

// end closes a pass that ran to completion and times it.
func (ph *phaseSpans) end() {
	now := ph.p.EffNow()
	ph.span.Finish(now)
	if ph.obs != nil {
		ph.obs.phase[ph.idx].Observe(now - ph.start)
	}
	ph.span = nil
	ph.start = now
}

// close is deferred by the walker: an error return leaves the active phase
// open, so close it — sink trees then render consistently — and restore the
// caller's span.
func (ph *phaseSpans) close() {
	ph.span.Finish(ph.p.EffNow())
	ph.p.SetSpan(ph.parent)
}

// hop carries one signal of the transaction from one datanode to another,
// and every datanode-to-datanode leg goes through it: both legs of a read
// group, each hop of a Prepare or Commit pass, a head's refusal, both legs
// of an awaited Complete. A remote signal costs the sender's SEND job, the
// wire and the receiver's RECV job. A local signal — its two ends one
// datanode, as when the TC serves a read or is a replica of the chain —
// charges neither thread and crosses no wire, and is delivered only if the
// node is alive: at a dead one it costs the RPC timeout, as a lost message
// does. It reports false when the signal was lost.
func (t *Txn) hop(p *sim.Proc, from, to *DataNode, bytes int) bool {
	if from == to {
		if !to.Alive() {
			p.Defer(rpcTimeout)
			return false
		}
		t.c.Stats.LocalSignals++
		return true
	}
	from.send(p)
	if !t.c.net.TravelDeferred(p, from.Node, to.Node, bytes, rpcTimeout) {
		return false
	}
	to.recv(p)
	return true
}

// prepareTrain runs the Prepare pass of Figure 2 for the train's rows that
// are not prepared yet: TC -> primary -> backups -> ..., the last replica
// answering Prepared to the TC. One message per hop carries the combined row
// payload; the LDM work and REDO volume stay per row. The chain's head takes
// every row's exclusive lock as the request reaches it — per row through
// lockRowOn, so conflicts, the contention ledger, lock-wait spans and the
// deadlock timeout are those of any locked access — and checks the row
// there (checkAtHead); a failure stops the pass where a sequence of one-row
// batches would have stopped, returning the failed row's position among the
// rows being prepared. The pre-images the train's edited deletes return go
// back to the TC from the head in one message, unless the head is the TC or
// the chain's only replica, whose Prepared answer carries them.
func (t *Txn) prepareTrain(p *sim.Proc, tr *train) (failed int, err error) {
	rows := tr.rows[tr.prepared:]
	trainBytes := reqSize + batchRowOverhead*(len(rows)-1)
	for i := range rows {
		trainBytes += rows[i].part.table.rowSize
	}
	ph := t.phases(p)
	defer ph.close()
	ph.begin(phasePrepare)
	prev := t.tc
	for pos, dn := range tr.chain {
		if !t.hop(p, prev, dn, trainBytes) {
			return 0, ErrNodeUnavailable
		}
		if pos == 0 {
			preImages := 0
			for i := range rows {
				w := &rows[i]
				if err := t.lockRowOn(p, w.part, w.pk, w.key, LockExclusive); err != nil {
					return i, err
				}
				if w.ifAbsent || w.edit {
					back, err := t.checkAtHead(p, dn, w)
					if err != nil {
						return i, err
					}
					if back {
						preImages += w.part.table.rowSize
					}
				}
				dn.use(p, LDM, costLDMWrite)
				t.c.Stats.Writes++
			}
			if preImages > 0 && dn != t.tc && len(tr.chain) > 1 {
				// The TC needs the pre-images before the Prepared answer,
				// which trails them by at least one hop: nothing waits on
				// this message, and it is charged to RECV where it arrives.
				dn.send(p)
				p.Span().RecordHop(simnet.HopClassOf(dn.Node, t.tc.Node), ackSize+preImages, 0)
				t.c.net.Send(dn.Node, t.tc.Node, ackSize+preImages, t.tc.onSignal)
			}
		}
		for i := range rows {
			dn.use(p, LDM, costLDMPrepare)
			dn.redoPending += int64(rows[i].part.table.rowSize)
		}
		prev = dn
	}
	if !t.hop(p, prev, t.tc, ackSize) {
		return 0, ErrNodeUnavailable
	}
	ph.end()
	tr.prepared = len(tr.rows)
	return 0, nil
}

// checkAtHead checks a conditional row at the chain's head, under the
// exclusive lock just granted — so at the flushed virtual instant, against
// a value no other transaction can change any more. An insert (ifAbsent)
// passes on an absent row; an edit reads the committed value (one LDMRead)
// and passes when there is one and its Editor accepts it, an update taking
// the edited value as the one it prepares; back reports an edited delete
// whose Editor returned the pre-image for the TC. A refused row has been
// looked up the same way; nothing is written or passed down the chain, and
// the head answers the TC itself with the refusal.
func (t *Txn) checkAtHead(p *sim.Proc, dn *DataNode, w *writeOp) (back bool, err error) {
	committed, exists := w.part.committed(w.pk, w.key)
	if !w.edit && !exists {
		return false, nil
	}
	dn.use(p, LDM, costLDMRead)
	switch {
	case !w.edit:
		err = ErrRowExists
	case !exists:
		err = ErrRowAbsent
	default:
		var val Value
		if val, err = w.val.(Editor).Edit(committed); err == nil {
			if w.del {
				back, val = val != nil, nil
			}
			w.val, w.edit = val, false
			return back, nil
		}
	}
	if !t.hop(p, dn, t.tc, ackSize) {
		return false, ErrNodeUnavailable
	}
	return false, err
}

// Commit finishes the NDB commit protocol (§II-B2, Figure 2) over the trains
// the transaction's writes built and prepared: per train a Commit pass in
// reverse chain order, committing at the primary, then the Complete pass. A
// multi-row transaction on one chain therefore costs one Commit/Complete pass
// instead of one per row. For Read Backup tables the client Ack is delayed
// until every backup has acknowledged the Complete phase (§IV-A3); for fully
// replicated tables the chain covers every node group. A read-only
// transaction has no trains: it releases its locks and acks at once.
func (t *Txn) Commit() error {
	if t.done {
		return ErrAborted
	}
	err := t.commitTrains()
	t.releaseAll()
	t.finish(err == nil || err == ErrIndeterminate)
	if err != nil {
		// Atomic abort: a multi-train commit applies nothing until every
		// train has succeeded, so a failure in any train — e.g. a partition
		// landing mid-2PC — leaves no half-commit. ErrIndeterminate is no
		// abort: the primary applied the transaction.
		return err
	}
	return t.ack()
}

// CommitHolding commits as Commit does — the same passes, the same Ack —
// but keeps every lock the transaction holds, its written rows' included,
// until Release, and until then a lock-free read still sees each written
// row's pre-image (see row). It is how transactions that must commit
// together, the shard router's sub-transactions of one operation, hold
// every lock until the last of them has committed, and show their rows
// together. On an error the transaction has ended and holds nothing; on
// ErrIndeterminate it ended committed, as Release ends it.
func (t *Txn) CommitHolding() error {
	if t.done {
		return ErrAborted
	}
	t.holding = true
	if err := t.commitTrains(); err != nil {
		t.releaseAll()
		t.finish(err == ErrIndeterminate)
		return err
	}
	if err := t.ack(); err != nil {
		t.Release()
		return err
	}
	return nil
}

// Release releases the locks of a transaction CommitHolding committed and
// ends it: the rows it applied become what every read sees. Like Abort, it
// sends no message.
func (t *Txn) Release() {
	if t.done {
		return
	}
	t.releaseAll()
	t.finish(true)
}

// ack is the commit's Ack to the API client (message 10 of Figure 2, or 14
// under Read Backup — the timing difference is already inside commitTrain).
// A lost Ack of a transaction that wrote leaves it committed, unknown to
// its client.
func (t *Txn) ack() error {
	t.tc.send(t.p)
	if !t.c.net.TravelDeferred(t.p, t.tc.Node, t.origin, ackSize, rpcTimeout) {
		if t.HasWrites() {
			return ErrIndeterminate
		}
		return ErrNodeUnavailable
	}
	return nil
}

// commitTrains commits every train and makes the transaction's rows visible
// at one instant. A train commits only on the chain it was prepared on: if a
// row's partition no longer resolves to that chain — a replica failed, a
// primary was promoted, a node rejoined since the write — some replica of
// today's chain holds no prepared copy, so the commit fails with
// ErrNodeUnavailable before anything is applied and the caller's retry runs
// the transaction again: the abort-and-retry rule for a failed coordinator
// (DESIGN §6), applied to a participant.
func (t *Txn) commitTrains() error {
	for _, tr := range t.trains {
		for i := range tr.rows {
			if !slices.Equal(tr.rows[i].part.chainOf(t.tc), tr.chain) {
				return ErrNodeUnavailable
			}
		}
	}
	switch len(t.trains) {
	case 0:
		return nil
	case 1:
		// A one-train transaction is trivially atomic: the chain applies
		// every row at its commit point, as in Figure 2.
		t.chargeCommit(t.trains[0])
		err := t.commitTrain(t.p, t.trains[0], true)
		t.p.Flush()
		return err
	}
	// Trains commit in parallel; sub-processes must start from the
	// transaction's current effective instant. Worker arms inherit the
	// transaction's span so their network hops and phase timings stay
	// attributed to the operation.
	t.p.Flush()
	j := t.c.newJoin(t.p, len(t.trains))
	for _, tr := range t.trains {
		t.chargeCommit(tr)
		t.c.dispatch(fanTask{span: t.p.Span(), txn: t, train: tr, join: j})
	}
	if _, err := t.c.collect(j); err != nil {
		return err
	}
	// Atomic commit point: every train committed its replicas; the rows of
	// the whole transaction become visible at one instant, under the locks
	// still held.
	t.p.Flush()
	for _, tr := range t.trains {
		tr.apply(t)
	}
	return nil
}

// chargeCommit counts a train entering its Commit pass and charges the TC
// one commit-row job per row, regardless of how rows are packed into trains.
func (t *Txn) chargeCommit(tr *train) {
	if obs := t.c.obs; obs != nil {
		obs.commitTrains.Add(1)
		obs.trainRows.Observe(time.Duration(len(tr.rows)))
	}
	for range tr.rows {
		t.tc.use(t.p, TC, costTCCommitRow)
	}
}

// apply makes the train's rows t's committed values and, unless t keeps its
// locks until Release, releases their locks.
func (tr *train) apply(t *Txn) {
	for i := range tr.rows {
		tr.rows[i].part.apply(&tr.rows[i], t.id, !t.holding)
	}
}

// commitTrain runs the Commit and Complete passes of Figure 2 for one
// prepared train, returning when the TC may count the train as committed
// (after Committed, or after all Completed messages under Read Backup). The
// pass structure is per train — one message per hop per phase — while the LDM
// work stays per row. applyNow selects whether the train applies its rows
// itself at the commit point (single-train transactions) or leaves them for
// the caller to apply once every train of the transaction has succeeded
// (multi-train atomicity under mid-flight failures). A train that applied
// has committed whatever is lost after: a failed Complete arm is no
// failure, and a lost Committed is ErrIndeterminate.
func (t *Txn) commitTrain(p *sim.Proc, tr *train, applyNow bool) error {
	ph := t.phases(p)
	defer ph.close()
	// Commit pass in reverse order: the primary replica (chain head) is the
	// commit point; it applies the mutation and releases the row locks. Its
	// first message goes to the chain's last replica — the Prepare pass ran
	// when the rows were written.
	ph.begin(phaseCommit)
	prev := t.tc
	for i := len(tr.chain) - 1; i >= 0; i-- {
		dn := tr.chain[i]
		if !t.hop(p, prev, dn, ackSize) {
			return ErrNodeUnavailable
		}
		for range tr.rows {
			dn.use(p, LDM, costLDMCommit)
		}
		prev = dn
	}
	// Synchronize with the virtual clock before the commit point: the
	// primary applies the train's mutations and releases their row locks at
	// the instant the Commit message actually reaches it. Multi-train
	// transactions defer the apply to the transaction-wide commit point.
	p.Flush()
	lost := ErrNodeUnavailable
	if applyNow {
		tr.apply(t)
		lost = ErrIndeterminate
	}
	if !t.hop(p, prev, t.tc, ackSize) {
		return lost
	}
	ph.end()
	// Complete pass: release backup-side resources. Without Read Backup
	// the TC does not wait for the Completed responses (the paper's short
	// staleness window on backups); with Read Backup it must (§IV-A3).
	backups := tr.chain[1:]
	if len(backups) == 0 {
		return nil
	}
	if !tr.readBackup {
		// Fire-and-forget Completes go through Send: each charges its
		// backup's RECV where it arrives, and no process carries it, so
		// simnet can only count it in the global net.* metrics. Record them
		// on the active span too, with zero wire time since they are off the
		// Ack's critical path, so per-op attribution and the commit-phase
		// profile do not under-count. The TC's own replica takes its
		// Complete as a local signal.
		for _, dn := range backups {
			if dn == t.tc { // alive: it just took the Committed answer
				t.c.Stats.LocalSignals++
				continue
			}
			t.tc.send(p)
			p.Span().RecordHop(simnet.HopClassOf(t.tc.Node, dn.Node), ackSize, 0)
			t.c.net.Send(t.tc.Node, dn.Node, ackSize, dn.onSignal)
		}
		return nil
	}
	ph.begin(phaseComplete)
	// The Complete fan-out runs as pooled arms; synchronize them with the
	// parent's effective instant first.
	p.Flush()
	// The fan-out charges the complete-phase span when detailed, else the
	// transaction's span.
	fanSpan := ph.span
	if fanSpan == nil {
		fanSpan = ph.parent
	}
	j := t.c.newJoin(p, len(backups))
	for _, dn := range backups {
		t.c.dispatch(fanTask{span: fanSpan, txn: t, backup: dn, join: j})
	}
	if allOK, _ := t.c.collect(j); !allOK && !applyNow {
		return ErrNodeUnavailable
	}
	ph.end()
	return nil
}

// complete is one arm of the awaited Complete pass: TC -> backup -> TC.
func (t *Txn) complete(p *sim.Proc, dn *DataNode) bool {
	if !t.hop(p, t.tc, dn, ackSize) {
		return false
	}
	dn.use(p, LDM, costLDMCommit)
	return t.hop(p, dn, t.tc, ackSize)
}

// Abort releases all locks and discards the transaction's writes. Rows
// already prepared send no Abort signal down their chain — the replicas hold
// no state for them beyond the REDO bytes already counted — so an abort costs
// no message.
func (t *Txn) Abort() {
	if t.done {
		return
	}
	t.releaseAll()
	t.finish(false)
}

// failAbort aborts and reports the unavailable-node error.
func (t *Txn) failAbort() error {
	t.Abort()
	return ErrNodeUnavailable
}

// abortLocked aborts after a lock acquisition failure.
func (t *Txn) abortLocked() {
	t.releaseAll()
	t.finish(false)
}

func (t *Txn) finish(committed bool) {
	t.done = true
	delete(t.c.activeOps, t.id)
	if committed {
		t.c.Stats.Committed++
	} else {
		t.c.Stats.Aborted++
	}
}

// lockRowOn acquires a row lock with the deadlock-detection timeout on the
// process walking the request: the transaction's own, or one arm of a batch
// fan-out — arms block on their own clocks while sharing the transaction's
// lock set (appends are safe under the cooperative kernel: exactly one
// process runs at a time). The process's deferred delay is flushed first so
// the lock is taken at the correct virtual instant.
func (t *Txn) lockRowOn(p *sim.Proc, part *Partition, pk, key string, mode LockMode) error {
	p.Flush()
	r := part.getRow(pk, key)
	obs := t.c.obs
	if obs != nil {
		obs.lockAcq.Add(1)
	}
	if r.lock.acquire(p, t.id, mode) {
		t.locks = append(t.locks, lockRef{part: part, pk: pk, key: key})
		return nil
	}
	// Contended: park until granted or the deadlock-detection timeout.
	// The blocker is identified now, while it still holds the lock (by the
	// time the wait resolves it may have finished and vanished).
	var holderOp string
	if t.c.ledger != nil {
		holderOp = t.c.opFor(r.lock.blockerOf(t.id))
	}
	start := p.Now()
	ls := p.Span().Child("lock_wait", start)
	ok := p.WaitFor(lockTimeout)
	wait := p.Now() - start
	if obs != nil {
		obs.lockWait.Observe(wait)
	}
	if t.c.ledger != nil {
		table := part.table.name
		t.c.ledger.record(table, holderOp, t.c.opFor(t.id), mode, wait, !ok)
		obs.contention(table, holderOp, t.c.opFor(t.id), wait)
	}
	if !ok {
		ls.SetAttr("timeout", "true")
		ls.Finish(p.Now())
		r.lock.removeWaiter(t.id)
		// The grant may have raced the timeout within the same instant.
		if r.lock.held(t.id) != 0 {
			r.lock.release(t.id)
			part.cleanRow(pk, key, r)
		}
		return ErrLockTimeout
	}
	ls.Finish(p.Now())
	t.locks = append(t.locks, lockRef{part: part, pk: pk, key: key})
	return nil
}

// releaseAll releases every lock the transaction holds and clears the
// marks of the rows it holds (see row). A shared lock whose row's primary
// is not the TC is dropped there with no message: Stats counts it.
func (t *Txn) releaseAll() {
	for _, lr := range t.locks {
		r := lr.part.lookup(lr.pk, lr.key)
		if r == nil {
			continue
		}
		switch r.lock.held(t.id) {
		case LockExclusive:
			if r.held {
				r.held, r.pre, r.preExists = false, nil, false
				lr.part.rows[lr.pk].sorted = nil
			}
		case LockShared:
			if reps := lr.part.replicas(); len(reps) > 0 && reps[0] != t.tc {
				t.c.Stats.UnpricedReleases++
			}
		}
		r.lock.release(t.id)
		lr.part.cleanRow(lr.pk, lr.key, r)
	}
	t.locks = nil
}

// scanPrefix returns committed rows of one partition-key bucket with the
// given key prefix, key-sorted: a window of the bucket's snapshot, capped so
// that a caller's append copies instead of writing into the snapshot.
func (p *Partition) scanPrefix(pk, prefix string) []KV {
	b := p.rows[pk]
	if b == nil {
		return nil
	}
	s := b.snapshot()
	lo := sort.Search(len(s), func(i int) bool { return s[i].Key >= prefix })
	hi := lo + sort.Search(len(s)-lo, func(i int) bool { return !strings.HasPrefix(s[lo+i].Key, prefix) })
	return s[lo:hi:hi]
}

// byKey orders scanned rows by key. A row is addressed by (partition key,
// key), and a key is unique only within its partition key: that is all a
// bucket's snapshot needs, and a scan across partition keys
// (ScanTablePrefix) asks for a prefix whose keys are unique in the table.
func byKey(a, b KV) int { return strings.Compare(a.Key, b.Key) }

// grantable reports whether txn would be granted mode on the row at once:
// it holds the lock at that strength already, or nothing queues for the row
// and no holder conflicts.
func (p *Partition) grantable(pk, key string, txn uint64, mode LockMode) bool {
	r := p.lookup(pk, key)
	return r == nil || r.lock.held(txn) >= mode || (len(r.lock.waiters) == 0 && r.lock.compatible(txn, mode))
}

// lookup returns a row, nil when the partition holds none under pk/key.
func (p *Partition) lookup(pk, key string) *row {
	if b := p.rows[pk]; b != nil {
		return b.rows[key]
	}
	return nil
}

// committed returns the value a read of a row sees: the committed value,
// or a held row's pre-image (see row).
func (p *Partition) committed(pk, key string) (Value, bool) {
	r := p.lookup(pk, key)
	if r == nil {
		return nil, false
	}
	return r.visible()
}

// bucketOf returns pk's bucket, creating it empty.
func (p *Partition) bucketOf(pk string) *bucket {
	b, ok := p.rows[pk]
	if !ok {
		b = &bucket{rows: make(map[string]*row)}
		p.rows[pk] = b
	}
	return b
}

// getRow returns the row, creating a placeholder for lock acquisition if
// the row does not exist yet (insert path).
func (p *Partition) getRow(pk, key string) *row { return p.bucketOf(pk).row(key, &p.table.c.rows) }

// apply makes a staged write the committed value, logging the row's
// pre-image for a whole-cluster restart, and releases txn's lock on the row
// when release is set; a row whose lock is kept is held (see row), its
// first pre-image kept, until releaseAll.
func (p *Partition) apply(w *writeOp, txn uint64, release bool) {
	c := p.table.c
	b := p.bucketOf(w.pk)
	r := b.row(w.key, &c.rows)
	c.undo = append(c.undo, preImage{p, w.pk, w.key, r.val, r.exists})
	if !release && !r.held {
		r.held, r.pre, r.preExists = true, r.val, r.exists
	}
	if w.del {
		r.exists = false
		r.val = nil
	} else {
		r.exists = true
		r.val = w.val
	}
	b.sorted = nil
	if release {
		r.lock.release(txn)
	}
	p.cleanRow(w.pk, w.key, r)
}

// cleanRow drops a row that holds no committed value and carries no lock
// state — a deleted row, or a placeholder that never materialized — and
// hands its storage to the next insert, as NDB reuses a deleted row's slot
// in its preallocated pages. Reuse is safe because nothing keeps a *row
// once its lock is idle: a process holds one across a park only while it
// waits in the row's lock queue, which keeps the row out of the pool, and
// the undo log, scan snapshots and lockRefs hold values and keys.
func (p *Partition) cleanRow(pk, key string, r *row) {
	if !r.exists && r.lock.idle() {
		delete(p.rows[pk].rows, key)
		*r = row{}
		p.table.c.rows.put(r)
	}
}
