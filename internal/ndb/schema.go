package ndb

import (
	"slices"

	"hopsfscl/internal/sim"
)

// TableOptions are the per-table features of §IV-A3.
type TableOptions struct {
	// ReadBackup delays the commit Ack until all backup replicas have
	// completed, making read-committed reads consistent on every replica.
	// HopsFS-CL enables it for all tables (§IV-A5).
	ReadBackup bool
	// FullyReplicated keeps a replica of every partition on every
	// datanode, trading slower writes for AZ-local reads everywhere.
	FullyReplicated bool
}

// Value is a stored row value. Values must be treated as immutable by
// callers: store a fresh value instead of mutating one read back.
type Value any

// Table is a distributed table: rows keyed by (partition key, row key).
type Table struct {
	c          *Cluster
	name       string
	rowSize    int
	opts       TableOptions
	partitions []*Partition
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Cluster returns the cluster that owns the table; the shard router uses
// it to group batch items by the shard their table lives on.
func (t *Table) Cluster() *Cluster { return t.c }

// Options returns the table's feature flags.
func (t *Table) Options() TableOptions { return t.opts }

// Partitions returns the table's partitions (index order).
func (t *Table) Partitions() []*Partition { return t.partitions }

// partitionFor maps a partition key to its partition.
func (t *Table) partitionFor(partKey string) *Partition {
	return t.partitions[hashKey(partKey, len(t.partitions))]
}

// PartitionOf returns the partition the partition key key, in byte form,
// maps to. It keeps nothing of key, so a caller may build key in a stack
// buffer and compare partitions by pointer without allocating.
func (t *Table) PartitionOf(key []byte) *Partition {
	return t.partitions[hashKey(key, len(t.partitions))]
}

// PrimaryFor returns the current primary replica datanode of the partition
// holding partKey, or nil when the whole node group is down. Benchmarks use
// it to pick partition keys with a known client/primary zone relationship.
func (t *Table) PrimaryFor(partKey string) *DataNode {
	reps := t.partitionFor(partKey).replicas()
	if len(reps) == 0 {
		return nil
	}
	return reps[0]
}

// Partition is one horizontal fragment of a table, owned by a node group.
// The primary replica serves locked reads and heads the commit chain;
// backups are readable under Read Backup. Row data is held once (replicas
// converge at commit; the staleness window is enforced by routing rules,
// not by duplicate storage).
type Partition struct {
	table   *Table
	index   int
	group   int
	primary int // index into the node group's slice
	// rows buckets by partition key: all rows of one partition key (e.g.
	// one directory's children) live in one bucket, so partition-pruned
	// scans touch only the relevant bucket. Within a bucket the row key
	// picks the row; two buckets may hold the same key.
	rows map[string]*bucket

	// reads counts served reads per replica slot (0 = current primary's
	// slot at read time) — the Figure 14 measurement.
	reads []int64

	// repCache memoizes replicas() for the topology epoch repEpoch: the
	// alive-replica list only changes when a node fails, recovers, is shut
	// down, or the primary is promoted, all of which bump an epoch.
	repCache []*DataNode
	repEpoch uint64
	// chain and moved memoize chainOf for the same epoch: chain is the chain
	// in replica order (repCache itself unless the table is fully
	// replicated), and moved, built when a transaction coordinated by a
	// middle node of it first asks, the chains with each middle node moved
	// last, back to back.
	chain []*DataNode
	moved []*DataNode
}

// Index returns the partition's index within its table.
func (p *Partition) Index() int { return p.index }

// Group returns the owning node group.
func (p *Partition) Group() int { return p.group }

// ReadCounts returns a copy of per-replica-slot served read counters,
// slot 0 being the primary.
func (p *Partition) ReadCounts() []int64 {
	out := make([]int64, len(p.reads))
	copy(out, p.reads)
	return out
}

// replicas returns the alive replica datanodes for this partition with the
// current primary first, then backups in group order. For fully replicated
// tables the partition is additionally present on all other groups; those
// copies are resolved by the routing code, not listed here.
//
// The list is memoized per topology epoch — it is recomputed only after a
// node liveness or primary change, not per row routed. Callers must treat
// the returned slice as read-only.
func (p *Partition) replicas() []*DataNode {
	c := p.table.c
	epoch := c.topoEpoch + c.net.TopoEpoch()
	if p.repCache != nil && p.repEpoch == epoch {
		return p.repCache
	}
	group := c.groups[p.group]
	// Rebuilds allocate fresh: an in-flight operation may still hold the
	// previous epoch's slice across a park.
	out := make([]*DataNode, 0, len(group))
	for i := 0; i < len(group); i++ {
		dn := group[(p.primary+i)%len(group)]
		if dn.Alive() {
			out = append(out, dn)
		}
	}
	p.repCache, p.repEpoch, p.chain, p.moved = out, epoch, nil, nil
	return out
}

// chainOf returns the replica chain a row of p is prepared and committed on
// by a transaction coordinated by tc, or nil when p's own node group is down:
// p's alive replicas, primary first — and for a fully replicated table
// (§IV-A3) one alive node per other node group, since every datanode holds
// the data. The primary stays first, as the lock head and the commit point;
// a tc that is a later node of the chain, but not its last, is moved to its
// end, so the Prepare pass ends and the Commit pass starts with a local
// signal (DESIGN §10). The chains are memoized with replicas(): callers must
// treat them as read-only.
func (p *Partition) chainOf(tc *DataNode) []*DataNode {
	reps := p.replicas()
	if len(reps) == 0 {
		return nil
	}
	if p.chain == nil {
		p.chain = p.fullChain(reps)
	}
	n := len(p.chain)
	for i := 1; i < n-1; i++ {
		if p.chain[i] != tc {
			continue
		}
		if p.moved == nil {
			p.moved = make([]*DataNode, 0, (n-2)*n)
			for j := 1; j < n-1; j++ {
				p.moved = append(append(append(p.moved, p.chain[:j]...), p.chain[j+1:]...), p.chain[j])
			}
		}
		return p.moved[(i-1)*n : i*n : i*n]
	}
	return p.chain
}

// fullChain extends reps, p's alive replicas, by one alive node per other
// node group when p's table is fully replicated.
func (p *Partition) fullChain(reps []*DataNode) []*DataNode {
	if !p.table.opts.FullyReplicated {
		return reps
	}
	c := p.table.c
	// Copy: replicas() is memoized and must not be appended to.
	chain := make([]*DataNode, len(reps), len(reps)+len(c.groups)-1)
	copy(chain, reps)
	for g := range c.groups {
		if g == p.group {
			continue
		}
		for _, dn := range c.groups[g] {
			if dn.Alive() {
				chain = append(chain, dn)
				break
			}
		}
	}
	return chain
}

// promoteFrom makes the next alive replica primary if the current primary
// is the given failed node.
func (p *Partition) promoteFrom(failed *DataNode) {
	group := p.table.c.groups[p.group]
	if group[p.primary] != failed {
		return
	}
	for i := 1; i < len(group); i++ {
		cand := (p.primary + i) % len(group)
		if group[cand].Alive() {
			p.primary = cand
			p.table.c.topoEpoch++
			return
		}
	}
}

// StoreDirect writes a committed row bypassing the transaction machinery.
// It exists only for bootstrap seeding (e.g. a file system root inode or a
// pre-built benchmark namespace) before any traffic runs. A seeded bucket's
// index is dropped rather than edited, so seeding a large directory costs no
// insert per row; its first scan rebuilds it.
func StoreDirect(t *Table, partKey, key string, val Value) {
	b := t.partitionFor(partKey).bucketOf(partKey)
	r := b.row(key, &t.c.rows)
	r.val = val
	r.exists = true
	b.sorted = nil
}

// bucket holds one partition key's rows by row key, and sorted, an index of
// what a read sees of them — each row's visible value (see row) — in key
// order. The first scan builds the index; from then on every change to a
// visible value edits it in place by binary search (apply, and releaseAll
// for a held row), and only StoreDirect and CrashRestartCluster, which write
// rows outside any transaction, drop it (nil) for the next scan to rebuild.
// Because commits edit the index, a scan copies its window out into storage
// its transaction owns (Txn.scanned), and no result aliases it. Rows that
// never held a committed value come and go (cleanRow) without touching it.
type bucket struct {
	rows   map[string]*row
	sorted []KV
}

// row returns the row under key, taking a placeholder for lock acquisition
// from the free rows if the row does not exist yet (insert path).
func (b *bucket) row(key string, free *freeList[*row]) *row {
	r, ok := b.rows[key]
	if !ok {
		r = free.get()
		b.rows[key] = r
	}
	return r
}

// index returns the bucket's visible rows in key order, building the index
// with one allocation when it has none. The result is the index itself,
// which the next change edits: copy what must outlive it.
func (b *bucket) index() []KV {
	if b.sorted == nil {
		// Never nil once built, even when empty: nil means "not built".
		s := make([]KV, 0, len(b.rows))
		for k, r := range b.rows {
			if val, ok := r.visible(); ok {
				s = append(s, KV{Key: k, Val: val})
			}
		}
		slices.SortFunc(s, byKey)
		b.sorted = s
	}
	return b.sorted
}

// edit brings a built index up to date with what a read now sees of r, the
// row under key: its entry is replaced, inserted or removed, found by binary
// search. An unbuilt index is left for the next scan to build.
func (b *bucket) edit(key string, r *row) {
	if b.sorted == nil {
		return
	}
	i, found := slices.BinarySearchFunc(b.sorted, KV{Key: key}, byKey)
	switch val, ok := r.visible(); {
	case ok && found:
		b.sorted[i].Val = val
	case ok:
		b.sorted = slices.Insert(b.sorted, i, KV{Key: key, Val: val})
	case found:
		b.sorted = slices.Delete(b.sorted, i, i+1)
	}
}

// rowPage is the number of rows a cluster allocates at once, as NDB
// preallocates its row pages (the rows' counterpart of the namenode hint
// cache's hintSlab).
const rowPage = 64

// newRow cuts the next row of the cluster's current page, allocating a page
// when the last is used up. It serves the free rows' misses only: a page's
// rows are handed out once each, and from then on move only through the
// free rows (cleanRow), so no row is handed out twice. A page lives as long
// as any of its rows, which the free rows keep for the cluster's life.
func (c *Cluster) newRow() *row {
	if len(c.page) == 0 {
		c.page = make([]row, rowPage)
	}
	r := &c.page[0]
	c.page = c.page[1:]
	return r
}

// row is one stored row with its lock state. val and exists are its
// committed value. A row that a transaction committed by CommitHolding
// applied is held until that transaction's Release: reads see its
// pre-image (pre, preExists), so a commit that spans clusters shows at one
// instant, the writers' release, and never between its legs. Rows are
// stored once, so the one mark holds at every replica a read is served
// from. Only the holder's exclusive lock covers a held row, so no other
// writer changes it, and a locked read waits out the mark.
type row struct {
	val       Value
	exists    bool
	held      bool
	preExists bool
	pre       Value
	lock      rowLock
}

// visible is what a read sees of the row: the committed value, or the
// pre-image while the row is held.
func (r *row) visible() (Value, bool) {
	if r.held {
		return r.pre, r.preExists
	}
	return r.val, r.exists
}

// LockMode is the strength of a row lock.
type LockMode int

// Lock modes.
const (
	// LockShared allows concurrent shared holders.
	LockShared LockMode = iota + 1
	// LockExclusive allows a single holder.
	LockExclusive
)

// rowLock implements strict two-phase locking per row with FIFO waiters.
// Deadlocks resolve via the waiters' timeouts (the NDB
// TransactionDeadlockDetectionTimeout mechanism).
//
// The holders are a set kept without a map: a row is nearly always held by
// one transaction, which sits inline in holder, and further holders — shared
// ones, since an exclusive hold admits no other — spill into more. holder is
// empty (txn 0; transaction ids start at 1) only when more is too. Where a
// holder sits never matters: compatible asks whether any other holder
// conflicts, and blockerOf takes the lowest id.
type rowLock struct {
	holder  lockHolder
	more    []lockHolder
	waiters []lockWaiter
}

type lockHolder struct {
	txn  uint64
	mode LockMode
}

// lockWaiter is a queued request: txn asks for mode on behalf of p, the
// process parked in WaitFor until pump grants the request and wakes it.
type lockWaiter struct {
	txn  uint64
	mode LockMode
	p    *sim.Proc
}

// find returns txn's holder slot, nil when txn holds no lock on the row.
func (l *rowLock) find(txn uint64) *lockHolder {
	if l.holder.txn == txn {
		return &l.holder
	}
	for i := range l.more {
		if l.more[i].txn == txn {
			return &l.more[i]
		}
	}
	return nil
}

// held returns the mode txn holds the row in, 0 when it holds none.
func (l *rowLock) held(txn uint64) LockMode {
	if h := l.find(txn); h != nil {
		return h.mode
	}
	return 0
}

// idle reports whether the row has neither holders nor waiters.
func (l *rowLock) idle() bool { return l.holder.txn == 0 && len(l.waiters) == 0 }

// admits reports whether the hold h leaves txn free to take mode.
func (h lockHolder) admits(txn uint64, mode LockMode) bool {
	return h.txn == txn || (mode == LockShared && h.mode == LockShared)
}

// compatible reports whether txn may take mode given current holders.
func (l *rowLock) compatible(txn uint64, mode LockMode) bool {
	if l.holder.txn == 0 {
		return true
	}
	if !l.holder.admits(txn, mode) {
		return false
	}
	for _, h := range l.more {
		if !h.admits(txn, mode) {
			return false
		}
	}
	return true
}

// acquire grants txn mode at once and reports true, or queues a waiter for
// p and reports false; the grant, if it comes, wakes p.
func (l *rowLock) acquire(p *sim.Proc, txn uint64, mode LockMode) bool {
	if l.held(txn) >= mode {
		return true // already held at sufficient strength
	}
	if len(l.waiters) == 0 && l.compatible(txn, mode) {
		l.grant(txn, mode)
		return true
	}
	l.waiters = append(l.waiters, lockWaiter{txn: txn, mode: mode, p: p})
	return false
}

func (l *rowLock) grant(txn uint64, mode LockMode) {
	switch h := l.find(txn); {
	case h != nil:
		h.mode = max(h.mode, mode)
	case l.holder.txn == 0:
		l.holder = lockHolder{txn: txn, mode: mode}
	default:
		l.more = append(l.more, lockHolder{txn: txn, mode: mode})
	}
}

// release drops txn's hold and grants as many FIFO waiters as possible.
func (l *rowLock) release(txn uint64) {
	if h := l.find(txn); h != nil {
		// Move the last spilled holder into the vacated slot (a no-op when h
		// is that holder), or empty the inline one.
		if last := len(l.more) - 1; last >= 0 {
			*h = l.more[last]
			l.more = l.more[:last]
		} else {
			*h = lockHolder{}
		}
	}
	l.pump()
}

// removeWaiter drops a timed-out waiter from the queue.
func (l *rowLock) removeWaiter(txn uint64) {
	for i, w := range l.waiters {
		if w.txn == txn {
			l.waiters = slices.Delete(l.waiters, i, i+1)
			break
		}
	}
	l.pump()
}

// blockerOf returns the transaction most plausibly blocking txn, which is
// parked on the row: the lowest-ID current holder other than txn itself,
// else the waiter at the head of the queue. A parked request always has one
// of them: acquire queues it only behind an earlier waiter or a holder that
// conflicts, and a head waiter that no holder blocks is granted at once.
func (l *rowLock) blockerOf(txn uint64) uint64 {
	var best uint64 // 0: none yet
	if l.holder.txn != txn {
		best = l.holder.txn
	}
	for _, h := range l.more {
		if h.txn != txn && (best == 0 || h.txn < best) {
			best = h.txn
		}
	}
	if best == 0 {
		best = l.waiters[0].txn
	}
	return best
}

// pump grants waiters at the head of the queue while compatible. A granted
// waiter's slot is cleared as it leaves: the row outlives the wait, and its
// queue's backing array must not keep the waiting process reachable.
func (l *rowLock) pump() {
	for len(l.waiters) > 0 {
		w := l.waiters[0]
		if !l.compatible(w.txn, w.mode) {
			return
		}
		l.waiters[0] = lockWaiter{}
		if len(l.waiters) == 1 {
			l.waiters = l.waiters[:0]
		} else {
			l.waiters = l.waiters[1:]
		}
		l.grant(w.txn, w.mode)
		w.p.Wake()
	}
}
