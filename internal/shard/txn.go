package shard

import (
	"slices"
	"strings"
	"time"

	"hopsfscl/internal/ndb"
	"hopsfscl/internal/sim"
	"hopsfscl/internal/simnet"
)

// Txn is a routed transaction on a multi-cluster router: a dispatcher with
// the method set of ndb.Tx that opens one ndb.Txn per shard the operation
// actually touches and routes each batch (routeBatch) to the
// sub-transactions of the clusters that own its rows' tables. It stores no
// rows and converts nothing; it only gathers and scatters a batch that spans
// shards. A one-cluster router never creates one (see Begin).
type Txn struct {
	r      *Router
	p      *sim.Proc
	origin *simnet.Node
	domain simnet.ZoneID

	// subs is indexed by shard; nil entries are unopened. It is carved out
	// of inline for the usual small shard counts, so a routed transaction
	// is one allocation.
	subs   []*ndb.Txn
	inline [4]*ndb.Txn
	// only is the sub-transaction Begin opened for as long as no other
	// shard has been touched; nil from the second open on.
	only *ndb.Txn
	done bool
	// gets and vals are where routeBatch gathers a ReadBatch of up to eight
	// rows that spans shards — a path resolution straddling the boundary —
	// and scatters its results, so such a batch allocates nothing.
	gets [8]ndb.BatchGet
	vals [8]ndb.BatchVal
}

// Begin opens a transaction hinted at table's row partKey — Cluster.Begin's
// signature, with the cluster picked by the table. On a one-cluster router
// the result is that cluster's *ndb.Txn itself: an unsharded deployment has
// no wrapper object and no routing step. Otherwise it is a *Txn whose
// sub-transaction on the table's shard is opened eagerly — the begin an
// unsharded namenode would issue — and whose other shards open on first
// touch.
func (r *Router) Begin(p *sim.Proc, origin *simnet.Node, domain simnet.ZoneID, table *ndb.Table, partKey string) (ndb.Tx, error) {
	s := r.ShardOfTable(table)
	sub, err := r.clusters[s].Begin(p, origin, domain, table, partKey)
	if err != nil {
		return nil, err
	}
	if r.n == 1 {
		return sub, nil
	}
	r.touchShard(p.Now(), s)
	var t *Txn
	if n := len(r.free); n > 0 {
		t, r.free = r.free[n-1], r.free[:n-1]
	} else {
		t = &Txn{}
	}
	t.r, t.p, t.origin, t.domain, t.only = r, p, origin, domain, sub
	if r.n <= len(t.inline) {
		t.subs = t.inline[:r.n]
	} else {
		t.subs = make([]*ndb.Txn, r.n)
	}
	t.subs[s] = sub
	return t, nil
}

// sub returns the sub-transaction on the shard owning table, beginning it on
// first touch (hinted by the row that caused the touch).
func (t *Txn) sub(table *ndb.Table, partKey string) (*ndb.Txn, error) {
	s := t.r.ShardOfTable(table)
	if sub := t.subs[s]; sub != nil {
		return sub, nil
	}
	sub, err := t.r.clusters[s].Begin(t.p, t.origin, t.domain, table, partKey)
	if err != nil {
		return nil, err
	}
	t.subs[s] = sub
	t.only = nil
	t.r.touchShard(t.p.Now(), s)
	return sub, nil
}

// Now returns the executing process's current virtual time.
func (t *Txn) Now() time.Duration { return t.p.Now() }

// Annotate sets an attribute on the operation's current span.
func (t *Txn) Annotate(key, value string) {
	t.p.Span().SetAttr(key, value)
}

// ScanTablePrefix scans every partition of the logical table — table's
// namesake on every shard, in shard order — for keys with the prefix. The
// merged rows are re-sorted by key so the order is independent of the shard
// count.
func (t *Txn) ScanTablePrefix(table *ndb.Table, prefix string) ([]ndb.KV, error) {
	var out []ndb.KV
	for _, c := range t.r.clusters {
		tab := c.Table(table.Name())
		sub, err := t.sub(tab, "")
		if err != nil {
			return nil, err
		}
		kvs, err := sub.ScanTablePrefix(tab, prefix)
		if err != nil {
			return nil, err
		}
		out = append(out, kvs...)
	}
	slices.SortFunc(out, byKey)
	return out, nil
}

// byKey orders scanned rows by key. In the inodes, smallfiles and quotas
// tables a key is unique only within its partition key (a directory's
// children are keyed by name), except for the children of "/": each sits
// alone in its own partition under a key unique in the table, "1/<name>",
// and those are the rows a table-prefix scan finds, so the order is total.
func byKey(a, b ndb.KV) int { return strings.Compare(a.Key, b.Key) }

// routeBatch is the one batch dispatcher. A batch whose rows all live on one
// shard — every batched write of a create, delete or same-directory rename —
// is handed to that shard's sub-transaction as the caller's slice,
// untouched. A batch that spans shards is split: shards are visited in
// ascending order, each one's rows are gathered in request order into part
// and run as one sub-batch on its sub-transaction, and the sub-batch's
// results are scattered back to the rows' request positions in out. A failing
// shard ends the walk with its error before anything of it is scattered. part
// and out are empty buffers the gather and the results are carved from while
// they have room: the result is valid until the transaction's next read. at
// names a row's table and partition key; run returns one result per row it
// was given.
func routeBatch[T, R any](t *Txn, rows, part []T, out []R, at func(*T) (*ndb.Table, string),
	run func(*ndb.Txn, []T) ([]R, error)) ([]R, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	shardOf := func(i int) int {
		table, _ := at(&rows[i])
		return t.r.ShardOfTable(table)
	}
	first, spans := shardOf(0), false
	for i := 1; i < len(rows) && !spans; i++ {
		spans = shardOf(i) != first
	}
	if !spans {
		sub, err := t.sub(at(&rows[0]))
		if err != nil {
			return nil, err
		}
		return run(sub, rows)
	}
	out = slices.Grow(out, len(rows))[:len(rows)]
	part = slices.Grow(part, len(rows))
	for s := range t.subs {
		part = part[:0]
		for i := range rows {
			if shardOf(i) == s {
				part = append(part, rows[i])
			}
		}
		if len(part) == 0 {
			continue
		}
		sub, err := t.sub(at(&part[0]))
		if err != nil {
			return nil, err
		}
		res, err := run(sub, part)
		if err != nil {
			return nil, err
		}
		for i, j := 0, 0; i < len(rows); i++ {
			if shardOf(i) == s {
				out[i] = res[j]
				j++
			}
		}
	}
	return out, nil
}

// ReadBatch reads many rows in one batched fan-out per touched shard,
// returning values positionally. As with ndb.Txn, the result of a batch of up
// to eight rows lives in the transaction and is valid until its next read, or
// until ndb.InTx returns.
func (t *Txn) ReadBatch(gets []ndb.BatchGet) ([]ndb.BatchVal, error) {
	return routeBatch(t, gets, t.gets[:0], t.vals[:0],
		func(g *ndb.BatchGet) (*ndb.Table, string) { return g.Table, g.PartKey },
		(*ndb.Txn).ReadBatch)
}

// ScanBatch runs many prefix scans in one batched fan-out per touched
// shard, returning result sets positionally. A scan batch spans shards only
// when a subtree walk's level does, rarely enough that it gathers into fresh
// buffers.
func (t *Txn) ScanBatch(scans []ndb.BatchScan) ([][]ndb.KV, error) {
	return routeBatch(t, scans, nil, nil,
		func(s *ndb.BatchScan) (*ndb.Table, string) { return s.Table, s.PartKey },
		(*ndb.Txn).ScanBatch)
}

// WriteBatch executes all mutations, one ndb.WriteBatch per touched shard,
// each row as the caller built it — an insert's condition and an edit
// included. A written row has no result; the empty ones cost nothing. A
// write batch that spans shards gathers into a fresh buffer, as a scan batch
// does. A refused row has aborted its own shard's sub-transaction; the others
// end with the routed transaction's Abort.
func (t *Txn) WriteBatch(items []ndb.BatchWrite) error {
	_, err := routeBatch(t, items, nil, nil,
		func(w *ndb.BatchWrite) (*ndb.Table, string) { return w.Table, w.PartKey },
		func(sub *ndb.Txn, part []ndb.BatchWrite) ([]struct{}, error) {
			return make([]struct{}, len(part)), sub.WriteBatch(part)
		})
	return err
}

// ReadWriteBatch reads gets and executes writes. When every row lives on
// one shard the batch is that shard's sub-transaction's one mixed round;
// one that spans shards runs as its ReadBatch and then its WriteBatch, two
// rounds, the reads' locks taken before any write's. As with ndb.Txn, a
// failed write returns the gets' values with its error.
func (t *Txn) ReadWriteBatch(gets []ndb.BatchGet, writes []ndb.BatchWrite) ([]ndb.BatchVal, error) {
	if len(gets) > 0 {
		s := t.r.ShardOfTable(gets[0].Table)
		one := true
		for i := 1; i < len(gets) && one; i++ {
			one = t.r.ShardOfTable(gets[i].Table) == s
		}
		for i := 0; i < len(writes) && one; i++ {
			one = t.r.ShardOfTable(writes[i].Table) == s
		}
		if one {
			sub, err := t.sub(gets[0].Table, gets[0].PartKey)
			if err != nil {
				return nil, err
			}
			return sub.ReadWriteBatch(gets, writes)
		}
	}
	vals, err := t.ReadBatch(gets)
	if err != nil {
		return nil, err
	}
	return vals, t.WriteBatch(writes)
}

// Abort aborts every open sub-transaction.
func (t *Txn) Abort() {
	if !t.done {
		t.done = true
		t.abortSubs()
	}
}

// Free returns an ended routed transaction's sub-transactions to their
// clusters' pools and then the transaction, zeroed, to the router's; only
// ndb.InTx calls it. Freeing an open transaction panics.
func (t *Txn) Free() {
	if !t.done {
		panic("shard: Free of an open transaction")
	}
	for _, sub := range t.subs {
		if sub != nil {
			sub.Free()
		}
	}
	r := t.r
	*t = Txn{}
	r.free = append(r.free, t)
}

// abortSubs aborts the sub-transactions that are still open; one that has
// already committed or aborted ignores it.
func (t *Txn) abortSubs() {
	for _, sub := range t.subs {
		if sub != nil {
			sub.Abort()
		}
	}
}

// Commit commits the routed transaction. One touched shard — the fast
// path — is exactly one single-cluster commit. Several touched shards
// commit in commitCross (intent.go): every writer holds its locks until the
// last has committed, with the intent protocol when there are two or more.
func (t *Txn) Commit() error {
	if t.done {
		return ndb.ErrAborted
	}
	t.done = true
	if t.only != nil {
		t.r.obs.local.Add(1)
		return t.only.Commit()
	}
	return t.commitCross()
}
