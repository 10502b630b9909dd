// Package shard routes the namespace across N independent NDB clusters.
//
// The single-cluster deployments of the paper saturate once the NDB
// datanodes run out of CPU (Figure 10): every metadata operation, however
// well batched, lands on the same replica chains. The router in this
// package is the way past that plateau: the namespace is partitioned by
// subtree across N fully independent clusters — each with its own node groups,
// partitions, replica chains, and global checkpoints — and every
// transaction that touches a single shard runs on the single-cluster fast
// path, byte for byte. Only the rare operation that must mutate rows on two
// shards (a rename between subtrees that live on different shards) pays for
// coordination, through an ordered two-cluster commit with a durable intent
// record (intent.go).
//
// The routing function is deterministic and stateless: a row lives on the
// shard its partition key names. A decimal key is an inode id — the key of a
// directory's children, of a file's inline payload and of a directory's
// quota rows — and routes to the id modulo N; any other key (the root's
// children, keyed "c:<name>" to scatter them as partKeyOf does, and the
// election key) routes by its FNV-64a hash modulo N. The namenode gives
// every inode an id congruent to its own row's shard, so by induction a
// directory's children, quota rows and inline payloads sit with the
// directory's own row, and a whole subtree lives where its top-level
// directory's row hashes: a path resolves, and an operation below the top
// level commits, on one shard. Subtree pinning overrides the rule per
// partition key: pinning a directory's key moves its children, and the
// directories created below them get ids on the pinned shard, so the
// override is subtree-deep without a pin of their own.
//
// There is one storage-transaction surface, ndb.Tx, and the router adds no
// second one. The caller resolves a row's table to the owning shard's
// physical *ndb.Table when it builds the request (TableSet.For routes the
// partition key once and honours pins); from there on the table itself says
// where a call goes, and a routed transaction (txn.go) only dispatches: it
// finds the shard from table.Cluster(), opens that shard's ndb.Txn on first
// touch, and forwards the call with its arguments as they are.
//
// With one cluster there is nothing to dispatch: Begin returns the cluster's
// *ndb.Txn itself and For returns the one table without hashing — no wrapper
// object, no extra messages, no extra RNG draws. A Shards=1 deployment is
// indistinguishable from an unsharded one, which the golden suites pin.
package shard

import (
	"fmt"
	"strconv"
	"time"

	"hopsfscl/internal/heat"
	"hopsfscl/internal/ndb"
	"hopsfscl/internal/trace"
)

// Router maps partition keys to shards and owns the cross-shard commit
// machinery. It is built once per deployment, after the clusters and
// before the tables.
type Router struct {
	clusters []*ndb.Cluster
	n        int

	// pins overrides the routing rule per partition key (subtree pinning).
	// nil until the first Pin, so the routing fast path is one nil check.
	pins map[string]int

	heat      *heat.Collector
	shardKeys []string // cached "shard0".. keys for heat touches

	obs routerObs

	// free holds the routed transactions ndb.InTx has ended (Txn.Free), for
	// Begin to reuse.
	free []*Txn

	// intents[s] is shard s's durable intent table; nil for single-shard
	// routers, which have no cross-shard path — their table set, and every
	// golden that renders it, stays the unsharded one.
	intents []*ndb.Table
	// intentSeq numbers intent records; combined with the origin namenode
	// it is unique per deployment.
	intentSeq uint64
}

// routerObs caches the registry handles of the router's own metrics. The
// handles are nil — and counting a no-op — until SetTracer.
type routerObs struct {
	// local counts commits that needed no cross-shard coordination: at
	// most one shard had anything to write. cross counts
	// commits that ran the two-cluster intent protocol, and crossTime is
	// their end-to-end commit latency (the cross-shard rename cost the
	// shardsweep experiment reports separately).
	local     *trace.Counter
	cross     *trace.Counter
	crossTime *trace.Timing
	// crossAborts counts cross-shard commits that aborted cleanly before
	// the intent became durable; crossIndet counts the ones that returned
	// an indeterminate error with the intent left for the sweeper.
	crossAborts *trace.Counter
	crossIndet  *trace.Counter
	// intentsResolved / intentsRolledBack count sweeper outcomes: legs
	// replayed forward vs. undone (rename put blocked, value re-homed).
	intentsResolved   *trace.Counter
	intentsRolledBack *trace.Counter
}

// NewRouter builds a router over the given clusters, in shard order.
func NewRouter(clusters []*ndb.Cluster) (*Router, error) {
	if len(clusters) == 0 {
		return nil, fmt.Errorf("shard: router needs at least one cluster")
	}
	r := &Router{clusters: clusters, n: len(clusters)}
	r.shardKeys = make([]string, r.n)
	for i := range r.shardKeys {
		r.shardKeys[i] = "shard" + strconv.Itoa(i)
	}
	if r.n > 1 {
		r.intents = make([]*ndb.Table, r.n)
		for i, c := range clusters {
			r.intents[i] = c.CreateTable(intentTableName, 256, ndb.TableOptions{ReadBackup: true})
		}
	}
	return r, nil
}

// Cluster returns shard s's cluster.
func (r *Router) Cluster(s int) *ndb.Cluster { return r.clusters[s] }

// Clusters returns all clusters in shard order. Callers must not mutate
// the slice.
func (r *Router) Clusters() []*ndb.Cluster { return r.clusters }

// SetTracer registers the router's shard.* metrics. A one-cluster router
// never counts anything (its transactions are the cluster's own), so it
// registers nothing and an unsharded registry keeps its sample set.
func (r *Router) SetTracer(tr *trace.Tracer) {
	if tr == nil || r.n == 1 {
		return
	}
	reg := tr.Registry()
	r.obs = routerObs{
		local:             reg.Counter("shard.txn.local"),
		cross:             reg.Counter("shard.txn.cross"),
		crossTime:         reg.Timing("shard.txn.cross_commit"),
		crossAborts:       reg.Counter("shard.txn.cross_aborts"),
		crossIndet:        reg.Counter("shard.txn.cross_indeterminate"),
		intentsResolved:   reg.Counter("shard.intents.resolved"),
		intentsRolledBack: reg.Counter("shard.intents.rolled_back"),
	}
}

// SetHeat attaches the deployment's heat collector: multi-shard routers
// feed the "shard" key family so balance skew shows up in hotspot reports
// next to tables and partitions. Single-shard routers leave the family
// untouched (and unpublished), keeping unsharded heat reports identical.
func (r *Router) SetHeat(h *heat.Collector) {
	r.heat = h
	if h != nil && r.n > 1 {
		h.EnableShardFamily()
	}
}

// touchShard attributes one sub-transaction begin to its shard's heat key.
func (r *Router) touchShard(now time.Duration, s int) {
	if r.heat != nil && r.n > 1 {
		r.heat.TouchShard(now, r.shardKeys[s])
	}
}

// fnv64 is the FNV-64a hash of s, inlined so routing allocates nothing.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// idOf parses a decimal partition key — an inode id — without allocating.
// ok is false for any other key.
func idOf(pk string) (id uint64, ok bool) {
	if pk == "" {
		return 0, false
	}
	for i := 0; i < len(pk); i++ {
		d := pk[i] - '0'
		if d > 9 {
			return 0, false
		}
		id = id*10 + uint64(d)
	}
	return id, true
}

// ShardOfKey returns the shard owning partition key pk: the pin override if
// one is set, else id modulo the shard count for a decimal key (an inode id),
// else hash-of-key modulo the shard count.
func (r *Router) ShardOfKey(pk string) int {
	if r.n == 1 {
		return 0
	}
	if r.pins != nil {
		if s, ok := r.pins[pk]; ok {
			return s
		}
	}
	if id, ok := idOf(pk); ok {
		return int(id % uint64(r.n))
	}
	return int(fnv64(pk) % uint64(r.n))
}

// Pin overrides the routing rule for one partition key. Pinning a
// directory's partition key (its inode id) moves all its children — and every
// scan and lock against them — to the given shard; the namenode gives a child
// an id on its own row's shard, so directories created underneath follow and
// the override is subtree-deep. Pins must be installed before rows are
// written under the key: the router never migrates existing rows.
func (r *Router) Pin(pk string, s int) error {
	if s < 0 || s >= r.n {
		return fmt.Errorf("shard: pin %q to shard %d of %d", pk, s, r.n)
	}
	if r.pins == nil {
		r.pins = make(map[string]int)
	}
	r.pins[pk] = s
	return nil
}

// TableSet is one logical table materialized on every shard. For resolves a
// row to the physical table of its owning shard — the one routing step of
// every access, transactional or direct.
type TableSet struct {
	r    *Router
	tabs []*ndb.Table
}

// NewTableSet creates the table on every cluster and returns the set.
func (r *Router) NewTableSet(name string, rowSize int, opts ndb.TableOptions) *TableSet {
	tabs := make([]*ndb.Table, r.n)
	for i, c := range r.clusters {
		tabs[i] = c.CreateTable(name, rowSize, opts)
	}
	return &TableSet{r: r, tabs: tabs}
}

// For returns the shard-local table owning partition key pk.
func (ts *TableSet) For(pk string) *ndb.Table { return ts.tabs[ts.r.ShardOfKey(pk)] }

// At returns shard s's table.
func (ts *TableSet) At(s int) *ndb.Table { return ts.tabs[s] }

// ForEachCommitted visits every committed row of the logical table, shard
// by shard in shard order (key-sorted within each shard) — the audit-path
// iteration, reading storage state directly.
func (ts *TableSet) ForEachCommitted(fn func(partKey, key string, val ndb.Value)) {
	for _, t := range ts.tabs {
		t.ForEachCommitted(fn)
	}
}

// ShardOfTable maps a physical table to the shard of its cluster — the
// dispatch lookup of every routed call, and how the namenode learns the shard
// of a row whose table it has resolved without building another key. The
// shard count is small enough that a linear scan beats any map. A table of
// none of the router's clusters has no owner to dispatch to: that is a
// wiring bug, never a runtime condition, so it panics with the table's name
// rather than misrouting the row to shard 0.
func (r *Router) ShardOfTable(t *ndb.Table) int {
	c := t.Cluster()
	for i, cl := range r.clusters {
		if cl == c {
			return i
		}
	}
	panic(fmt.Sprintf("shard: table %q belongs to none of the router's %d clusters", t.Name(), r.n))
}
