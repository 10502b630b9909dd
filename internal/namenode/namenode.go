// Package namenode implements the HopsFS-CL metadata serving layer (paper
// §II-A2 and §IV-B): stateless metadata servers (NNs) that execute file
// system operations as transactions on the NDB metadata storage layer,
// using hierarchical (implicit) locking — row locks on the operated-on
// inodes, read-committed for the rest. It also implements the database-
// backed leader election of [28], extended to report each server's
// locationDomainId every round, and the AZ-aware client selection policy
// of §IV-B3.
package namenode

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"hopsfscl/internal/blocks"
	"hopsfscl/internal/heat"
	"hopsfscl/internal/ndb"
	"hopsfscl/internal/shard"
	"hopsfscl/internal/sim"
	"hopsfscl/internal/simnet"
	"hopsfscl/internal/trace"
)

// File system errors.
var (
	// ErrNotFound means a path component does not exist.
	ErrNotFound = errors.New("namenode: no such file or directory")
	// ErrExists means the target already exists.
	ErrExists = errors.New("namenode: file exists")
	// ErrNotDir means a path component is not a directory.
	ErrNotDir = errors.New("namenode: not a directory")
	// ErrIsDir means the operation needs a file but found a directory.
	ErrIsDir = errors.New("namenode: is a directory")
	// ErrNotEmpty means a non-recursive delete hit a non-empty directory.
	ErrNotEmpty = errors.New("namenode: directory not empty")
	// ErrInvalidPath means the path is malformed.
	ErrInvalidPath = errors.New("namenode: invalid path")
	// ErrRetriesExhausted means the transaction kept aborting (overload,
	// failover in progress) beyond the retry budget.
	ErrRetriesExhausted = errors.New("namenode: transaction retries exhausted")
	// ErrNoNameNodes means no metadata server is reachable.
	ErrNoNameNodes = errors.New("namenode: no metadata servers available")
	// ErrCycle means a rename would move a directory under itself.
	ErrCycle = errors.New("namenode: rename would create a cycle")
	// errMoved refuses a rename whose source, or whose destination's
	// parent, changed after its resolve: the attempt is retried, and
	// resolves again.
	errMoved = errors.New("namenode: rename source or destination parent changed since its resolve")
	// errStaleHints refuses a mutation whose write went out in its resolve's
	// batch keyed by hints the batch proved stale: the attempt is retried
	// without them.
	errStaleHints = errors.New("namenode: write keyed by stale hints")
)

// IsOutcomeError reports whether err is an expected application outcome
// (not-found, already-exists, namespace shape violations) rather than a
// system failure. Outcome errors count in per-op error tallies but not
// against the availability SLO: a correctly served "no such file" is the
// file system working, not failing.
func IsOutcomeError(err error) bool {
	return errors.Is(err, ErrNotFound) || errors.Is(err, ErrExists) ||
		errors.Is(err, ErrNotDir) || errors.Is(err, ErrIsDir) ||
		errors.Is(err, ErrNotEmpty) || errors.Is(err, ErrInvalidPath) ||
		errors.Is(err, ErrCycle)
}

// RootID is the inode id of "/".
const RootID uint64 = 1

// smallFileThreshold is the inline-in-NDB cutoff: a file up to this size
// is stored with its metadata and never reaches the block layer (§II-A3;
// 128 KB).
const smallFileThreshold = 128 << 10

// Config parameterizes the metadata serving layer.
type Config struct {
	// ReadBackup enables the Read Backup option on all metadata tables.
	// HopsFS-CL always sets it (§IV-A5); vanilla HopsFS does not.
	ReadBackup bool
	// NNCores is the CPU parallelism of each metadata server (paper VMs:
	// 32 vCPUs).
	NNCores int
	// ElectionRound is the leader-election heartbeat period ([28]; 2 s).
	ElectionRound time.Duration
	// DisableBatchedResolve forces the serial per-component path walk even
	// when the hint cache could prime a batched read — the ablation knob
	// for the resolution protocol.
	DisableBatchedResolve bool
	// OpBase is the NN CPU charged for any operation (RPC handling,
	// validation).
	OpBase time.Duration
}

// The metadata server's calibrated CPU work beyond OpBase.
const (
	// costPerComponent is charged per resolved path component.
	costPerComponent = 4 * time.Microsecond
	// costPerListEntry is charged per directory entry returned.
	costPerListEntry = 600 * time.Nanosecond
)

// hintCacheSize bounds each NN's inode hint cache (path → inode id, LRU).
const hintCacheSize = 64 << 10

// DefaultConfig returns the paper-aligned defaults.
func DefaultConfig() Config {
	return Config{
		ReadBackup:    true,
		NNCores:       32,
		ElectionRound: 2 * time.Second,
		OpBase:        25 * time.Microsecond,
	}
}

// Inode is the stored metadata of a file or directory. Values stored in
// NDB are immutable; mutate by storing a modified copy.
type Inode struct {
	ID     uint64
	Parent uint64
	Name   string
	Dir    bool
	Size   int64
	Perm   uint16
	Owner  string
	Mtime  time.Duration
	// InlineSize is the byte count stored inline in NDB for small files.
	InlineSize int64
	// Blocks lists the block layer blocks of large files.
	Blocks []blocks.BlockID
	// QuotaNS/QuotaSS are the directory's namespace (inode count) and
	// storage-space (logical bytes) quota limits, 0 meaning unset. The
	// authoritative record lives in the quotas table; the inode carries a
	// copy so resolution sees quota'd ancestors without extra reads
	// (HopsFS's INodeAttributes pattern).
	QuotaNS int64
	QuotaSS int64
}

// QuotaRecord is the authoritative quota row of a directory (the "q" row in
// the quotas table, partitioned by the directory's inode id).
type QuotaRecord struct {
	NS int64 // namespace limit (files + directories), 0 = unset
	SS int64 // storage-space limit (logical bytes), 0 = unset
}

// QuotaUpdate is one asynchronous usage delta under a quota'd directory.
// HopsFS applies quota charges as append-only update rows folded in the
// background rather than read-modify-write on one hot row; usage is the sum
// of a directory's update rows ("u/..." keys in its quotas partition).
type QuotaUpdate struct {
	NS int64
	SS int64
}

// QuotaInfo is a directory's quota limits plus its accumulated usage.
type QuotaInfo struct {
	NS, SS         int64 // limits (0 = unset)
	UsedNS, UsedSS int64 // inodes created / bytes written under the quota
}

// Namesystem is the shared file system state: the NDB tables, the block
// layer, and the set of metadata servers.
type Namesystem struct {
	env      *sim.Env
	net      *simnet.Network
	blockMgr *blocks.Manager
	cfg      Config

	// router maps partition keys to shards; on a one-cluster router the
	// transactions are the cluster's own and the table sets hold one table.
	// Every row access resolves its table through a set's For, once, where
	// the address is built.
	router     *shard.Router
	inodes     *shard.TableSet
	election   *shard.TableSet
	smallfiles *shard.TableSet
	quotas     *shard.TableSet

	nns    []*NameNode
	idSeq  uint64
	bgStop bool

	// balanceEpoch forces clients to re-pick their server when the serving
	// set changes (Commission/Drain bump it); clients re-balance lazily at
	// their next operation.
	balanceEpoch int
	// clientsOn counts the clients sticking to each server, by the
	// client's zone (Client.stick keeps it).
	clientsOn map[stickKey]int

	// tracer and obs attach the namesystem to a deployment's trace layer;
	// an uninstrumented deployment has a nil tracer and nil handles in obs.
	tracer *trace.Tracer
	obs    nnObs

	// heat attributes operation paths (per-depth subtree prefixes) and
	// touched inodes to the deployment's heat collector; nil for
	// deployments without heat tracking (see SetHeat).
	heat *heat.Collector
}

// SetHeat attaches a heat collector: every operation attributes one touch
// per enclosing subtree of its target path, and every inode row read
// attributes one inode touch. A nil collector detaches.
func (ns *Namesystem) SetHeat(h *heat.Collector) {
	ns.heat = h
}

// nnObs caches the namesystem's pre-registered metric handles. Handles are
// nil-safe, so the zero value is the uninstrumented state.
type nnObs struct {
	// resolveHit counts operations whose path was fully primed from the
	// hint cache and verified; resolveMiss counts paths the cache could not
	// prime (serial walk from the start); resolveFallback counts batched
	// attempts that failed verification (stale hints) and re-walked.
	resolveHit      *trace.Counter
	resolveMiss     *trace.Counter
	resolveFallback *trace.Counter
	reg             *trace.Registry
}

// SetTracer attaches the namesystem to a deployment's tracer: every client
// operation gets a root span, every transaction attempt a child span, and
// the resolve-cache counter family is registered. A nil tracer detaches.
func (ns *Namesystem) SetTracer(tr *trace.Tracer) {
	ns.tracer = tr
	reg := tr.Registry()
	ns.obs = nnObs{
		resolveHit:      reg.Counter("namenode.resolve_cache", "result", "hit"),
		resolveMiss:     reg.Counter("namenode.resolve_cache", "result", "miss"),
		resolveFallback: reg.Counter("namenode.resolve_cache", "result", "fallback"),
		reg:             reg,
	}
	for _, nn := range ns.nns {
		nn.cache.setGauge(ns.cacheSizeGauge(nn))
	}
}

// cacheSizeGauge returns the per-NN resolve-cache size gauge (nil when
// uninstrumented).
func (ns *Namesystem) cacheSizeGauge(nn *NameNode) *trace.Gauge {
	return ns.obs.reg.Gauge("namenode.resolve_cache.size", "nn", nn.Node.Name())
}

// HealthStats reports the metadata tier's health signal at virtual instant
// now: live and expected NN counts, plus the mean CPU thread-pool
// utilization across live NNs since the previous call (each call advances
// the measurement window). When instrumented it also refreshes the per-NN
// namenode.util{nn=...} gauges, so the flight recorder and SLO engine see
// the same number.
func (ns *Namesystem) HealthStats(now time.Duration) (live, expected int, util float64) {
	var sum float64
	var n int
	for _, nn := range ns.nns {
		if nn.draining || nn.decom {
			// Drained servers left the serving target on purpose: they are
			// neither expected nor live, so scaling down does not read as
			// degradation.
			continue
		}
		expected++
		u := nn.health.Read(nn.cpu, now)
		nn.health.Mark(nn.cpu, now)
		ns.obs.reg.Gauge("namenode.util", "nn", nn.Node.Name()).Set(u)
		if nn.Alive() {
			live++
			sum += u
			n++
		}
	}
	if n > 0 {
		util = sum / float64(n)
	}
	return live, expected, util
}

// NewNamesystem creates the metadata schema on every cluster of the router
// and seeds the root directory on the shard the routing function gives it.
// blockMgr may be nil if only metadata operations are exercised (the
// paper's benchmarks use empty files for exactly this reason).
func NewNamesystem(r *shard.Router, blockMgr *blocks.Manager, cfg Config) *Namesystem {
	// Every cluster runs in the one simulation, on the one network.
	ns := &Namesystem{
		env:       r.Cluster(0).Env(),
		net:       r.Cluster(0).Net(),
		blockMgr:  blockMgr,
		cfg:       cfg,
		router:    r,
		idSeq:     RootID,
		clientsOn: map[stickKey]int{},
	}
	ns.createTables()
	ns.seedRoot()
	if blockMgr != nil {
		blockMgr.SetLeaderCheck(func() bool { return ns.Leader() != nil })
		blockMgr.SetReferencedCheck(ns.ReferencedBlocks)
	}
	return ns
}

// createTables creates the metadata schema on every shard of the router.
func (ns *Namesystem) createTables() {
	cfg := ns.cfg
	// Inodes are partitioned by parent inode id (application defined
	// partitioning): all children of a directory live in one partition, so
	// listings are partition-pruned scans (§II-A1). Under the shard router
	// the same key also picks the cluster — the id modulo the shard count —
	// and every id names the partition and shard of its own row (nextID), so
	// a directory's children sit with the directory, and a subtree with its
	// top-level directory: a path resolves, and every parent/child lock pair
	// is taken, in one partition.
	ns.inodes = ns.router.NewTableSet("inodes", 256, ndb.TableOptions{ReadBackup: cfg.ReadBackup})
	// The election table is tiny and read every round by every NN: fully
	// replicated for AZ-local reads. All its rows share one partition key,
	// so election traffic lands on a single shard regardless of N.
	ns.election = ns.router.NewTableSet("election", 64, ndb.TableOptions{
		ReadBackup:      cfg.ReadBackup,
		FullyReplicated: true,
	})
	// Small-file payloads live inline in NDB (§II-A3) in their own
	// wide-row table, partitioned by the owning file's inode id so the
	// data row survives renames untouched — and sits in the partition the
	// file was created in.
	ns.smallfiles = ns.router.NewTableSet("smallfiles", 4096, ndb.TableOptions{ReadBackup: cfg.ReadBackup})
	// Quota rows: per quota'd directory one authoritative "q" record plus
	// append-only "u/..." usage updates, partitioned by directory id.
	ns.quotas = ns.router.NewTableSet("quotas", 64, ndb.TableOptions{ReadBackup: cfg.ReadBackup})
}

// PinSubtree pins a directory's children (by inode id) to a shard. A
// directory created underneath gets an id on its own row's shard — the
// pinned one — so its children follow without a pin of their own and the
// override is subtree-deep for namespace created after the pin. Pins must be
// installed before rows exist under the directory.
func (ns *Namesystem) PinSubtree(dirID uint64, s int) error {
	return ns.router.Pin(partKey(dirID), s)
}

// IdentityID implements shard.Identified: the inode id is the value's
// stable identity, letting the cross-shard intent resolver distinguish "my
// write already applied" from "another writer took this row" after a crash.
func (i *Inode) IdentityID() uint64 { return i.ID }

// ReferencedBlocks returns the set of block ids attached to any committed
// inode. The block layer's monitor uses it to reclaim orphans, and the
// chaos auditor uses it to verify namespace/block-layer agreement. It reads
// storage state directly (the leader NN's in-memory block map in HopsFS),
// bypassing the transaction path.
func (ns *Namesystem) ReferencedBlocks() map[blocks.BlockID]bool {
	out := make(map[blocks.BlockID]bool)
	ns.ForEachInode(func(ino *Inode) {
		for _, id := range ino.Blocks {
			out[id] = true
		}
	})
	return out
}

// ForEachInode calls fn for every committed inode, read from storage
// directly as ReferencedBlocks reads it.
func (ns *Namesystem) ForEachInode(fn func(*Inode)) {
	ns.inodes.ForEachCommitted(func(_, _ string, val ndb.Value) {
		if ino, ok := val.(*Inode); ok {
			fn(ino)
		}
	})
}

// seedRoot installs "/" directly in storage (bootstrap, before any traffic).
func (ns *Namesystem) seedRoot() {
	root := &Inode{ID: RootID, Parent: 0, Name: "", Dir: true, Perm: 0o755, Owner: "hdfs"}
	ndb.StoreDirect(ns.inodes.For(partKey(0)), partKey(0), inodeKey(0, ""), root)
}

// Seed installs directories and files directly into NDB storage, bypassing
// transactions — used to pre-build benchmark namespaces without warm-up
// traffic. Directories must be listed parents-first; all paths absolute.
func (ns *Namesystem) Seed(dirs, files []string) error {
	ids := map[string]uint64{"/": RootID}
	place := func(path string, dir bool) error {
		fp, err := splitPath(path)
		if err != nil {
			return err
		}
		if fp.depth() == 0 {
			return nil
		}
		parent, ok := ids[fp.prefix(fp.depth()-1)]
		if !ok {
			return fmt.Errorf("namenode: seed %q before its parent", path)
		}
		table, pk, key := ns.inodeRow(parent, fp.name())
		ino := &Inode{
			ID:     ns.nextID(table, pk),
			Parent: parent,
			Name:   fp.name(),
			Dir:    dir,
			Perm:   0o755,
			Owner:  "hdfs",
		}
		ndb.StoreDirect(table, pk, key, ino)
		if dir {
			ids[fp.prefix(fp.depth())] = ino.ID
		}
		return nil
	}
	for _, d := range dirs {
		if err := place(d, true); err != nil {
			return err
		}
	}
	for _, f := range files {
		if err := place(f, false); err != nil {
			return err
		}
	}
	return nil
}

// Config returns the namesystem configuration.
func (ns *Namesystem) Config() Config { return ns.cfg }

// NameNodes returns all registered metadata servers.
func (ns *Namesystem) NameNodes() []*NameNode { return ns.nns }

// nextID allocates the id of a new inode whose own row is in partition pk of
// table. The id names that row's place: it is congruent to the table's shard
// modulo the shard count, and partKey(id) maps, in table, to pk's partition,
// so the partitions the id keys — the inode's children, inline payload and
// quota rows — are its own row's (the tables share one partition count). By
// induction a subtree lives in its top-level directory's row's partition.
// Each draw takes the shard's next id; the search allocates nothing.
func (ns *Namesystem) nextID(table *ndb.Table, pk string) uint64 {
	n, s := uint64(len(ns.router.Clusters())), uint64(ns.router.ShardOfTable(table))
	var buf [20]byte
	for {
		ns.idSeq++
		if id := ns.idSeq*n + s; table.SamePartition(strconv.AppendUint(buf[:0], id, 10), pk) {
			return id
		}
	}
}

// NameNode is one stateless metadata server.
type NameNode struct {
	ns     *Namesystem
	Node   *simnet.Node
	ID     int
	Domain simnet.ZoneID

	cpu *sim.Resource

	// cache is the inode hint cache: path -> inode id (bounded LRU), used
	// to compute the partition-key hint that makes transactions
	// distribution aware and to prime batched optimistic path resolution.
	cache *hintCache
	// scratch is the pool of per-operation scratch (see opScratch), one per
	// operation in flight on this server at its busiest, linked by next.
	scratch *opScratch

	// Election state observed by this NN at its last round.
	leaderID  int
	active    []ActiveNN
	stopped   bool
	lastRound time.Duration

	// Elastic lifecycle state (see elastic.go): a draining NN finishes its
	// in-flight operations but accepts no new ones; a decommissioned NN has
	// left the cluster for good. inflight counts operations currently
	// executing on this server (cooperative scheduling; no atomics needed).
	draining bool
	decom    bool
	inflight int

	// Ops counts operations served (per-NN throughput, Figure 6).
	Ops int64

	// health is the CPU window opened at the last health probe, so
	// HealthStats reports utilization over the probe interval.
	health sim.UtilWindow
}

// ActiveNN is one entry of the leader's active-NN list, carrying the
// locationDomainId reported during election (§IV-B3).
type ActiveNN struct {
	ID     int
	Domain simnet.ZoneID
}

// AddNameNode registers a metadata server in the given zone. domain is its
// locationDomainId (ZoneUnset for non-AZ-aware deployments). The NN's
// leader-election process starts immediately.
func (ns *Namesystem) AddNameNode(zone simnet.ZoneID, host simnet.HostID, domain simnet.ZoneID) *NameNode {
	id := len(ns.nns) + 1
	nn := &NameNode{
		ns:       ns,
		Node:     ns.net.NewNode(fmt.Sprintf("nn-%d", id), zone, host),
		ID:       id,
		Domain:   domain,
		cpu:      sim.NewResource(ns.env, fmt.Sprintf("nn-%d/cpu", id), ns.cfg.NNCores),
		leaderID: 1,
	}
	ns.nns = append(ns.nns, nn)
	nn.start()
	return nn
}

// start brings up what a stateless server has: an empty hint cache and its
// leader-election process.
func (nn *NameNode) start() {
	nn.cache = newHintCache(hintCacheSize)
	nn.cache.setGauge(nn.ns.cacheSizeGauge(nn))
	nn.ns.env.Spawn(nn.Node.Name()+"/election", func(p *sim.Proc) { nn.electionLoop(p) })
}

// CPU exposes the NN's processor pool for utilization accounting.
func (nn *NameNode) CPU() *sim.Resource { return nn.cpu }

// Alive reports whether the server is up.
func (nn *NameNode) Alive() bool { return nn.Node.Alive() && !nn.stopped }

// Fail takes the metadata server down.
func (nn *NameNode) Fail() { nn.stopped = true; nn.Node.Fail() }

// Recover restarts a failed metadata server: it is stateless, so recovery
// is simply rejoining the network and resuming leader-election rounds.
// Decommissioned servers have left the cluster and do not come back.
func (nn *NameNode) Recover() {
	if nn.Alive() || nn.decom {
		return
	}
	nn.stopped = false
	nn.Node.Recover()
	nn.start()
}

// Leader returns the current leader NN (the namesystem-wide view: the
// lowest-id alive NN whose election row is fresh), or nil.
func (ns *Namesystem) Leader() *NameNode {
	for _, nn := range ns.nns {
		if nn.Alive() {
			return nn
		}
	}
	return nil
}

// partKey is the partition key of a directory's children.
func partKey(parent uint64) string { return strconv.FormatUint(parent, 10) }

// partKeyOf is the partition key of one inode row. Children of "/" are
// partitioned individually by name rather than by parent id: every
// operation resolves a top-level directory, and hashing them all to the
// root's partition would turn that partition's primary into a cluster-wide
// hotspot. HopsFS special-cases the root's immediate children the same way
// ([23]: the root's children are distributed over all partitions).
func partKeyOf(parent uint64, name string) string {
	if parent == RootID {
		return "c:" + name
	}
	return partKey(parent)
}

// inodeKey is the row key of name's inode row under parent. A row key is
// unique only within its partition key, as in the smallfiles and quotas
// tables: a directory's children share the partition "<parent>", and the
// name alone picks the row within it. A child of "/" sits alone in its own
// partition (partKeyOf) and keeps a key unique in the table, "1/<name>", so
// the root listing finds the root's children by key prefix across partitions.
func inodeKey(parent uint64, name string) string {
	if parent == RootID {
		return "1/" + name
	}
	return name
}

// inodeRow addresses the inode row of name under parent: the owning shard's
// inodes table, the partition key and the row key.
func (ns *Namesystem) inodeRow(parent uint64, name string) (*ndb.Table, string, string) {
	pk := partKeyOf(parent, name)
	return ns.inodes.For(pk), pk, inodeKey(parent, name)
}

// partOf addresses the partition of table set ts keyed by an inode's own
// id — a directory's children, a file's inline payload, a directory's quota
// rows: the owning shard's table and the partition key.
func partOf(ts *shard.TableSet, id uint64) (*ndb.Table, string) {
	pk := partKey(id)
	return ts.For(pk), pk
}

// charge bills NN CPU for an operation over depth path components (fluid
// deferred service on the server's core pool).
func (nn *NameNode) charge(p *sim.Proc, depth int) {
	nn.cpu.UseDeferred(p, nn.ns.cfg.OpBase+time.Duration(depth)*costPerComponent)
}

// chargeList bills the leader for serving the cached active-server list to
// a client: a per-entry in-memory read, far cheaper than a metadata op.
func (nn *NameNode) chargeList(p *sim.Proc, entries int) {
	if entries <= 0 {
		return
	}
	nn.cpu.UseDeferred(p, time.Duration(entries)*costPerListEntry)
}

// retriable reports whether a transaction error warrants a retry: lock
// timeouts (deadlock/overload backpressure), node failovers, and the
// validation refusals.
func retriable(err error) bool {
	// An indeterminate commit is decided — applied at its primary, or its
	// durable cross-shard intent will complete it — so retrying would re-run
	// an operation that is already (going to be) applied and report a false
	// definite failure.
	if errors.Is(err, ndb.ErrIndeterminate) {
		return false
	}
	return errors.Is(err, ndb.ErrLockTimeout) || errors.Is(err, ndb.ErrNodeUnavailable) || retriesAtOnce(err)
}

// retriesAtOnce reports whether err refused an attempt that has nothing to
// back off from: a validation refusal — a rename's source or destination
// parent that changed, a one-round mutation's stale hints — lost to a
// writer that has committed, and a create, a delete or a rename whose
// parent was busy retries reading its parent first, queueing for the lock
// as any resolve does.
func retriesAtOnce(err error) bool {
	return errors.Is(err, errMoved) || errors.Is(err, errStaleHints) || errors.Is(err, ndb.ErrLockBusy)
}

const (
	// retryMax bounds transaction retries per operation.
	retryMax = 8
	// retryBackoff is the base backoff between retries (exponential with
	// jitter, capped at 64x) — the paper's backpressure mechanism.
	retryBackoff = 2 * time.Millisecond
)

// runTxn executes fn in a storage transaction with the given partition-key
// hint, retrying aborted transactions with exponential backoff — the
// paper's retry mechanism providing backpressure to NDB (§II-B2); some
// refusals retry at once (retriesAtOnce). The hint
// picks the transaction coordinator and, when sharded, the shard whose
// sub-transaction opens eagerly; a stale hint only costs locality, never
// correctness, since every read and write names its own row's table. In
// detailed tracing mode each attempt becomes a "txn" child span of the
// operation's root span, carrying the TC-selection attributes set by
// ndb.Begin.
func (nn *NameNode) runTxn(p *sim.Proc, hint string, fn func(tx ndb.Tx) error) error {
	attemptTxn := func() error {
		tx, err := nn.ns.router.Begin(p, nn.Node, nn.Domain, nn.ns.inodes.For(hint), hint)
		return ndb.InTx(tx, err, fn)
	}
	backoff := retryBackoff
	for attempt := 0; attempt <= retryMax; attempt++ {
		var err error
		if ts := p.Span().Child("txn", p.EffNow()); ts != nil {
			if attempt > 0 {
				ts.SetAttr("retry", strconv.Itoa(attempt))
			}
			prev := p.SetSpan(ts)
			err = attemptTxn()
			ts.Finish(p.EffNow())
			p.SetSpan(prev)
		} else {
			err = attemptTxn()
		}
		if err == nil {
			return nil
		}
		if !retriable(err) {
			return err
		}
		if retriesAtOnce(err) {
			continue
		}
		jitter := time.Duration(p.Rand().Int63n(int64(backoff)))
		p.Sleep(backoff + jitter)
		if backoff < 64*retryBackoff {
			backoff *= 2
		}
	}
	return ErrRetriesExhausted
}

// PendingIntents returns the number of durable cross-shard intent records
// not yet resolved — the chaos auditor's "no intent left behind" invariant
// reads it after a quiesced sweep. Always zero for unsharded deployments.
func (ns *Namesystem) PendingIntents() int {
	return ns.router.PendingIntentCount()
}

// ResolvePendingIntents sweeps and resolves every durable cross-shard
// intent record left by coordinators that crashed (or were cut off)
// mid-commit, rolling each one forward or back. Recovery runs from an
// alive namenode; with none alive it reports ErrNoNameNodes.
func (ns *Namesystem) ResolvePendingIntents(p *sim.Proc) (int, error) {
	nn := ns.Leader()
	if nn == nil {
		return 0, ErrNoNameNodes
	}
	return ns.router.ResolvePendingIntents(p, nn.Node, nn.Domain)
}

// annotate tags the operation's active (root) span with the serving server,
// the target path and (Rename) the destination, and attributes the target
// path's subtrees to the heat collector. Attributes only materialize in
// detailed tracing mode; heat touches happen in aggregate mode too (the
// sketches are the aggregate).
func (nn *NameNode) annotate(p *sim.Proc, path, dst string) {
	nn.ns.heat.TouchPath(p.Now(), path)
	if sp := p.Span(); sp != nil {
		sp.SetAttr("nn", nn.Node.Name())
		sp.SetAttr("path", path)
		if dst != "" {
			sp.SetAttr("dst", dst)
		}
	}
}
