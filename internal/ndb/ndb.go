// Package ndb implements the metadata storage layer of HopsFS-CL: an
// in-memory, shared-nothing, transactional storage engine modelled on NDB,
// the MySQL Cluster storage engine (paper §II-B), extended with the AZ
// awareness features of §IV-A:
//
//   - LocationDomainId pinning database nodes to availability zones,
//   - the Read Backup table option (client Ack delayed until all backup
//     replicas completed, enabling consistent read-committed reads from any
//     replica),
//   - the Fully Replicated table option (a replica on every datanode),
//   - AZ-aware proximity ordering and transaction-coordinator selection.
//
// The engine stores real rows; transactions run the linear two-phase commit
// protocol of §II-B2 hop by hop over the simulated network, consuming CPU
// on per-node thread pools configured like the paper's Table II.
package ndb

import (
	"errors"
	"fmt"

	"hopsfscl/internal/heat"
	"hopsfscl/internal/sim"
	"hopsfscl/internal/simnet"
	"hopsfscl/internal/trace"
	"time"
)

// Errors returned by transactions. HopsFS uses these to drive its retry and
// backpressure mechanism (§II-B2).
var (
	// ErrLockTimeout corresponds to TransactionDeadlockDetectionTimeout:
	// the transaction waited too long for a row lock (deadlock, node
	// failure, or overload) and was aborted.
	ErrLockTimeout = errors.New("ndb: lock wait timeout")
	// ErrLockBusy refuses a ReadWriteBatch whose get asks for a row lock
	// that cannot be granted at once: the batch's locks come in no order of
	// their own, so its gets never queue while its writes may hold locks.
	// The transaction is aborted.
	ErrLockBusy = errors.New("ndb: row lock busy")
	// ErrRowExists refuses an insert (BatchWrite.IfAbsent) whose row already
	// holds a committed value: the answer of the row's primary, given under
	// the insert's own exclusive lock. The transaction is aborted.
	ErrRowExists = errors.New("ndb: row exists")
	// ErrRowAbsent refuses an edited row (BatchWrite.Edit) that holds no
	// committed value, given where ErrRowExists is. The transaction is
	// aborted.
	ErrRowAbsent = errors.New("ndb: row absent")
	// ErrNodeUnavailable means a datanode needed by the transaction did not
	// respond before the RPC timeout.
	ErrNodeUnavailable = errors.New("ndb: datanode unavailable")
	// ErrIndeterminate means a transaction's primary applied it — it is
	// committed — but the TC or the Ack to the client was lost after that
	// commit point, so the client cannot know it. It wraps
	// ErrNodeUnavailable; running the transaction again would apply it
	// twice, so a caller does not retry it.
	ErrIndeterminate = fmt.Errorf("ndb: committed, outcome lost: %w", ErrNodeUnavailable)
	// ErrAborted means the transaction was aborted and must not be reused.
	ErrAborted = errors.New("ndb: transaction aborted")
	// ErrNoNodes means no datanode is available to coordinate.
	ErrNoNodes = errors.New("ndb: no datanodes available")
)

// The cluster's timers, fixed as in the evaluated deployment.
const (
	// lockTimeout aborts a transaction that waited this long for a lock
	// (TransactionDeadlockDetectionTimeout).
	lockTimeout = 150 * time.Millisecond
	// rpcTimeout bounds each internal message hop; a missing response means
	// the target node is treated as unavailable.
	rpcTimeout = 75 * time.Millisecond
	// heartbeatInterval is the datanode failure-detection period.
	heartbeatInterval = 100 * time.Millisecond
	// gcpInterval is the global checkpoint period (REDO flush to disk).
	gcpInterval = 250 * time.Millisecond
)

// Config parameterizes a cluster.
type Config struct {
	// DataNodes is the number of NDB datanodes (paper: 12).
	DataNodes int
	// Replication is the number of replicas per partition (NoOfReplicas).
	// The number of node groups is DataNodes/Replication.
	Replication int
	// PartitionsPerTable is the partition count for new tables.
	PartitionsPerTable int
	// AZAware, when true, assigns each datanode a LocationDomainId equal to
	// its physical zone, enabling all §IV-A locality behaviour. When false
	// the cluster behaves like vanilla NDB deployed unaware (HopsFS
	// baselines).
	AZAware bool
	// DisableBatchedWrites forces the serial write path, NDB's
	// execute-per-operation reference: a WriteBatch is a loop of one-row
	// batches and every row is its own train, so N rows cost N Prepare passes in sequence
	// and then N Commit/Complete passes in parallel, instead of one of each
	// per replica chain. It is the reference the batched path is compared
	// against (writefan experiment, ablation (e), equivalence tests).
	DisableBatchedWrites bool
	// NamePrefix prefixes every node and resource name ("s1-ndb-3",
	// "s1-mgm-1"), so multiple independent clusters — the shard router's
	// deployments — coexist on one network without name or gauge-label
	// collisions. Empty keeps the historical unprefixed names (shard 0).
	NamePrefix string
	// BatchFloor models NDB's executor batching: when a thread pool has
	// queued work, per-item cost shrinks asymptotically toward BatchFloor
	// of the nominal cost (throughput keeps growing after CPU plateaus,
	// §V-D1). 1 turns the amortization off (the batching ablation).
	BatchFloor float64
}

// DefaultConfig returns the paper's deployment defaults.
func DefaultConfig() Config {
	return Config{
		DataNodes:          12,
		Replication:        2,
		PartitionsPerTable: 24,
		AZAware:            true,
		BatchFloor:         0.30,
	}
}

// Cluster is a running NDB cluster: datanodes organized into node groups,
// management nodes for arbitration, and a set of tables.
type Cluster struct {
	env *sim.Env
	net *simnet.Network
	cfg Config

	datanodes []*DataNode
	mgmt      []*MgmtNode
	groups    [][]*DataNode
	tables    map[string]*Table

	txnSeq     uint64
	arbEpoch   int
	arbGranted map[int]int // epoch -> index of datanode whose view won
	bgStop     bool

	// gcpEpoch is the in-progress global checkpoint epoch; durableEpoch is
	// the recovery horizon (§II-B2). undo holds the pre-image of every row
	// write committed since durableEpoch became durable, oldest first.
	gcpEpoch     uint64
	durableEpoch uint64
	undo         []preImage

	// Stats are cumulative cluster-wide counters.
	Stats Stats

	// tracer and obs attach the cluster to a deployment's trace layer;
	// both are nil for uninstrumented clusters (see SetTracer).
	tracer *trace.Tracer
	obs    *clusterObs

	// heat attributes per-access table and partition touches to the
	// deployment's heat collector; nil for deployments without heat
	// tracking (see SetHeat).
	heat *heat.Collector

	// ledger records who blocked whom on which table (nil until SetTracer
	// attaches a registry); activeOps maps in-flight transaction IDs to
	// the op type that issued them, so the ledger can name both sides of a
	// wait-for edge.
	ledger    *ContentionLedger
	activeOps map[uint64]string

	// Fan-out worker, stackless-arm, join and batch-scratch pools
	// (workers.go): the steady-state batch/commit fan-out path allocates no
	// processes, no joins and no working arrays. A join goes back to its
	// pool only once every arm it counted has arrived. txns holds the
	// transactions InTx has ended (Txn.Free), for Begin to reuse, and rows
	// the rows cleanRow dropped, for the next insert; when it is empty, the
	// insert takes the next row of page (newRow).
	workers freeList[*fanWorker]
	arms    freeList[*fanArm]
	joins   freeList[*join]
	scratch freeList[*batchScratch]
	txns    freeList[*Txn]
	rows    freeList[*row]
	page    []row

	// topoEpoch counts cluster-side replica-topology changes (shutdown
	// orders, primary promotions); combined with the network's node
	// up/down epoch it validates Partition.repCache. Starts at 1 so the
	// combined epoch is never zero (a Partition's zero repEpoch is always
	// invalid).
	topoEpoch uint64
}

// 2PC phase indices for clusterObs.phase; names match the registry
// (txn.phase.<name>) and the child-span names of prepareTrain and commitTrain.
const (
	phasePrepare = iota
	phaseCommit
	phaseComplete
	numPhases
)

var phaseNames = [numPhases]string{"prepare", "commit", "complete"}

// clusterObs caches pre-registered registry handles for the hot paths of
// the commit protocol, so recording costs one atomic add or an uncontended
// mutex — never a map lookup.
type clusterObs struct {
	// phase times each 2PC pass: prepare (Prepare out + Prepared back, run as
	// the write executes, so any wait for its row locks is inside it), commit
	// (Commit out + Committed back), and complete (only awaited under Read
	// Backup, §IV-A3).
	phase [numPhases]*trace.Histogram
	// lockAcq counts row-lock acquisitions; lockWait times only the
	// contended ones (immediate grants would drown the mean in zeros).
	lockAcq  *trace.Counter
	lockWait *trace.Histogram
	// tcSelect counts transaction-coordinator selections by the proximity
	// of the chosen TC to the API client (§IV-A5).
	tcSelect [ProximityRemote + 1]*trace.Counter
	// batchReads counts ReadBatch/ScanBatch fan-outs; batchRows counts the
	// rows they carried, by proximity of the serving replica to the TC.
	batchReads *trace.Counter
	batchRows  [ProximityRemote + 1]*trace.Counter
	// batchWrites counts WriteBatch fan-outs; batchWriteRows counts the rows
	// they prepared, by proximity of the locking primary replica to the TC.
	batchWrites    *trace.Counter
	batchWriteRows [ProximityRemote + 1]*trace.Counter
	// commitTrains counts trains committed; trainRows is the
	// rows-per-train distribution (a duration histogram read as a count: one
	// nanosecond per row, so count/sum/max read as trains/rows/largest).
	commitTrains *trace.Counter
	trainRows    *trace.Histogram

	// Contention metrics are registered lazily per table / op pair (the
	// label space is data-dependent); the maps cache the handles so the
	// blocking path pays one map hit after the first event.
	reg        *trace.Registry
	contBlocks map[string]*trace.Counter
	contWait   map[string]*trace.Counter
	contPairs  map[[2]string]*trace.Counter
}

// contention records one blocking event in the registry: per-table block
// and wait counters plus a per-(holder, waiter) pair counter.
func (o *clusterObs) contention(table, holder, waiter string, wait time.Duration) {
	if o == nil {
		return
	}
	cb := o.contBlocks[table]
	if cb == nil {
		cb = o.reg.Counter("ndb.contention.blocks", "table", table)
		o.contBlocks[table] = cb
	}
	cb.Add(1)
	cw := o.contWait[table]
	if cw == nil {
		cw = o.reg.Counter("ndb.contention.wait_ns", "table", table)
		o.contWait[table] = cw
	}
	cw.Add(int64(wait))
	pk := [2]string{holder, waiter}
	cp := o.contPairs[pk]
	if cp == nil {
		cp = o.reg.Counter("ndb.contention.pairs", "holder", holder, "waiter", waiter)
		o.contPairs[pk] = cp
	}
	cp.Add(1)
}

// proximityLabel names a §IV-A4 proximity distance for registry labels.
func proximityLabel(d int) string {
	switch d {
	case ProximitySameHost:
		return "same_host"
	case ProximitySameZone:
		return "same_zone"
	default:
		return "remote"
	}
}

// SetTracer attaches the cluster to a deployment's tracer: 2PC phases,
// lock waits and TC selections are recorded in the tracer's registry, and
// transactions annotate the caller's active span. A nil tracer detaches.
func (c *Cluster) SetTracer(tr *trace.Tracer) {
	c.tracer = tr
	reg := tr.Registry()
	if reg == nil {
		c.obs = nil
		c.ledger = nil
		c.activeOps = nil
		return
	}
	obs := &clusterObs{
		lockAcq:      reg.Counter("txn.lock.acquisitions"),
		lockWait:     reg.Histogram("txn.lock_wait"),
		batchReads:   reg.Counter("ndb.batch.reads"),
		batchWrites:  reg.Counter("ndb.batch_write.batches"),
		commitTrains: reg.Counter("ndb.commit.trains"),
		trainRows:    reg.Histogram("ndb.commit.rows_per_train"),
		reg:          reg,
		contBlocks:   make(map[string]*trace.Counter),
		contWait:     make(map[string]*trace.Counter),
		contPairs:    make(map[[2]string]*trace.Counter),
	}
	c.ledger = newContentionLedger()
	c.activeOps = make(map[uint64]string)
	for ph := 0; ph < numPhases; ph++ {
		obs.phase[ph] = reg.Histogram("txn.phase." + phaseNames[ph])
	}
	for d := ProximitySameHost; d <= ProximityRemote; d++ {
		obs.tcSelect[d] = reg.Counter("ndb.tc_select", "prox", proximityLabel(d))
		obs.batchRows[d] = reg.Counter("ndb.batch.rows", "prox", proximityLabel(d))
		obs.batchWriteRows[d] = reg.Counter("ndb.batch_write.rows", "prox", proximityLabel(d))
	}
	c.obs = obs
}

// SetHeat attaches a heat collector: every row access attributes one touch
// to the table and partition it lands on, so sharding decisions can be
// grounded in observed partition skew. A nil collector detaches.
func (c *Cluster) SetHeat(h *heat.Collector) {
	c.heat = h
}

// Stats holds cluster-wide transaction counters.
type Stats struct {
	Begun     int64
	Committed int64
	Aborted   int64
	Reads     int64
	Writes    int64
	// Rounds counts the message-exchanging calls transactions made between
	// Begin and Commit — each batch, one-row batches included, and each
	// partition's round of a table scan count once — so a transaction's share
	// of it is its number of sequential storage round trips (the budget of
	// DESIGN §9.1).
	Rounds int64
	// RecvJobs and SendJobs count the RECV and SEND jobs charged, a SEND
	// that overflowed to REP included; LocalSignals counts the signals
	// delivered inside one datanode, which charge neither (Txn.hop).
	RecvJobs, SendJobs, LocalSignals int64
	// UnpricedReleases counts the shared locks a transaction's end dropped
	// at a primary other than its TC: a release that would cost a message,
	// and here costs none.
	UnpricedReleases int64
}

// DataNode is one NDB datanode: a network endpoint plus the Table II thread
// pools.
type DataNode struct {
	c     *Cluster
	Node  *simnet.Node
	Index int
	Group int
	// Domain is the LocationDomainId (§IV-A): the configured AZ, or
	// simnet.ZoneUnset when the deployment is not AZ aware.
	Domain simnet.ZoneID

	threads      [threadTypes]*sim.Resource
	declaredDead bool

	// health holds the thread-pool windows opened at the last health probe
	// (see Cluster.HealthStats).
	health [threadTypes]sim.UtilWindow

	// redoPending accumulates bytes to be flushed at the next global
	// checkpoint.
	redoPending int64

	shutdown bool

	// onSignal and onShutdown handle a fire-and-forget signal — a
	// Complete, a delete's pre-image — and the arbitrator's shutdown order
	// where they arrive. They are bound once, so a send evaluates no method
	// value.
	onSignal, onShutdown func()
}

// MgmtNode is an NDB management node; the elected one arbitrates network
// partitions (§IV-A2).
type MgmtNode struct {
	c    *Cluster
	Node *simnet.Node
}

// Placement locates one datanode: its zone and host.
type Placement struct {
	Zone simnet.ZoneID
	Host simnet.HostID
}

// New builds a cluster with cfg. dataPlacement must have cfg.DataNodes
// entries; node group membership follows the paper's deployments: node i
// joins group i % numGroups, so consecutive placements in the same zone end
// up in different groups and each group spans zones (Figures 3 and 4).
// mgmtPlacement lists management nodes; the first reachable one arbitrates.
func New(env *sim.Env, net *simnet.Network, cfg Config, dataPlacement, mgmtPlacement []Placement) (*Cluster, error) {
	if cfg.DataNodes != len(dataPlacement) {
		return nil, fmt.Errorf("ndb: %d placements for %d datanodes", len(dataPlacement), cfg.DataNodes)
	}
	if cfg.Replication <= 0 || cfg.DataNodes%cfg.Replication != 0 {
		return nil, fmt.Errorf("ndb: datanodes %d not divisible by replication %d", cfg.DataNodes, cfg.Replication)
	}
	c := &Cluster{
		env:        env,
		net:        net,
		cfg:        cfg,
		tables:     make(map[string]*Table),
		arbGranted: make(map[int]int),
		topoEpoch:  1,
	}
	c.workers.fresh = c.newWorker
	c.arms.fresh = c.newArm
	c.txns.fresh = func() *Txn { return &Txn{} }
	c.rows.fresh = c.newRow
	c.joins.fresh = func() *join { return &join{} }
	c.scratch.fresh = func() *batchScratch { return &batchScratch{} }
	numGroups := cfg.DataNodes / cfg.Replication
	c.groups = make([][]*DataNode, numGroups)
	for i, pl := range dataPlacement {
		dn := &DataNode{
			c:     c,
			Node:  net.NewNode(fmt.Sprintf("%sndb-%d", cfg.NamePrefix, i+1), pl.Zone, pl.Host),
			Index: i,
			Group: i % numGroups,
		}
		dn.onSignal, dn.onShutdown = dn.signalArrived, dn.shutdownSelf
		if cfg.AZAware {
			dn.Domain = pl.Zone
		}
		for t := range dn.threads {
			dn.threads[t] = sim.NewResource(env, fmt.Sprintf("%sndb-%d/%s", cfg.NamePrefix, i+1, ThreadType(t)), threadCounts[t])
		}
		c.datanodes = append(c.datanodes, dn)
		c.groups[dn.Group] = append(c.groups[dn.Group], dn)
	}
	for i, pl := range mgmtPlacement {
		c.mgmt = append(c.mgmt, &MgmtNode{c: c, Node: net.NewNode(fmt.Sprintf("%smgm-%d", cfg.NamePrefix, i+1), pl.Zone, pl.Host)})
	}
	c.startBackground()
	return c, nil
}

// Env returns the simulation environment.
func (c *Cluster) Env() *sim.Env { return c.env }

// Net returns the simulated network.
func (c *Cluster) Net() *simnet.Network { return c.net }

// DataNodes returns the cluster's datanodes.
func (c *Cluster) DataNodes() []*DataNode { return c.datanodes }

// NodeGroups returns datanodes grouped into replication node groups.
func (c *Cluster) NodeGroups() [][]*DataNode { return c.groups }

// Alive reports whether the datanode is up and not shut down by
// arbitration.
func (dn *DataNode) Alive() bool { return dn.Node.Alive() && !dn.shutdown }

// Threads exposes the node's thread pools for utilization accounting.
func (dn *DataNode) Threads() [threadTypes]*sim.Resource { return dn.threads }

// HealthStats reports the storage tier's health signal at virtual instant
// now: datanodes that are live (up and not declared dead by arbitration)
// vs expected, whether any node group has lost every replica (the cluster
// cannot serve its partitions then, regardless of how many other nodes
// survive), and the mean thread-pool utilization across live nodes since the
// previous call. When instrumented it also refreshes the per-DN
// ndb.util{dn=...} gauges. There is no queueing signal: thread pools are
// charged as fluid servers (UseDeferred), which keep no waiter queue.
func (c *Cluster) HealthStats(now time.Duration) (live, expected int, groupLost bool, util float64) {
	expected = len(c.datanodes)
	var sum float64
	var n int
	for _, dn := range c.datanodes {
		var nodeSum float64
		for t := range dn.threads {
			nodeSum += dn.health[t].Read(dn.threads[t], now)
			dn.health[t].Mark(dn.threads[t], now)
		}
		nodeUtil := nodeSum / float64(threadTypes)
		if c.obs != nil {
			c.obs.reg.Gauge("ndb.util", "dn", dn.Node.Name()).Set(nodeUtil)
		}
		if !dn.Alive() || dn.declaredDead {
			continue
		}
		live++
		sum += nodeUtil
		n++
	}
	for _, g := range c.groups {
		alive := 0
		for _, dn := range g {
			if dn.Alive() && !dn.declaredDead {
				alive++
			}
		}
		if alive == 0 {
			groupLost = true
		}
	}
	if n > 0 {
		util = sum / float64(n)
	}
	return live, expected, groupLost, util
}

// CreateTable registers a table. Every table in HopsFS-CL is created with
// ReadBackup enabled (§IV-A5 end); baseline HopsFS deployments pass
// opts.ReadBackup=false.
func (c *Cluster) CreateTable(name string, rowSize int, opts TableOptions) *Table {
	t := &Table{
		c:       c,
		name:    name,
		rowSize: rowSize,
		opts:    opts,
	}
	t.partitions = make([]*Partition, c.cfg.PartitionsPerTable)
	numGroups := len(c.groups)
	for i := range t.partitions {
		g := i % numGroups
		t.partitions[i] = &Partition{
			table:   t,
			index:   i,
			group:   g,
			primary: (i / numGroups) % len(c.groups[g]),
			rows:    make(map[string]*bucket),
			reads:   make([]int64, c.cfg.Replication),
		}
	}
	c.tables[name] = t
	return t
}

// Table returns a table by name, or nil.
func (c *Cluster) Table(name string) *Table { return c.tables[name] }

// Contention returns the cluster's lock-contention ledger, or nil when no
// registry-backed tracer is attached.
func (c *Cluster) Contention() *ContentionLedger { return c.ledger }

// opFor names the op type driving a transaction ID: the root span name
// recorded at Begin, the process name for untraced internal work, or
// "(unknown)" for IDs no longer in flight.
func (c *Cluster) opFor(txn uint64) string {
	if op, ok := c.activeOps[txn]; ok {
		return op
	}
	return "(unknown)"
}

// SpreadPlacement returns datanode placements that realize the paper's
// deployment diagrams (Figures 3 and 4): n datanodes spread evenly over the
// given zones in contiguous runs, so that with numGroups = n/replication
// and group membership i % numGroups, every node group spans all the zones.
// Each datanode gets its own host, numbered from hostBase.
func SpreadPlacement(n int, zones []simnet.ZoneID, hostBase int) []Placement {
	per := n / len(zones)
	if per == 0 {
		per = 1
	}
	out := make([]Placement, n)
	for i := range out {
		zi := i / per
		if zi >= len(zones) {
			zi = len(zones) - 1
		}
		out[i] = Placement{Zone: zones[zi], Host: simnet.HostID(hostBase + i)}
	}
	return out
}

// hashKey maps a partition key, string or byte form, to a partition index.
func hashKey[K string | []byte](key K, n int) int { return int(fnv1a(key) % uint32(n)) }

// fnv1a is the 32-bit FNV-1a hash of a partition key, string or byte form.
func fnv1a[K string | []byte](key K) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h
}
