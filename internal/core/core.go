// Package core assembles the paper's systems into runnable deployments: it
// is HopsFS-CL put together — the AZ-aware metadata storage (ndb), metadata
// serving (namenode), and block storage (blocks) layers wired across one or
// three availability zones — plus the baselines, exactly as §V-A deploys
// them. The nine evaluation setups of Figure 5 are predefined.
package core

import (
	"errors"
	"fmt"
	"time"

	"hopsfscl/internal/blocks"
	"hopsfscl/internal/cephfs"
	"hopsfscl/internal/heat"
	"hopsfscl/internal/namenode"
	"hopsfscl/internal/ndb"
	"hopsfscl/internal/objstore"
	"hopsfscl/internal/shard"
	"hopsfscl/internal/sim"
	"hopsfscl/internal/simnet"
	"hopsfscl/internal/slo"
	"hopsfscl/internal/trace"
	"hopsfscl/internal/workload"
)

// System identifies the file system under test.
type System int

// Systems.
const (
	// HopsFS is vanilla HopsFS: no AZ awareness anywhere in the stack.
	HopsFS System = iota + 1
	// HopsFSCL is the paper's contribution: AZ awareness at the metadata
	// storage, metadata serving, and block storage layers.
	HopsFSCL
	// Ceph is the default CephFS setup (dynamic subtree balancing).
	Ceph
	// CephDirPinned manually pins subtrees to MDSs.
	CephDirPinned
	// CephSkipKCache disables the client kernel cache.
	CephSkipKCache
)

// Setup is one evaluated deployment configuration.
type Setup struct {
	// Name matches the paper's figure legends, e.g. "HopsFS-CL (3,3)".
	Name string
	// System selects the stack.
	System System
	// MetaReplication is the metadata replication factor (first tuple
	// element in the paper's naming).
	MetaReplication int
	// Zones is the number of AZs used (second tuple element).
	Zones int
}

// PaperSetups are the nine deployments of Figure 5, in legend order.
var PaperSetups = []Setup{
	{Name: "HopsFS (2,1)", System: HopsFS, MetaReplication: 2, Zones: 1},
	{Name: "HopsFS (3,1)", System: HopsFS, MetaReplication: 3, Zones: 1},
	{Name: "HopsFS (2,3)", System: HopsFS, MetaReplication: 2, Zones: 3},
	{Name: "HopsFS (3,3)", System: HopsFS, MetaReplication: 3, Zones: 3},
	{Name: "HopsFS-CL (2,3)", System: HopsFSCL, MetaReplication: 2, Zones: 3},
	{Name: "HopsFS-CL (3,3)", System: HopsFSCL, MetaReplication: 3, Zones: 3},
	{Name: "CephFS", System: Ceph, MetaReplication: 3, Zones: 3},
	{Name: "CephFS - DirPinned", System: CephDirPinned, MetaReplication: 3, Zones: 3},
	{Name: "CephFS - SkipKCache", System: CephSkipKCache, MetaReplication: 3, Zones: 3},
}

// SetupByName finds a paper setup by its legend name.
func SetupByName(name string) (Setup, bool) {
	for _, s := range PaperSetups {
		if s.Name == name {
			return s, true
		}
	}
	return Setup{}, false
}

// Options parameterize a deployment build.
type Options struct {
	// Setup selects the system and replication/zone configuration.
	Setup Setup
	// MetadataServers is the NN count (or MDS count for CephFS).
	MetadataServers int
	// ClientsPerServer is the closed-loop benchmark client count per
	// metadata server.
	ClientsPerServer int
	// StorageNodes is the NDB datanode count (paper: 12). CephFS uses the
	// same count of OSDs.
	StorageNodes int
	// PartitionsPerTable sets the NDB partition count.
	PartitionsPerTable int
	// Shards is the number of independent NDB clusters the namespace is
	// hash-partitioned across (internal/shard). Zero or one keeps the
	// single-cluster deployment, byte for byte. Each extra shard is a full
	// cluster of StorageNodes datanodes with its own node groups, replica
	// chains, and management nodes.
	Shards int
	// WithBlockLayer adds block storage datanodes, blockDNsPerZone in each
	// zone (not needed for the metadata benchmarks, which use empty files as
	// in §V).
	WithBlockLayer bool
	// ObjectStoreBlocks replaces datanode replication with a cloud object
	// store block backend — the paper's §VII future work.
	ObjectStoreBlocks bool
	// Namespace shapes the pre-seeded tree.
	Namespace workload.NamespaceSpec
	// Seed makes the whole deployment deterministic.
	Seed int64
	// DisableReadBackup turns the Read Backup table option off even on
	// HopsFS-CL — the Figure 14 ablation isolating the feature.
	DisableReadBackup bool
	// NDBBatchFloor overrides the storage engine's batching floor (0 keeps
	// ndb.DefaultConfig's) — used by the batching ablation.
	NDBBatchFloor float64
	// DisableBatchedWrites forces the serial write path: one Prepare pass
	// per row, in sequence, and one commit train per row instead of one of
	// each per replica chain — the ablation isolating the batched write path.
	DisableBatchedWrites bool
	// NNCores, NNOpBase, and NNElectionRound override the metadata-server
	// sizing (zero keeps namenode.DefaultConfig). The elastic experiments
	// use them to shrink per-NN capacity — the paper's 32-vCPU servers never
	// saturate under the benchmark client counts, so autoscaling on real
	// utilization needs smaller servers — and to speed elections up so
	// commissioned servers join the active list within a compressed day.
	NNCores         int
	NNOpBase        time.Duration
	NNElectionRound time.Duration
}

// DefaultOptions returns the evaluation defaults for a setup.
func DefaultOptions(setup Setup) Options {
	return Options{
		Setup:              setup,
		MetadataServers:    12,
		ClientsPerServer:   64,
		StorageNodes:       12,
		PartitionsPerTable: 48,
		Namespace:          workload.DefaultNamespace(),
		Seed:               1,
	}
}

// Deployment is a built, running system with its benchmark clients.
type Deployment struct {
	Env   *sim.Env
	Net   *simnet.Network
	Opts  Options
	Setup Setup

	// Registry aggregates cluster-wide counters and histograms; Tracer owns it
	// and mints per-operation spans. Both are always live (cheap, pre-registered
	// handles); the detailed span sink is off until EnableTracing.
	Registry *trace.Registry
	Tracer   *trace.Tracer

	// HopsFS/HopsFS-CL components (nil for CephFS). Router routes partition
	// keys across the deployment's NDB clusters (the identity over one
	// cluster when Opts.Shards <= 1); reach the clusters themselves through
	// MetaClusters.
	Router *shard.Router
	NS     *namenode.Namesystem
	Blocks *blocks.Manager

	// CephFS components (nil for HopsFS).
	Ceph *cephfs.Cluster

	// Clients are the workload-facing file system handles, one per
	// closed-loop benchmark client.
	Clients []workload.FS

	// Namespace is the seeded tree the workload generators share.
	Namespace *workload.Namespace

	// SLO is the live objective engine, nil until EnableSLO.
	SLO *slo.Engine

	// Heat is the namespace/table heat collector, nil until EnableHeat.
	Heat *heat.Collector

	// Exemplars is the tail-based exemplar store, nil until EnableExemplars.
	Exemplars *slo.Exemplars

	hostSeq int
	// stopped asks every ticker started by every to exit at its next tick
	// (see StopBackground).
	stopped bool
}

// zoneSet returns the zones this deployment spans. Single-AZ deployments
// use us-west1-b (zone 2), as the paper does.
func (o Options) zoneSet() []simnet.ZoneID {
	if o.Setup.Zones == 1 {
		return []simnet.ZoneID{2}
	}
	return []simnet.ZoneID{1, 2, 3}
}

func (d *Deployment) nextHost() simnet.HostID {
	d.hostSeq++
	return simnet.HostID(d.hostSeq)
}

// NamespaceSeed derives the workload-namespace seed from a deployment
// seed. External tools (trace generation) use it to build namespaces that
// match a deployment built with the same seed.
func NamespaceSeed(seed int64) int64 { return seed + 7 }

// Build constructs and seeds a deployment.
func Build(opts Options) (*Deployment, error) {
	if opts.MetadataServers <= 0 {
		return nil, errors.New("core: MetadataServers must be positive")
	}
	env := sim.New(opts.Seed)
	net := simnet.New(env, simnet.USWest1())
	reg := trace.NewRegistry()
	net.SetRegistry(reg)
	d := &Deployment{
		Env: env, Net: net, Opts: opts, Setup: opts.Setup,
		Registry: reg, Tracer: trace.NewTracer(reg),
		hostSeq: 1000,
	}
	d.Namespace = workload.BuildNamespace(opts.Namespace, NamespaceSeed(opts.Seed))

	var err error
	switch opts.Setup.System {
	case HopsFS, HopsFSCL:
		err = d.buildHops()
	case Ceph, CephDirPinned, CephSkipKCache:
		err = d.buildCeph()
	default:
		err = fmt.Errorf("core: unknown system %d", opts.Setup.System)
	}
	if err != nil {
		env.Close()
		return nil, err
	}
	return d, nil
}

// blockDNsPerZone is the block datanode count per zone of a deployment
// built WithBlockLayer: enough for a full replica set inside one zone.
const blockDNsPerZone = 3

func (d *Deployment) buildHops() error {
	opts := d.Opts
	zones := opts.zoneSet()
	aware := opts.Setup.System == HopsFSCL

	dbCfg := ndb.DefaultConfig()
	dbCfg.DataNodes = opts.StorageNodes
	dbCfg.Replication = opts.Setup.MetaReplication
	dbCfg.PartitionsPerTable = opts.PartitionsPerTable
	dbCfg.AZAware = aware
	dbCfg.DisableBatchedWrites = opts.DisableBatchedWrites
	if opts.NDBBatchFloor > 0 {
		dbCfg.BatchFloor = opts.NDBBatchFloor
	}

	// Build order: clusters, then the router over them, then the namesystem
	// on the router. Each cluster stands on fresh hosts; extra shards get a
	// name prefix so node names and gauge labels stay distinct.
	clusters := make([]*ndb.Cluster, max(opts.Shards, 1))
	for s := range clusters {
		cfg := dbCfg
		if s > 0 {
			cfg.NamePrefix = fmt.Sprintf("s%d-", s)
		}
		dataPl := make([]ndb.Placement, 0, opts.StorageNodes)
		for _, pl := range ndb.SpreadPlacement(opts.StorageNodes, zones, 0) {
			dataPl = append(dataPl, ndb.Placement{Zone: pl.Zone, Host: d.nextHost()})
		}
		var mgmtPl []ndb.Placement
		if opts.Setup.Zones == 1 {
			mgmtPl = []ndb.Placement{{Zone: zones[0], Host: d.nextHost()}}
		} else {
			// Figure 4: one management node per AZ; M1 (zone 1) arbitrates.
			for _, z := range zones {
				mgmtPl = append(mgmtPl, ndb.Placement{Zone: z, Host: d.nextHost()})
			}
		}
		c, err := ndb.New(d.Env, d.Net, cfg, dataPl, mgmtPl)
		if err != nil {
			return err
		}
		c.SetTracer(d.Tracer)
		clusters[s] = c
	}
	router, err := shard.NewRouter(clusters)
	if err != nil {
		return err
	}
	router.SetTracer(d.Tracer)
	d.Router = router

	if opts.WithBlockLayer {
		bCfg := blocks.DefaultConfig()
		bCfg.AZAware = aware
		n := blockDNsPerZone * len(zones)
		if opts.ObjectStoreBlocks {
			n = 0 // the provider owns the storage nodes
		}
		var pls []blocks.Placement
		for i := 0; i < n; i++ {
			pls = append(pls, blocks.Placement{Zone: zones[i%len(zones)], Host: d.nextHost()})
		}
		d.Blocks = blocks.NewManager(d.Env, d.Net, bCfg, pls)
		d.Blocks.SetRegistry(d.Registry)
		if opts.ObjectStoreBlocks {
			hosts := make([]simnet.ZoneID, len(zones))
			copy(hosts, zones)
			store := objstore.New(d.Env, d.Net, hosts, int(d.nextHost())+100)
			d.hostSeq += len(zones) + 1
			d.Blocks.UseObjectStore(store)
		}
	}

	nnCfg := namenode.DefaultConfig()
	// HopsFS-CL enables Read Backup on all tables (§IV-A5), unless the
	// Figure 14 ablation explicitly disables it.
	nnCfg.ReadBackup = aware && !opts.DisableReadBackup
	if opts.NNCores > 0 {
		nnCfg.NNCores = opts.NNCores
	}
	if opts.NNOpBase > 0 {
		nnCfg.OpBase = opts.NNOpBase
	}
	if opts.NNElectionRound > 0 {
		nnCfg.ElectionRound = opts.NNElectionRound
	}
	ns := namenode.NewNamesystem(router, d.Blocks, nnCfg)
	ns.SetTracer(d.Tracer)
	d.NS = ns

	domainOf := func(z simnet.ZoneID) simnet.ZoneID {
		if aware {
			return z
		}
		return simnet.ZoneUnset
	}
	for i := 0; i < opts.MetadataServers; i++ {
		z := zones[i%len(zones)]
		ns.AddNameNode(z, d.nextHost(), domainOf(z))
	}
	if err := ns.Seed(d.Namespace.Dirs, d.Namespace.AllFiles()); err != nil {
		return err
	}
	for i := 0; i < opts.MetadataServers*opts.ClientsPerServer; i++ {
		z := zones[i%len(zones)]
		cl := ns.NewClient(z, d.nextHost(), domainOf(z))
		d.Clients = append(d.Clients, hopsAdapter{cl: cl})
	}
	return nil
}

func (d *Deployment) buildCeph() error {
	opts := d.Opts
	zones := opts.zoneSet()

	cfg := cephfs.DefaultConfig()
	cfg.OSDs = opts.StorageNodes
	switch opts.Setup.System {
	case Ceph:
		cfg.Mode = cephfs.Dynamic
		cfg.KernelCache = true
	case CephDirPinned:
		cfg.Mode = cephfs.DirPinned
		cfg.KernelCache = true
	case CephSkipKCache:
		cfg.Mode = cephfs.DirPinned
		cfg.KernelCache = false
	}
	cfg.JournalReplication = opts.Setup.MetaReplication

	mdsZones := make([]simnet.ZoneID, opts.MetadataServers)
	for i := range mdsZones {
		mdsZones[i] = zones[i%len(zones)]
	}
	c := cephfs.New(d.Env, d.Net, cfg, mdsZones, d.hostSeq)
	d.hostSeq += opts.StorageNodes + opts.MetadataServers + 1
	d.Ceph = c
	if err := c.Seed(d.Namespace.Dirs, d.Namespace.AllFiles()); err != nil {
		return err
	}
	for i := 0; i < opts.MetadataServers*opts.ClientsPerServer; i++ {
		z := zones[i%len(zones)]
		cl := c.NewClient(z, d.nextHost())
		d.Clients = append(d.Clients, cephAdapter{cl: cl})
	}
	return nil
}

// EnableTracing turns on detailed span capture: every client operation
// records a full span tree (2PC phases, lock waits, retries, per-hop
// network classes) into a bounded ring sink of the given capacity
// (capacity <= 0 selects the default). The aggregate Registry is always
// on regardless; this only affects the per-span detail.
func (d *Deployment) EnableTracing(capacity int) *trace.Sink {
	return d.Tracer.EnableSink(capacity)
}

// every runs fn every period of virtual time on a background process
// until StopBackground. Every Enable* consumer that needs a clock ticks
// through it, so one flag stops them all; callers must StopBackground
// before expecting Env.Run to quiesce.
func (d *Deployment) every(name string, period time.Duration, fn func(now time.Duration)) {
	d.Env.Spawn(name, func(p *sim.Proc) {
		for !d.stopped {
			p.Sleep(period)
			if d.stopped {
				return
			}
			fn(p.Now())
		}
	})
}

// EnableFlightRecorder samples the registry into a bounded ring every
// interval of virtual time: the run's black box, answering "what did this
// signal look like over time" (see trace.FlightRecorder). keep restricts
// captured metric names by prefix; none keeps everything.
func (d *Deployment) EnableFlightRecorder(interval time.Duration, capacity int, keep ...string) *trace.FlightRecorder {
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	fr := trace.NewFlightRecorder(d.Registry, capacity)
	fr.Keep(keep...)
	d.every("flight-recorder", interval, fr.Record)
	return fr
}

// EnableSLO starts the live SLO engine: every finishing root operation
// feeds the engine's windowed latency sketches, the deployment's
// components register health probes (NN thread-pool utilization, NDB
// liveness/utilization, block under-replication), and every spec.Tick of
// virtual time the engine evaluates the burn-rate alerter and health
// model. Pass a zero slo.Spec for DefaultSpec. An exemplar store enabled earlier is rebound
// to this engine's objectives.
func (d *Deployment) EnableSLO(spec slo.Spec) *slo.Engine {
	eng := slo.NewEngine(spec)
	d.SLO = eng
	d.Exemplars.SetEngine(eng)
	d.Tracer.OnOp(eng.ObserveOp)
	if d.NS != nil {
		ns := d.NS
		eng.RegisterComponent("namenode", func(now time.Duration) slo.ComponentStats {
			live, expected, util := ns.HealthStats(now)
			return slo.ComponentStats{Live: live, Expected: expected, Quorum: 1, Util: util}
		})
	}
	for i, c := range d.MetaClusters() {
		db := c
		// Shard 0 keeps the historical "ndb" component name; extra shards
		// are health-tracked as their own components, so one failing shard
		// degrades cluster health without masking the others.
		name := "ndb"
		if i > 0 {
			name = fmt.Sprintf("ndb-s%d", i)
		}
		eng.RegisterComponent(name, func(now time.Duration) slo.ComponentStats {
			live, expected, groupLost, util := db.HealthStats(now)
			st := slo.ComponentStats{
				Live: live, Expected: expected, Quorum: expected/2 + 1,
				Util: util,
			}
			if groupLost {
				// A node group with no surviving replica means lost
				// partitions: the cluster cannot serve, however many other
				// nodes are up.
				st.Live = 0
			}
			return st
		})
	}
	if d.Blocks != nil {
		bm := d.Blocks
		eng.RegisterComponent("blocks", func(time.Duration) slo.ComponentStats {
			live, expected, under := bm.HealthStats()
			return slo.ComponentStats{Live: live, Expected: expected, Quorum: 1, Pressure: float64(under)}
		})
	}
	d.every("slo-engine", eng.Spec().Tick, func(now time.Duration) { eng.Tick(now) })
	return eng
}

// EnableHeat starts namespace heat tracking: the namenode layer attributes
// every operation's target path (per-depth subtree prefixes) and every
// inode row read, the NDB layer attributes every row access to its table
// and partition, and every finishing root operation feeds per-op-class
// touches.
func (d *Deployment) EnableHeat() *heat.Collector {
	h := heat.NewCollector()
	d.Heat = h
	d.Tracer.OnOp(h.ObserveOp)
	if d.NS != nil {
		d.NS.SetHeat(h)
	}
	for _, c := range d.MetaClusters() {
		c.SetHeat(h)
	}
	if d.Router != nil {
		d.Router.SetHeat(h)
	}
	return h
}

// EnableExemplars starts tail-based exemplar capture: every finished
// detailed span tree is judged against the SLO engine's latency
// objectives and burn alerts, and qualifying trees are pinned in a bounded
// deterministic store. Exemplars need a sink to see any spans and
// objectives to judge them by, so a deployment without one gets a
// default-capacity sink and a DefaultSpec engine here; call EnableTracing
// or EnableSLO first for other values (an engine enabled later still
// takes over the store's objectives). Pass a zero config for defaults.
func (d *Deployment) EnableExemplars(cfg slo.ExemplarConfig) *slo.Exemplars {
	if d.Tracer.Sink() == nil {
		d.EnableTracing(0)
	}
	if d.SLO == nil {
		d.EnableSLO(slo.Spec{})
	}
	x := slo.NewExemplars(d.SLO, cfg)
	d.Exemplars = x
	d.Tracer.OnSpan(x.Observe)
	return x
}

// StopBackground halts housekeeping processes so Env.Run can quiesce.
func (d *Deployment) StopBackground() {
	d.stopped = true
	for _, c := range d.MetaClusters() {
		c.StopBackground()
	}
	if d.NS != nil {
		d.NS.StopBackground()
	}
	if d.Blocks != nil {
		d.Blocks.Stop()
	}
	if d.Ceph != nil {
		d.Ceph.Stop()
	}
}

// Close releases the deployment's simulation resources.
func (d *Deployment) Close() { d.Env.Close() }

// ServerCPUs returns the metadata servers' CPU resources (NN or MDS).
func (d *Deployment) ServerCPUs() []*sim.Resource {
	var out []*sim.Resource
	if d.NS != nil {
		for _, nn := range d.NS.NameNodes() {
			out = append(out, nn.CPU())
		}
	}
	if d.Ceph != nil {
		for _, m := range d.Ceph.MDSs() {
			out = append(out, m.CPU())
		}
	}
	return out
}

// MetaClusters returns every NDB metadata cluster in shard order — one for
// unsharded deployments, Opts.Shards of them otherwise (nil for CephFS).
func (d *Deployment) MetaClusters() []*ndb.Cluster {
	if d.Router == nil {
		return nil
	}
	return d.Router.Clusters()
}

// StorageCPUs returns the storage layer's CPU resources: every NDB thread
// pool, across all shards. CephFS OSD CPU stays flat and low in the paper
// (§V-D1); disk and network are the interesting OSD signals, reported via
// StorageNodes.
func (d *Deployment) StorageCPUs() []*sim.Resource {
	var out []*sim.Resource
	for _, c := range d.MetaClusters() {
		for _, dn := range c.DataNodes() {
			threads := dn.Threads()
			out = append(out, threads[:]...)
		}
	}
	return out
}

// StorageNodes returns the storage layer's network nodes (NDB datanodes or
// OSDs) for NIC/disk accounting.
func (d *Deployment) StorageNodes() []*simnet.Node {
	var out []*simnet.Node
	for _, c := range d.MetaClusters() {
		for _, dn := range c.DataNodes() {
			out = append(out, dn.Node)
		}
	}
	if d.Ceph != nil {
		for _, o := range d.Ceph.OSDs() {
			out = append(out, o.Node)
		}
	}
	return out
}

// ServerNodes returns the metadata servers' network nodes.
func (d *Deployment) ServerNodes() []*simnet.Node {
	var out []*simnet.Node
	if d.NS != nil {
		for _, nn := range d.NS.NameNodes() {
			out = append(out, nn.Node)
		}
	}
	if d.Ceph != nil {
		for _, m := range d.Ceph.MDSs() {
			out = append(out, m.Node)
		}
	}
	return out
}

// ServerRequests returns the number of requests actually handled by each
// metadata server (Figure 6: kernel-cache hits never reach a CephFS MDS).
func (d *Deployment) ServerRequests() []int64 {
	var out []int64
	if d.NS != nil {
		for _, nn := range d.NS.NameNodes() {
			out = append(out, nn.Ops)
		}
	}
	if d.Ceph != nil {
		for _, m := range d.Ceph.MDSs() {
			out = append(out, m.Requests)
		}
	}
	return out
}

// hopsAdapter adapts a HopsFS/HopsFS-CL client to the workload interface.
// Files are created empty, as in all §V metadata benchmarks.
type hopsAdapter struct{ cl *namenode.Client }

var _ workload.FS = hopsAdapter{}

func (a hopsAdapter) Mkdir(p *sim.Proc, path string) error  { return a.cl.Mkdir(p, path) }
func (a hopsAdapter) Create(p *sim.Proc, path string) error { return a.cl.Create(p, path, 0) }
func (a hopsAdapter) Stat(p *sim.Proc, path string) error {
	_, err := a.cl.Stat(p, path)
	return err
}
func (a hopsAdapter) Read(p *sim.Proc, path string) error {
	_, err := a.cl.ReadFile(p, path)
	return err
}
func (a hopsAdapter) List(p *sim.Proc, path string) error {
	_, err := a.cl.List(p, path)
	return err
}
func (a hopsAdapter) Delete(p *sim.Proc, path string) error { return a.cl.Delete(p, path, false) }
func (a hopsAdapter) Rename(p *sim.Proc, src, dst string) error {
	return a.cl.Rename(p, src, dst)
}
func (a hopsAdapter) SetPermission(p *sim.Proc, path string) error {
	return a.cl.SetPermission(p, path, 0o644)
}

// cephAdapter adapts a CephFS kernel client to the workload interface.
type cephAdapter struct{ cl *cephfs.Client }

var _ workload.FS = cephAdapter{}

func (a cephAdapter) Mkdir(p *sim.Proc, path string) error  { return a.cl.Mkdir(p, path) }
func (a cephAdapter) Create(p *sim.Proc, path string) error { return a.cl.Create(p, path, 0) }
func (a cephAdapter) Stat(p *sim.Proc, path string) error   { return a.cl.Stat(p, path) }
func (a cephAdapter) Read(p *sim.Proc, path string) error   { return a.cl.Read(p, path) }
func (a cephAdapter) List(p *sim.Proc, path string) error   { return a.cl.List(p, path) }
func (a cephAdapter) Delete(p *sim.Proc, path string) error { return a.cl.Delete(p, path, false) }
func (a cephAdapter) Rename(p *sim.Proc, src, dst string) error {
	return a.cl.Rename(p, src, dst)
}
func (a cephAdapter) SetPermission(p *sim.Proc, path string) error {
	return a.cl.SetPermission(p, path, 0o644)
}
