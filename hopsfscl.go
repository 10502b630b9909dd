// Package hopsfscl is a from-scratch reproduction of HopsFS-CL, the
// availability-zone-aware distributed hierarchical file system of
// "Distributed Hierarchical File Systems strike back in the Cloud"
// (ICDCS 2020): HDFS-compatible metadata operations executed as
// transactions on an NDB-style replicated storage engine, with AZ
// awareness at the metadata storage, metadata serving, and block storage
// layers.
//
// The whole system — network, database, metadata servers, block storage,
// clients — runs inside a deterministic discrete-event simulation, so a
// three-AZ deployment with replicated metadata fits in one process and one
// test. The public API is synchronous: each call drives the simulation
// until the operation completes.
//
//	cluster, err := hopsfscl.New()        // HopsFS-CL (3,3): 3 AZs, RF 3
//	defer cluster.Close()
//	fs := cluster.Client(1)               // a client in us-west1-a
//	fs.MkdirAll("/data/logs")
//	fs.WriteFile("/data/logs/app.log", 64<<10)  // small file: inline in NDB
//	cluster.FailZone(2)                   // an AZ goes dark
//	fs.ReadFile("/data/logs/app.log")     // still readable
//
// The benchmark harness reproducing every table and figure of the paper
// lives in cmd/hopsbench; see DESIGN.md and EXPERIMENTS.md.
package hopsfscl

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"hopsfscl/internal/bench"
	"hopsfscl/internal/chaos"
	"hopsfscl/internal/core"
	"hopsfscl/internal/namenode"
	"hopsfscl/internal/sim"
	"hopsfscl/internal/simnet"
	"hopsfscl/internal/workload"
)

// Re-exported file system errors.
var (
	ErrNotFound    = namenode.ErrNotFound
	ErrExists      = namenode.ErrExists
	ErrNotDir      = namenode.ErrNotDir
	ErrIsDir       = namenode.ErrIsDir
	ErrNotEmpty    = namenode.ErrNotEmpty
	ErrInvalidPath = namenode.ErrInvalidPath
)

// FileInfo describes a file or directory.
type FileInfo struct {
	Name   string
	Path   string
	Dir    bool
	Size   int64
	Perm   uint16
	Owner  string
	Inline bool // small file stored inline in the metadata layer
	Blocks int  // block count for large files
}

// Option configures New.
type Option interface{ apply(*options) }

type options struct {
	setupName         string
	metadataServers   int
	seed              int64
	shards            int
	withoutBlocks     bool
	objectStoreBlocks bool
}

type optionFunc func(*options)

func (f optionFunc) apply(o *options) { f(o) }

// WithSetup selects one of the paper's deployment setups by legend name,
// e.g. "HopsFS-CL (3,3)" (the default), "HopsFS (2,1)", "HopsFS-CL (2,3)".
func WithSetup(name string) Option {
	return optionFunc(func(o *options) { o.setupName = name })
}

// WithMetadataServers sets the number of metadata servers (default 3, one
// per AZ).
func WithMetadataServers(n int) Option {
	return optionFunc(func(o *options) { o.metadataServers = n })
}

// WithoutBlockLayer builds a metadata-only cluster (all files inline).
func WithoutBlockLayer() Option {
	return optionFunc(func(o *options) { o.withoutBlocks = true })
}

// WithObjectStoreBlocks stores large-file blocks in a cloud object store
// instead of on replicated block datanodes — the integration the paper
// names as future work (§VII) to make storage and inter-AZ networking
// costs competitive with native cloud object stores.
func WithObjectStoreBlocks() Option {
	return optionFunc(func(o *options) { o.objectStoreBlocks = true })
}

// WithShards shards the namespace by subtree across n independent NDB
// clusters (default 1, the paper's single-cluster deployment). A top-level
// directory's row routes by the hash of its name, and everything below it
// lives on the same shard, so a path resolves and an operation commits on
// one shard; only a rename between subtrees on different shards pays a
// cross-cluster ordered commit. Fault injection
// (FailZone, RecoverZone, PartitionZones, HealZones) and Stats span every
// shard. See DESIGN.md §13.
func WithShards(n int) Option {
	return optionFunc(func(o *options) { o.shards = n })
}

// WithSeed sets the deterministic simulation seed (default 1).
func WithSeed(seed int64) Option {
	return optionFunc(func(o *options) { o.seed = seed })
}

// storageNodes is the NDB datanode count of every facade cluster, per shard
// (the paper's evaluation uses 12).
const storageNodes = 6

// Cluster is a running HopsFS-CL deployment.
type Cluster struct {
	d *core.Deployment
}

// New builds and starts a cluster. The default deployment is the paper's
// HopsFS-CL (3,3): metadata replicated three ways across the three AZs of
// a us-west1-like region, Read Backup on all tables, AZ-aware coordinator
// selection and block placement.
func New(opts ...Option) (*Cluster, error) {
	o := options{
		setupName:       "HopsFS-CL (3,3)",
		metadataServers: 3,
		seed:            1,
	}
	for _, opt := range opts {
		opt.apply(&o)
	}
	setup, ok := core.SetupByName(o.setupName)
	if !ok {
		return nil, fmt.Errorf("hopsfscl: unknown setup %q", o.setupName)
	}
	if setup.System != core.HopsFS && setup.System != core.HopsFSCL {
		return nil, errors.New("hopsfscl: the CephFS baselines are benchmark-only; use cmd/hopsbench")
	}
	buildOpts := core.Options{
		Setup:            setup,
		MetadataServers:  o.metadataServers,
		ClientsPerServer: 0, // no benchmark clients; the API creates clients on demand
		StorageNodes:     storageNodes,
		// A partition count in the spirit of the evaluation deployments.
		PartitionsPerTable: 4 * storageNodes,
		WithBlockLayer:     !o.withoutBlocks,
		ObjectStoreBlocks:  o.objectStoreBlocks,
		Shards:             o.shards,
		Namespace:          workload.NamespaceSpec{}, // start empty
		Seed:               o.seed,
	}
	d, err := core.Build(buildOpts)
	if err != nil {
		return nil, err
	}
	c := &Cluster{d: d}
	// Let elections and heartbeats establish steady state.
	d.Env.RunFor(3 * time.Second)
	return c, nil
}

// Close tears the cluster down.
func (c *Cluster) Close() { c.d.Close() }

// Setups returns the names of all predefined deployments.
func Setups() []string {
	out := make([]string, len(core.PaperSetups))
	for i, s := range core.PaperSetups {
		out[i] = s.Name
	}
	return out
}

// Zones returns the availability zone names of the cluster's region.
func (c *Cluster) Zones() []string {
	topo := c.d.Net.Topology()
	out := make([]string, topo.Zones())
	for i := range out {
		out[i] = topo.ZoneName(simnet.ZoneID(i + 1))
	}
	return out
}

// run executes fn as a simulation process and drives the clock until it
// finishes.
func (c *Cluster) run(fn func(p *sim.Proc) error) error {
	var err error
	done := false
	c.d.Env.Spawn("api", func(p *sim.Proc) {
		err = fn(p)
		p.Flush() // settle deferred I/O time before reporting completion
		done = true
	})
	if !c.d.Env.RunUntil(func() bool { return done }, 10*time.Millisecond, 100*time.Second) {
		return errors.New("hopsfscl: operation did not complete within the simulation budget")
	}
	return err
}

// Advance runs the cluster for d of virtual time (heartbeats, elections,
// checkpoints, re-replication all progress).
func (c *Cluster) Advance(d time.Duration) { c.d.Env.RunFor(d) }

// now returns the virtual clock (used by benchmarks to time operations).
func (c *Cluster) now() time.Duration { return c.d.Env.Now() }

// Client returns a file system client in the given zone (1-based; the
// client's locationDomainId is set for AZ-aware deployments).
func (c *Cluster) Client(zone int) *FS {
	z := simnet.ZoneID(zone)
	domain := z
	if c.d.Setup.System == core.HopsFS {
		domain = simnet.ZoneUnset
	}
	if c.d.Setup.Zones == 1 {
		z = 2 // single-AZ deployments live in us-west1-b
		domain = simnet.ZoneUnset
	}
	cl := c.d.NS.NewClient(z, simnet.HostID(5000+len(c.d.Clients)+zone*17), domain)
	return &FS{c: c, cl: cl}
}

// FailZone takes down every storage node of every shard, every metadata
// server and every block datanode in the zone.
func (c *Cluster) FailZone(zone int) {
	c.d.FailZone(simnet.ZoneID(zone))
	// Give failure detection, promotion and re-election time to act.
	c.d.Env.RunFor(2 * time.Second)
}

// PartitionZones severs the network between two zones. The NDB arbitration
// protocol of every shard decides which side survives; call Advance or any
// operation to let it play out.
func (c *Cluster) PartitionZones(a, b int) {
	c.d.Partition(simnet.ZoneID(a), simnet.ZoneID(b))
	c.d.Env.RunFor(2 * time.Second)
}

// HealZones restores the network between two zones.
func (c *Cluster) HealZones(a, b int) {
	c.d.Heal(simnet.ZoneID(a), simnet.ZoneID(b))
}

// RecoverZone brings a failed zone back: the storage nodes of every shard
// rejoin their cluster and resync their partitions from surviving
// primaries, metadata servers restart and rejoin the leader election, and
// block datanodes come back online.
func (c *Cluster) RecoverZone(zone int) error {
	err := c.run(func(p *sim.Proc) error {
		c.d.RecoverZone(p, simnet.ZoneID(zone))
		return nil
	})
	if err != nil {
		return err
	}
	c.d.Env.RunFor(3 * time.Second) // elections, heartbeats settle
	return nil
}

// FailNameNode kills the i-th metadata server (1-based).
func (c *Cluster) FailNameNode(i int) error {
	nns := c.d.NS.NameNodes()
	if i < 1 || i > len(nns) {
		return fmt.Errorf("hopsfscl: no metadata server %d", i)
	}
	nns[i-1].Fail()
	c.d.Env.RunFor(2 * time.Second)
	return nil
}

// LeaderID returns the id of the currently elected leader metadata server.
func (c *Cluster) LeaderID() int {
	if l := c.d.NS.ElectedLeader(); l != nil {
		return l.ID
	}
	return 0
}

// Stats is a snapshot of cluster-wide counters; the storage figures span
// every shard.
type Stats struct {
	// Transactions committed/aborted on the metadata storage layer.
	CommittedTxns, AbortedTxns int64
	// CrossZoneBytes is cumulative traffic that crossed AZ boundaries.
	CrossZoneBytes int64
	// TotalBytes is cumulative traffic on all links.
	TotalBytes int64
	// ReReplications counts block re-replications after failures.
	ReReplications int64
	// AliveStorageNodes / AliveNameNodes report current membership.
	AliveStorageNodes, AliveNameNodes int
}

// Stats returns a snapshot of cluster counters.
func (c *Cluster) Stats() Stats {
	meta := c.d.MetaStats()
	s := Stats{
		CommittedTxns:  meta.Committed,
		AbortedTxns:    meta.Aborted,
		CrossZoneBytes: c.d.Net.CrossZoneBytes(),
		TotalBytes:     c.d.Net.TotalBytes(),
	}
	if c.d.Blocks != nil {
		s.ReReplications = c.d.Blocks.ReReplications
	}
	s.AliveStorageNodes, _ = c.d.LiveStorageNodes()
	for _, nn := range c.d.NS.NameNodes() {
		if nn.Alive() {
			s.AliveNameNodes++
		}
	}
	return s
}

// FS is a synchronous file system handle bound to one client.
type FS struct {
	c  *Cluster
	cl *namenode.Client
}

// Mkdir creates a directory.
func (f *FS) Mkdir(path string) error {
	return f.c.run(func(p *sim.Proc) error { return f.cl.Mkdir(p, path) })
}

// MkdirAll creates a directory and any missing ancestors.
func (f *FS) MkdirAll(path string) error {
	return f.c.run(func(p *sim.Proc) error { return f.cl.MkdirAll(p, path) })
}

// Create creates an empty file.
func (f *FS) Create(path string) error {
	return f.c.run(func(p *sim.Proc) error { return f.cl.Create(p, path, 0) })
}

// WriteFile creates a file of the given size. Files at or below 128 KB are
// stored inline with the metadata in NDB (§II-A3); larger files are split
// into blocks, replicated with at least one copy per AZ (§IV-C).
func (f *FS) WriteFile(path string, size int64) error {
	return f.c.run(func(p *sim.Proc) error { return f.cl.WriteFile(p, path, size) })
}

// ReadFile reads a file (metadata + inline data or AZ-local block reads)
// and returns its info.
func (f *FS) ReadFile(path string) (FileInfo, error) {
	var out FileInfo
	err := f.c.run(func(p *sim.Proc) error {
		ino, err := f.cl.ReadFile(p, path)
		if err != nil {
			return err
		}
		out = toFileInfo(path, ino)
		return nil
	})
	return out, err
}

// Stat returns metadata for a path.
func (f *FS) Stat(path string) (FileInfo, error) {
	var out FileInfo
	err := f.c.run(func(p *sim.Proc) error {
		ino, err := f.cl.Stat(p, path)
		if err != nil {
			return err
		}
		out = toFileInfo(path, ino)
		return nil
	})
	return out, err
}

// List returns a directory's children, name-sorted.
func (f *FS) List(path string) ([]FileInfo, error) {
	var out []FileInfo
	err := f.c.run(func(p *sim.Proc) error {
		kids, err := f.cl.List(p, path)
		if err != nil {
			return err
		}
		for i := range kids.Len() {
			k := kids.At(i)
			out = append(out, toFileInfo(joinPath(path, k.Name), k))
		}
		return nil
	})
	return out, err
}

// Delete removes a file or directory (recursive removes subtrees).
func (f *FS) Delete(path string, recursive bool) error {
	return f.c.run(func(p *sim.Proc) error { return f.cl.Delete(p, path, recursive) })
}

// Rename atomically moves src to dst — the operation cloud object stores
// cannot provide (§I).
func (f *FS) Rename(src, dst string) error {
	return f.c.run(func(p *sim.Proc) error { return f.cl.Rename(p, src, dst) })
}

// SetPermission updates mode bits.
func (f *FS) SetPermission(path string, perm uint16) error {
	return f.c.run(func(p *sim.Proc) error { return f.cl.SetPermission(p, path, perm) })
}

// SetOwner updates ownership.
func (f *FS) SetOwner(path, owner string) error {
	return f.c.run(func(p *sim.Proc) error { return f.cl.SetOwner(p, path, owner) })
}

// Exists reports whether a path resolves.
func (f *FS) Exists(path string) (bool, error) {
	var ok bool
	err := f.c.run(func(p *sim.Proc) error {
		got, err := f.cl.Exists(p, path)
		ok = got
		return err
	})
	return ok, err
}

// Du returns a subtree's content summary: file count, directory count
// (including the root of the walk), and total logical bytes.
func (f *FS) Du(path string) (files, dirs int, bytes int64, err error) {
	err = f.c.run(func(p *sim.Proc) error {
		var ierr error
		files, dirs, bytes, ierr = f.cl.Du(p, path)
		return ierr
	})
	return files, dirs, bytes, err
}

func toFileInfo(path string, ino *namenode.Inode) FileInfo {
	return FileInfo{
		Name:   ino.Name,
		Path:   path,
		Dir:    ino.Dir,
		Size:   ino.Size,
		Perm:   ino.Perm,
		Owner:  ino.Owner,
		Inline: ino.InlineSize > 0,
		Blocks: len(ino.Blocks),
	}
}

func joinPath(dir, name string) string {
	if dir == "/" {
		return "/" + name
	}
	return dir + "/" + name
}

// ChaosReport is the outcome of one chaos campaign: operation and history
// counts, invariant checkpoints and violations, per-fault recovery times,
// and unavailability windows. Render formats it deterministically.
type ChaosReport = chaos.Report

// ServingNameNodes reports how many metadata servers currently accept new
// operations (draining servers no longer count). Zero for CephFS clusters,
// which have no elastic tier.
func (c *Cluster) ServingNameNodes() int { return c.d.ServingNNs() }

// ScaleUp commissions n additional metadata servers online, placed in the
// zones with the fewest serving servers. The tier is stateless (§II-A2), so
// new servers serve as soon as they join the election; clients re-spread
// over the grown set at their next operation.
func (c *Cluster) ScaleUp(n int) error {
	if n <= 0 {
		return fmt.Errorf("hopsfscl: ScaleUp(%d)", n)
	}
	c.d.AddNameNodes(n)
	c.d.Env.RunFor(500 * time.Millisecond) // join the election, start serving
	return nil
}

// ScaleDown gracefully drains n metadata servers (youngest first, never
// below one serving server) and waits for their in-flight operations to
// finish before decommissioning them. Returns how many servers actually
// left the tier.
func (c *Cluster) ScaleDown(n int) int {
	if n <= 0 {
		return 0
	}
	victims := c.d.DrainNameNodes(n)
	c.d.Env.RunUntil(func() bool { return c.d.FinishDrains() == 0 }, 10*time.Millisecond, time.Second)
	return len(victims)
}

// RunChaos executes a declarative fault schedule against this cluster
// under the chaos engine: an audited workload runs on virtual time while
// the schedule injects AZ failures, partitions, node crashes, and link
// degradations; at every step the engine quiesces and verifies the
// cross-layer invariants (replica liveness, checkpoint durability, block
// placement, namespace agreement, leader uniqueness), and afterwards the
// clients' recorded history must have a linearization (nsmodel.Check): no
// acknowledged write lost, no stale read. The schedule text is
// line-oriented:
//
//	at 4s fail-zone 2
//	at 10s recover-zone 2
//	at 16s partition 1 3
//	at 21s heal 1 3
//
// The seed drives the workload's operation mix. The cluster keeps running
// afterwards in whatever state the schedule left it.
func (c *Cluster) RunChaos(schedule string, seed int64) (*ChaosReport, error) {
	sched, err := chaos.ParseSchedule(schedule)
	if err != nil {
		return nil, err
	}
	eng, err := chaos.NewEngine(c.d, sched, chaos.Config{Seed: seed})
	if err != nil {
		return nil, err
	}
	return eng.Run()
}

// RunExperiment regenerates one of the paper's tables or figures ("table1",
// "fig5", ..., "failures") and returns its markdown section: the report and
// a table of the claims judged on it. full selects the complete parameter
// grid. It fails when a claim flips from its recorded verdict.
func RunExperiment(id string, full bool, seed int64) (string, error) {
	exp, ok := bench.ExperimentByID(id)
	if !ok {
		return "", fmt.Errorf("hopsfscl: unknown experiment %q", id)
	}
	md, claims, err := exp.Section(bench.ExpOptions{Full: full, Seed: seed})
	if flips := bench.Flips(claims); err == nil && len(flips) > 0 {
		err = fmt.Errorf("hopsfscl: %s: claims flipped: %s", id, strings.Join(flips, ", "))
	}
	return md, err
}
