// Package cephfs models the comparison baseline of the paper's evaluation
// (§V-A(b)): a CephFS cluster with monitor-elided setup, object storage
// daemons (OSDs) backing the metadata pool, and metadata servers (MDSs)
// that each own a subtree of the namespace.
//
// The model captures exactly the mechanisms the paper credits for CephFS's
// measured behaviour:
//
//   - each MDS is single threaded and serializes on a global lock (a CPU
//     resource of capacity one), bounding per-MDS throughput;
//   - the namespace is partitioned across MDSs by subtree, either by the
//     dynamic balancer or by manual pinning (CephFS - DirPinned);
//   - kernel clients cache inodes under capabilities granted by the MDS;
//     cache hits are served locally, and the MDS pays to track and revoke
//     capabilities on mutations (CephFS - SkipKCache disables the cache);
//   - every mutation is journaled, and journals are periodically flushed
//     to the OSDs' disks — the disk load that caps DirPinned throughput
//     past 24 MDSs (§V-D1).
package cephfs

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"hopsfscl/internal/sim"
	"hopsfscl/internal/simnet"
)

// Namespace errors (mirroring the namenode package's semantics).
var (
	ErrNotFound = errors.New("cephfs: no such file or directory")
	ErrExists   = errors.New("cephfs: file exists")
	ErrNotDir   = errors.New("cephfs: not a directory")
	ErrIsDir    = errors.New("cephfs: is a directory")
	ErrNotEmpty = errors.New("cephfs: directory not empty")
	ErrInvalid  = errors.New("cephfs: invalid path")
	ErrDown     = errors.New("cephfs: mds unavailable")
)

// Mode selects the metadata load-balancing strategy.
type Mode int

// Balancing modes.
const (
	// Dynamic is the default CephFS subtree balancer: subtrees migrate
	// between MDSs chasing load, with lag.
	Dynamic Mode = iota + 1
	// DirPinned statically pins top-level directories to MDSs (the
	// paper's "CephFS - DirPinned" setup).
	DirPinned
)

// Config parameterizes the cluster.
type Config struct {
	// OSDs is the number of object storage daemons (paper: 12, matching
	// the 12 NDB datanodes).
	OSDs int
	// Mode selects dynamic balancing or manual pinning.
	Mode Mode
	// KernelCache enables client-side caching under capabilities; false
	// reproduces "CephFS - SkipKCache".
	KernelCache bool
	// JournalReplication is the metadata-pool replication factor: each
	// flush is written to this many OSDs (paper: 3).
	JournalReplication int
}

// The part of DefaultConfig's calibration that no setup varies.
const (
	// journalFlushInterval is how often each MDS flushes its journal.
	journalFlushInterval = 25 * time.Millisecond
	// journalEntryBytes is the journal growth per mutating operation.
	journalEntryBytes = 16 << 10
	// balanceInterval is the dynamic balancer period.
	balanceInterval = 50 * time.Millisecond
	// osdDiskBandwidth is the metadata-pool disk throughput per OSD
	// (bytes/second).
	osdDiskBandwidth = 120e6
)

// The single-threaded MDS's and the client's calibrated service times.
const (
	// costMDSOp is the base cost of handling one request under the MDS
	// global lock.
	costMDSOp = 180 * time.Microsecond
	// costPerComponent is charged per path component resolved.
	costPerComponent = 8 * time.Microsecond
	// costCapIssue is charged when granting a capability to a caching
	// client.
	costCapIssue = 12 * time.Microsecond
	// costCapRevokePerClient is charged per client notified when a mutation
	// invalidates cached capabilities.
	costCapRevokePerClient = 10 * time.Microsecond
	// costClientCacheHit is the end-to-end client cost of a kernel-cache
	// hit: VFS + benchmark-tool overhead. Calibrated from the paper's own
	// Figure 8 (CephFS-DirPinned average latency is ~1.9x below
	// HopsFS-CL's ~1.4 ms, i.e. cached operations complete in ~0.7 ms).
	costClientCacheHit = 700 * time.Microsecond
	// costJournalFlushCPU is the MDS thread time consumed per flush.
	costJournalFlushCPU = 2 * time.Millisecond
)

// DefaultConfig returns a configuration calibrated against the paper's
// CephFS v13.2.4 measurements (≈4.2 kops/s per unloaded pinned MDS).
func DefaultConfig() Config {
	return Config{
		OSDs:               12,
		Mode:               Dynamic,
		KernelCache:        true,
		JournalReplication: 3,
	}
}

// cnode is one namespace entry (CephFS keeps the authoritative tree in MDS
// memory, persisted via the journal and directory objects on OSDs).
type cnode struct {
	name     string
	dir      bool
	size     int64
	perm     uint16
	owner    string
	children map[string]*cnode
}

// Cluster is a running CephFS deployment.
type Cluster struct {
	env *sim.Env
	net *simnet.Network
	cfg Config

	osds []*OSD
	mdss []*MDS
	root *cnode

	// owners maps top-level directory names to MDS indices; the root
	// itself is owned by MDS 0.
	owners map[string]int

	clients []*Client
	stop    bool
	osdNext int
}

// OSD is one object storage daemon.
type OSD struct {
	Node *simnet.Node
}

// MDS is one single-threaded metadata server.
type MDS struct {
	c     *Cluster
	Node  *simnet.Node
	Index int

	// cpu has capacity 1: the MDS global lock (§VI).
	cpu *sim.Resource

	journalBytes int

	// caps tracks which clients hold capabilities on which paths.
	caps map[string]map[*Client]bool

	// Requests counts MDS-handled requests (Figure 6's per-MDS
	// throughput); cache hits never reach the MDS.
	Requests int64
	// loadWindow counts requests since the last balancer pass.
	loadWindow int64

	down bool
}

// CPU exposes the MDS thread for utilization accounting.
func (m *MDS) CPU() *sim.Resource { return m.cpu }

// Alive reports whether the MDS is serving.
func (m *MDS) Alive() bool { return m.Node.Alive() && !m.down }

// Fail takes the MDS down.
func (m *MDS) Fail() { m.down = true; m.Node.Fail() }

// New builds a CephFS cluster with the given MDS placements; OSDs are
// spread round-robin over the zones used by the MDSs (the paper deploys
// CephFS HA across 3 AZs with metadata replication 3).
func New(env *sim.Env, net *simnet.Network, cfg Config, mdsPlacements []simnet.ZoneID, hostBase int) *Cluster {
	c := &Cluster{
		env:    env,
		net:    net,
		cfg:    cfg,
		root:   &cnode{name: "", dir: true, perm: 0o755, children: make(map[string]*cnode)},
		owners: make(map[string]int),
	}
	zones := map[simnet.ZoneID]bool{}
	var zoneList []simnet.ZoneID
	for _, z := range mdsPlacements {
		if !zones[z] {
			zones[z] = true
			zoneList = append(zoneList, z)
		}
	}
	if len(zoneList) == 0 {
		zoneList = []simnet.ZoneID{1}
	}
	for i := 0; i < cfg.OSDs; i++ {
		node := net.NewNode(fmt.Sprintf("osd-%d", i+1), zoneList[i%len(zoneList)], simnet.HostID(hostBase+i))
		node.DiskBandwidth = osdDiskBandwidth
		c.osds = append(c.osds, &OSD{Node: node})
	}
	for i, z := range mdsPlacements {
		m := &MDS{
			c:     c,
			Node:  net.NewNode(fmt.Sprintf("mds-%d", i+1), z, simnet.HostID(hostBase+cfg.OSDs+i)),
			Index: i,
			cpu:   sim.NewResource(env, fmt.Sprintf("mds-%d/cpu", i+1), 1),
			caps:  make(map[string]map[*Client]bool),
		}
		c.mdss = append(c.mdss, m)
		env.Spawn(m.Node.Name()+"/journal", func(p *sim.Proc) { m.journalLoop(p) })
	}
	if cfg.Mode == Dynamic {
		env.Spawn("mds-balancer", func(p *sim.Proc) { c.balanceLoop(p) })
	}
	return c
}

// Stop halts background processes at their next tick.
func (c *Cluster) Stop() { c.stop = true }

// MDSs returns the metadata servers.
func (c *Cluster) MDSs() []*MDS { return c.mdss }

// OSDs returns the object storage daemons.
func (c *Cluster) OSDs() []*OSD { return c.osds }

// owner returns the MDS responsible for a path's subtree.
func (c *Cluster) owner(comps []string) *MDS {
	if len(comps) == 0 {
		return c.liveMDS(0)
	}
	top := comps[0]
	idx, ok := c.owners[top]
	if !ok {
		switch c.cfg.Mode {
		case DirPinned:
			idx = hashString(top) % len(c.mdss)
		default:
			// Dynamic: new subtrees land on MDS 0 until the balancer
			// migrates them.
			idx = 0
		}
		c.owners[top] = idx
	}
	return c.liveMDS(idx)
}

// liveMDS returns the MDS at idx, or the next alive one (CephFS standby
// takeover collapsed to instant reassignment; the paper notes pinning
// increases failover time, which we do not model further).
func (c *Cluster) liveMDS(idx int) *MDS {
	n := len(c.mdss)
	for i := 0; i < n; i++ {
		m := c.mdss[(idx+i)%n]
		if m.Alive() {
			return m
		}
	}
	return nil
}

func hashString(s string) int {
	h := 0
	for _, b := range []byte(s) {
		h = h*31 + int(b)
	}
	if h < 0 {
		h = -h
	}
	return h
}

// journalLoop flushes the MDS journal to an OSD every interval. The flush
// runs under the MDS global lock (it "reduces available resources for
// processing file system operations", §V-C) and queues on the OSD disk.
func (m *MDS) journalLoop(p *sim.Proc) {
	for !m.c.stop {
		p.Sleep(journalFlushInterval)
		if !m.Alive() {
			return
		}
		if m.journalBytes == 0 {
			continue
		}
		bytes := m.journalBytes
		m.journalBytes = 0
		m.cpu.Acquire(p, 1)
		p.Sleep(costJournalFlushCPU)
		reps := m.c.cfg.JournalReplication
		if reps <= 0 {
			reps = 1
		}
		for r := 0; r < reps; r++ {
			osd := m.c.osds[m.c.osdNext%len(m.c.osds)]
			m.c.osdNext++
			if m.c.net.TravelDeferred(p, m.Node, osd.Node, bytes, 5*time.Second) {
				osd.Node.DiskWrite(p, bytes)
				m.c.net.TravelDeferred(p, osd.Node, m.Node, 64, 5*time.Second)
			}
			p.Flush()
		}
		m.cpu.Release(1)
	}
}

// balanceLoop is the dynamic subtree balancer: every interval it migrates
// subtrees from the most loaded MDSs toward the least loaded ones. Like the
// real balancer ([34]) it works at whole-subtree granularity, reacts with a
// full interval of lag, and moves a bounded number of subtrees per round —
// which is why the default setup trails manual pinning under skewed load.
func (c *Cluster) balanceLoop(p *sim.Proc) {
	const movesPerRound = 4
	for !c.stop {
		p.Sleep(balanceInterval)
		loads := make([]int64, len(c.mdss))
		var total int64
		for i, m := range c.mdss {
			loads[i] = m.loadWindow
			m.loadWindow = 0
			total += loads[i]
		}
		if total == 0 || len(c.mdss) < 2 {
			continue
		}
		mean := total / int64(len(c.mdss))
		for move := 0; move < movesPerRound; move++ {
			maxI, minI := 0, 0
			for i := range loads {
				if loads[i] > loads[maxI] {
					maxI = i
				}
				if loads[i] < loads[minI] {
					minI = i
				}
			}
			// Hysteresis: only migrate away from clearly hot MDSs.
			if maxI == minI || loads[maxI] <= mean+mean/3 {
				break
			}
			var names []string
			for name, idx := range c.owners {
				if idx == maxI {
					names = append(names, name)
				}
			}
			if len(names) <= 1 {
				// A single hot subtree cannot be split further — the
				// granularity limit of subtree partitioning.
				loads[maxI] = 0
				continue
			}
			sort.Strings(names)
			victim := names[p.Rand().Intn(len(names))]
			c.owners[victim] = minI
			share := loads[maxI] / int64(len(names))
			loads[maxI] -= share
			loads[minI] += share
		}
	}
}

// Seed installs directories and files directly into the namespace tree,
// bypassing the MDSs — used to pre-build benchmark namespaces without
// warm-up traffic. Directories must be listed parents-first.
func (c *Cluster) Seed(dirs, files []string) error {
	place := func(path string, dir bool) error {
		comps, err := splitPath(path)
		if err != nil {
			return err
		}
		if len(comps) == 0 {
			return nil
		}
		parent, err := c.lookup(comps[:len(comps)-1])
		if err != nil {
			return fmt.Errorf("cephfs: seed %q: %w", path, err)
		}
		name := comps[len(comps)-1]
		n := &cnode{name: name, dir: dir, perm: 0o755}
		if dir {
			n.children = make(map[string]*cnode)
		}
		parent.children[name] = n
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

// lookup walks the in-memory tree.
func (c *Cluster) lookup(comps []string) (*cnode, error) {
	cur := c.root
	for _, name := range comps {
		if !cur.dir {
			return nil, ErrNotDir
		}
		next, ok := cur.children[name]
		if !ok {
			return nil, ErrNotFound
		}
		cur = next
	}
	return cur, nil
}

func splitPath(path string) ([]string, error) {
	if path == "" || path[0] != '/' {
		return nil, ErrInvalid
	}
	if path == "/" {
		return nil, nil
	}
	parts := strings.Split(strings.Trim(path, "/"), "/")
	for _, p := range parts {
		if p == "" || p == "." || p == ".." {
			return nil, ErrInvalid
		}
	}
	return parts, nil
}
