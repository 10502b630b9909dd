// Package blocks implements the HopsFS-CL block storage layer (paper
// §II-A3 and §IV-C): datanodes storing 128 MB blocks of large files,
// replicated over a pipeline, with an AZ-aware placement policy (the
// rack-aware policy with AZs as racks) that guarantees at least one replica
// in every availability zone, and re-replication driven by the leader
// metadata server when datanodes fail.
//
// Small files (< 128 KB) never reach this layer: they are stored inline
// with their metadata in NDB (§II-A3, [29]); see the namenode package.
package blocks

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"time"

	"hopsfscl/internal/objstore"
	"hopsfscl/internal/sim"
	"hopsfscl/internal/simnet"
	"hopsfscl/internal/trace"
)

// Errors reported by the block layer.
var (
	// ErrNoDatanodes means placement could not find enough live targets.
	ErrNoDatanodes = errors.New("blocks: not enough live datanodes")
	// ErrNoReplica means a read found no live replica of a block.
	ErrNoReplica = errors.New("blocks: no live replica")
	// ErrUnknownBlock means the block id is not registered.
	ErrUnknownBlock = errors.New("blocks: unknown block")
)

// BlockID identifies a block.
type BlockID int64

// Config parameterizes the layer.
type Config struct {
	// BlockSize is the split size for large files (128 MB default).
	BlockSize int64
	// AZAware enables the §IV-C placement policy (AZs as racks). When
	// false, placement is uniform random over distinct datanodes.
	AZAware bool
}

const (
	// Replication is the target replica count, HDFS's default.
	Replication = 3
	// monitorInterval is the period of the leader's re-replication check.
	monitorInterval = time.Second
	// rpcTimeout bounds pipeline hops.
	rpcTimeout = 30 * time.Second
	// OrphanGrace is how long an unreferenced block may exist before the
	// monitor reclaims it. Blocks can be legitimately unreferenced while a
	// client is still streaming a file (written but not yet attached to an
	// inode), so reclamation only fires after this grace period.
	OrphanGrace = time.Minute
)

// DefaultConfig returns the paper's block layer defaults.
func DefaultConfig() Config {
	return Config{
		BlockSize: 128 << 20,
		AZAware:   true,
	}
}

// DataNode is a block storage server.
type DataNode struct {
	Node *simnet.Node
	ID   int

	blocks map[BlockID]struct{} // replicas held
}

// HoldsBlock reports whether the datanode has a replica of b.
func (dn *DataNode) HoldsBlock(b BlockID) bool { _, ok := dn.blocks[b]; return ok }

// Block is the metadata of one block: its locations and size. In HopsFS
// this state lives in NDB tables fed by datanode block reports; here the
// manager holds the aggregated view directly (the experiments never
// bottleneck on it, §V: "the block layer scales linearly").
type Block struct {
	ID    BlockID
	Inode uint64
	Size  int64
	locs  []*DataNode

	// Created is the virtual time the block was written, used by the
	// orphan-reclamation grace period.
	Created time.Duration

	// objectKey is set when the block lives in a cloud object store
	// instead of on datanodes (the paper's §VII future-work block layer).
	objectKey string
}

// InObjectStore reports whether the block is object-store backed.
func (b *Block) InObjectStore() bool { return b.objectKey != "" }

// Locations returns the live replica holders.
func (b *Block) Locations() []*DataNode {
	var out []*DataNode
	for _, dn := range b.locs {
		if dn.Node.Alive() {
			out = append(out, dn)
		}
	}
	return out
}

// Manager owns the datanodes and the block registry, and runs the leader's
// re-replication monitor.
type Manager struct {
	env *sim.Env
	net *simnet.Network
	cfg Config

	dns      []*DataNode
	registry map[BlockID]*Block
	seq      BlockID

	// store, when non-nil, replaces datanode replication with a cloud
	// object store backend: blocks become objects, the provider handles
	// durability, and no re-replication monitor is needed (§VII).
	store *objstore.Store

	// leaderAlive gates the re-replication monitor: in HopsFS the leader
	// NN triggers re-replication; the namesystem wires its election here.
	leaderAlive func() bool

	// referenced, when set, returns the block ids currently referenced by
	// the namespace. The monitor uses it to reclaim orphaned blocks —
	// replicas whose inode vanished without a client-side delete (a crash
	// between block write and attach, or a lost delete acknowledgment).
	referenced func() map[BlockID]bool

	stop bool

	// ReReplications counts blocks copied by the monitor.
	ReReplications int64

	// OrphansReclaimed counts unreferenced blocks deleted by the monitor.
	OrphansReclaimed int64

	// reg, when attached, counts placement decisions per availability zone
	// under blocks.placed{zone=N}.
	reg *trace.Registry
}

// Placement locates one block datanode.
type Placement struct {
	Zone simnet.ZoneID
	Host simnet.HostID
}

// NewManager creates a block layer with one datanode per placement.
func NewManager(env *sim.Env, net *simnet.Network, cfg Config, placements []Placement) *Manager {
	m := &Manager{
		env:         env,
		net:         net,
		cfg:         cfg,
		registry:    make(map[BlockID]*Block),
		leaderAlive: func() bool { return true },
	}
	for i, pl := range placements {
		m.dns = append(m.dns, &DataNode{
			Node:   net.NewNode(fmt.Sprintf("dn-%d", i+1), pl.Zone, pl.Host),
			ID:     i,
			blocks: make(map[BlockID]struct{}),
		})
	}
	env.Spawn("block-monitor", func(p *sim.Proc) { m.monitor(p) })
	return m
}

// SetLeaderCheck wires the metadata layer's leader election: the monitor
// only acts while the check returns true.
func (m *Manager) SetLeaderCheck(f func() bool) { m.leaderAlive = f }

// SetReferencedCheck wires the namespace's view of which blocks are
// attached to inodes, enabling orphan reclamation in the monitor. A nil
// check disables reclamation.
func (m *Manager) SetReferencedCheck(f func() map[BlockID]bool) { m.referenced = f }

// SetRegistry attaches a metrics registry: every placement decision is
// counted per target availability zone. A nil registry detaches.
func (m *Manager) SetRegistry(reg *trace.Registry) { m.reg = reg }

// countPlacements records the chosen targets' zones in the registry.
// Placements are rare (one per new block), so the lazy lookup is fine.
func (m *Manager) countPlacements(targets []*DataNode) {
	if m.reg == nil {
		return
	}
	for _, dn := range targets {
		m.reg.Counter("blocks.placed", "zone", strconv.Itoa(int(dn.Node.Zone()))).Add(1)
	}
}

// UseObjectStore switches the manager to the cloud object store backend:
// WriteBlock PUTs one object per block, ReadBlock GETs it from the
// client's zone-local endpoint, and durability is the provider's problem.
// Call before any block is written.
func (m *Manager) UseObjectStore(s *objstore.Store) { m.store = s }

// ObjectStore returns the configured backend (nil for DN replication).
func (m *Manager) ObjectStore() *objstore.Store { return m.store }

// Stop halts the background monitor at its next tick.
func (m *Manager) Stop() { m.stop = true }

// DataNodes returns the layer's datanodes.
func (m *Manager) DataNodes() []*DataNode { return m.dns }

// Block returns a registered block.
func (m *Manager) Block(id BlockID) (*Block, bool) {
	b, ok := m.registry[id]
	return b, ok
}

// BlockSize returns the configured block split size.
func (m *Manager) BlockSize() int64 { return m.cfg.BlockSize }

// Blocks returns every registered block sorted by id, for deterministic
// audit sweeps.
func (m *Manager) Blocks() []*Block {
	out := make([]*Block, 0, len(m.registry))
	for _, b := range m.registry {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SplitSize returns the number of blocks a file of the given size needs.
func (m *Manager) SplitSize(size int64) int {
	if size <= 0 {
		return 0
	}
	return int((size + m.cfg.BlockSize - 1) / m.cfg.BlockSize)
}

// Place chooses replication targets for a new block written by a client in
// clientZone, per §IV-C: with AZ awareness the existing rack-aware policy
// runs with AZs as racks — first replica in the writer's AZ, the rest
// spread so that every AZ holds at least one replica. Without awareness,
// targets are uniform random distinct datanodes.
func (m *Manager) Place(clientZone simnet.ZoneID, n int) ([]*DataNode, error) {
	live := m.liveNodes()
	if len(live) < n {
		return nil, ErrNoDatanodes
	}
	if !m.cfg.AZAware {
		m.shuffle(live)
		m.countPlacements(live[:n])
		return live[:n], nil
	}
	byZone := make(map[simnet.ZoneID][]*DataNode)
	var zones []simnet.ZoneID
	for _, dn := range live {
		z := dn.Node.Zone()
		if len(byZone[z]) == 0 {
			zones = append(zones, z)
		}
		byZone[z] = append(byZone[z], dn)
	}
	// Shuffle per zone in the deterministic zone-discovery order: ranging
	// over the map here would consume the shared RNG in map-iteration
	// order and break run-to-run reproducibility.
	for _, z := range zones {
		m.shuffle(byZone[z])
	}
	// Zone order: the writer's zone first, then the others.
	ordered := make([]simnet.ZoneID, 0, len(zones))
	for _, z := range zones {
		if z == clientZone {
			ordered = append(ordered, z)
		}
	}
	for _, z := range zones {
		if z != clientZone {
			ordered = append(ordered, z)
		}
	}
	var out []*DataNode
	for len(out) < n {
		progress := false
		for _, z := range ordered {
			if len(out) == n {
				break
			}
			if len(byZone[z]) > 0 {
				out = append(out, byZone[z][0])
				byZone[z] = byZone[z][1:]
				progress = true
			}
		}
		if !progress {
			return nil, ErrNoDatanodes
		}
	}
	m.countPlacements(out)
	return out, nil
}

func (m *Manager) liveNodes() []*DataNode {
	var out []*DataNode
	for _, dn := range m.dns {
		if dn.Node.Alive() {
			out = append(out, dn)
		}
	}
	return out
}

func (m *Manager) shuffle(s []*DataNode) {
	m.env.Rand().Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
}

// WriteBlock allocates a block of the given size for the inode and stores
// it: through the datanode replication pipeline (client -> dn1 -> dn2 ->
// dn3, each writing to disk), or as one object PUT when the object-store
// backend is configured. It returns the registered block.
func (m *Manager) WriteBlock(p *sim.Proc, client *simnet.Node, inode uint64, size int64) (*Block, error) {
	if m.store != nil {
		m.seq++
		b := &Block{ID: m.seq, Inode: inode, Size: size, Created: m.env.Now(), objectKey: fmt.Sprintf("blocks/%016x", m.seq)}
		if err := m.store.Put(p, client, b.objectKey, size); err != nil {
			return nil, err
		}
		m.registry[b.ID] = b
		return b, nil
	}
	targets, err := m.Place(client.Zone(), Replication)
	if err != nil {
		return nil, err
	}
	m.seq++
	b := &Block{ID: m.seq, Inode: inode, Size: size, Created: m.env.Now(), locs: targets}
	// Each hop's time is settled before what follows it: a datanode's
	// DiskWrite flushes the hop that carried its data, and the client waits
	// for the Ack (or a lost hop's timeout) before it registers the block.
	defer p.Flush()
	prev := client
	for _, dn := range targets {
		if !m.net.TravelDeferred(p, prev, dn.Node, int(size), rpcTimeout) {
			return nil, ErrNoDatanodes
		}
		dn.Node.DiskWrite(p, int(size))
		prev = dn.Node
	}
	// Ack travels back up the pipeline to the client.
	if !m.net.TravelDeferred(p, prev, client, 64, rpcTimeout) {
		return nil, ErrNoDatanodes
	}
	p.Flush()
	for _, dn := range targets {
		dn.blocks[b.ID] = struct{}{}
	}
	m.registry[b.ID] = b
	return b, nil
}

// ReadBlock streams a block to the client from a replica, preferring an
// AZ-local one when AZ awareness is on; with the object-store backend it
// is one GET from the zone-local endpoint (and the returned datanode is
// nil).
func (m *Manager) ReadBlock(p *sim.Proc, client *simnet.Node, id BlockID) (*DataNode, error) {
	b, ok := m.registry[id]
	if !ok {
		return nil, ErrUnknownBlock
	}
	if b.objectKey != "" {
		if _, err := m.store.Get(p, client, b.objectKey); err != nil {
			return nil, err
		}
		return nil, nil
	}
	locs := b.Locations()
	if len(locs) == 0 {
		return nil, ErrNoReplica
	}
	src := locs[0]
	if m.cfg.AZAware {
		for _, dn := range locs {
			if dn.Node.Zone() == client.Zone() {
				src = dn
				break
			}
		}
	} else {
		src = locs[m.env.Rand().Intn(len(locs))]
	}
	// The DiskRead settles the request hop; the deferred flush settles the
	// response (or a lost hop's timeout) before the client goes on.
	defer p.Flush()
	if !m.net.TravelDeferred(p, client, src.Node, 128, rpcTimeout) {
		return nil, ErrNoReplica
	}
	src.Node.DiskRead(p, int(b.Size))
	if !m.net.TravelDeferred(p, src.Node, client, int(b.Size), rpcTimeout) {
		return nil, ErrNoReplica
	}
	return src, nil
}

// DeleteBlock drops a block's replicas (or object) and registry entry.
func (m *Manager) DeleteBlock(id BlockID) {
	b, ok := m.registry[id]
	if !ok {
		return
	}
	if b.objectKey != "" {
		m.store.Delete(b.objectKey)
		delete(m.registry, id)
		return
	}
	for _, dn := range b.locs {
		if dn.HoldsBlock(id) {
			delete(dn.blocks, id)
		}
	}
	delete(m.registry, id)
}

// liveZones returns the set of zones with at least one live datanode.
func (m *Manager) liveZones() map[simnet.ZoneID]bool {
	out := make(map[simnet.ZoneID]bool)
	for _, dn := range m.dns {
		if dn.Node.Alive() {
			out[dn.Node.Zone()] = true
		}
	}
	return out
}

// SpreadViolated reports whether the block breaks the §IV-C placement
// guarantee: its live replicas must cover min(replication factor, live
// zones) distinct availability zones. A block can satisfy the replica
// *count* yet violate this — e.g. after a zone failure forced a doubled-up
// replacement replica and the zone then recovered.
func (m *Manager) SpreadViolated(b *Block) bool {
	if !m.cfg.AZAware || b.objectKey != "" {
		return false
	}
	zones := make(map[simnet.ZoneID]bool)
	for _, dn := range b.Locations() {
		zones[dn.Node.Zone()] = true
	}
	want := len(m.liveZones())
	if want > Replication {
		want = Replication
	}
	return len(zones) < want
}

// UnderReplicated returns blocks needing the monitor's attention: fewer
// live replicas than the target, or live replicas that no longer cover
// every availability zone (the §IV-C one-replica-per-AZ guarantee).
// Object-store blocks are never under-replicated (provider durability).
// The result is sorted by block id for deterministic repair order.
func (m *Manager) UnderReplicated() []*Block {
	var out []*Block
	for _, b := range m.registry {
		if b.objectKey != "" {
			continue
		}
		if len(b.Locations()) < Replication || m.SpreadViolated(b) {
			out = append(out, b)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// HealthStats reports the block tier's health signal: live vs expected
// datanodes and the number of under-replicated blocks (the tier's pressure
// signal — repair backlog). When a registry is attached it also refreshes
// the blocks.datanodes.live and blocks.under_replicated gauges.
func (m *Manager) HealthStats() (live, expected, underReplicated int) {
	expected = len(m.dns)
	live = len(m.liveNodes())
	underReplicated = len(m.UnderReplicated())
	if m.reg != nil {
		m.reg.Gauge("blocks.datanodes.live").Set(float64(live))
		m.reg.Gauge("blocks.under_replicated").Set(float64(underReplicated))
	}
	return live, expected, underReplicated
}

// monitor is the leader-driven re-replication loop (§IV-C2): when a
// datanode failure leaves blocks under-replicated or breaks the AZ-spread
// guarantee, a surviving replica is copied to a fresh target chosen by the
// placement policy. The loop also reconciles stale replicas on recovered
// datanodes (block-report invalidation) and reclaims orphaned blocks.
func (m *Manager) monitor(p *sim.Proc) {
	for !m.stop {
		p.Sleep(monitorInterval)
		if m.stop || !m.leaderAlive() {
			continue
		}
		m.reconcile()
		for _, b := range m.UnderReplicated() {
			m.reReplicate(p, b)
		}
		m.reclaimOrphans()
	}
}

// reconcile drops replicas that datanodes hold but the registry no longer
// lists (the registry forgets dead replicas when it re-replicates; when the
// node recovers, its stale copy is invalidated — HDFS's block-report path).
func (m *Manager) reconcile() {
	for _, dn := range m.dns {
		if !dn.Node.Alive() {
			continue
		}
		for id := range dn.blocks {
			b, ok := m.registry[id]
			if !ok {
				delete(dn.blocks, id)
				continue
			}
			listed := false
			for _, loc := range b.locs {
				if loc == dn {
					listed = true
					break
				}
			}
			if !listed {
				delete(dn.blocks, id)
			}
		}
	}
}

// reclaimOrphans deletes blocks no inode references once they outlive the
// grace period (covers crash-orphaned writes and lost delete acks).
func (m *Manager) reclaimOrphans() {
	if m.referenced == nil {
		return
	}
	var orphans []BlockID
	now := m.env.Now()
	for id, b := range m.registry {
		if now-b.Created >= OrphanGrace {
			orphans = append(orphans, id)
		}
	}
	if len(orphans) == 0 {
		return
	}
	refs := m.referenced()
	sort.Slice(orphans, func(i, j int) bool { return orphans[i] < orphans[j] })
	for _, id := range orphans {
		if !refs[id] {
			m.DeleteBlock(id)
			m.OrphansReclaimed++
		}
	}
}

func (m *Manager) reReplicate(p *sim.Proc, b *Block) {
	locs := b.Locations()
	if len(locs) == 0 {
		return // all replicas lost; nothing to copy from
	}
	src := locs[0]
	have := make(map[int]bool, len(locs))
	haveZones := make(map[simnet.ZoneID]bool, len(locs))
	for _, dn := range locs {
		have[dn.ID] = true
		haveZones[dn.Node.Zone()] = true
	}
	// Prefer a zone that lost its replica, honoring the placement policy's
	// one-replica-per-AZ guarantee.
	var target *DataNode
	for _, dn := range m.liveNodes() {
		if have[dn.ID] {
			continue
		}
		if m.cfg.AZAware && haveZones[dn.Node.Zone()] {
			continue
		}
		target = dn
		break
	}
	if target == nil {
		if len(locs) >= Replication {
			return // count satisfied and every live zone already covered
		}
		for _, dn := range m.liveNodes() {
			if !have[dn.ID] {
				target = dn
				break
			}
		}
	}
	if target == nil {
		return
	}
	if !m.net.TravelDeferred(p, src.Node, target.Node, int(b.Size), rpcTimeout) {
		p.Flush()
		return
	}
	target.Node.DiskWrite(p, int(b.Size))
	target.blocks[b.ID] = struct{}{}
	b.locs = append(b.Locations(), target)
	m.ReReplications++
	// A spread-restoring copy can push the block above the target count
	// (the zone recovery returned it to full count, but doubled up in one
	// zone): trim surplus replicas from over-represented zones so the
	// repair restores AZ spread, not just count.
	if m.cfg.AZAware {
		m.trimExcess(b)
	}
}

// trimExcess removes live replicas beyond the replication factor, always
// taking them from zones that hold more than one, so the one-replica-per-AZ
// guarantee is preserved.
func (m *Manager) trimExcess(b *Block) {
	for {
		locs := b.Locations()
		if len(locs) <= Replication {
			return
		}
		perZone := make(map[simnet.ZoneID]int, len(locs))
		for _, dn := range locs {
			perZone[dn.Node.Zone()]++
		}
		victim := -1
		for i, dn := range locs {
			if perZone[dn.Node.Zone()] > 1 {
				victim = i
				break
			}
		}
		if victim < 0 {
			return // more live zones than the target count; keep the spread
		}
		dn := locs[victim]
		delete(dn.blocks, b.ID)
		b.locs = append(locs[:victim], locs[victim+1:]...)
	}
}
