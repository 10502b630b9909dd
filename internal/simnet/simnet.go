// Package simnet models a cloud region: availability zones, hosts, nodes,
// and the network between them. Latencies are seeded from the paper's
// Table I measurements of GCE us-west1. Inter-AZ links have finite shared
// bandwidth and per-direction byte accounting so experiments can measure
// cross-AZ traffic (the quantity AZ-awareness is designed to minimize).
package simnet

import (
	"fmt"
	"time"

	"hopsfscl/internal/sim"
	"hopsfscl/internal/trace"
)

// ZoneID identifies an availability zone. Zone 0 is reserved to mean
// "unset" (the paper's locationDomainId=0 fallback); real zones start at 1.
type ZoneID int

// ZoneUnset is the sentinel "no zone configured" value.
const ZoneUnset ZoneID = 0

// HostID identifies a physical host (VM). Two nodes on the same host have
// the lowest proximity distance.
type HostID int

// NodeID identifies a network endpoint.
type NodeID int

// Proximity distances, ascending per §IV-A4 of the paper.
const (
	ProximitySameHost = 1 // same host, same AZ
	ProximitySameZone = 2 // different hosts, same AZ
	ProximityRemote   = 3 // different AZs
)

// Topology describes zones and the latency between them.
type Topology struct {
	// ZoneNames[i] names zone i+1 (ZoneID 1 is ZoneNames[0]).
	ZoneNames []string
	// RTT[i][j] is the measured round-trip time between a host in zone i+1
	// and a host in zone j+1. One-way latency is RTT/2.
	RTT [][]time.Duration
	// SameHostRTT is the loopback round trip between two nodes on one host.
	SameHostRTT time.Duration
	// InterZoneBandwidth is the shared bandwidth of each directed zone-pair
	// link, bytes/second. Zero means unlimited.
	InterZoneBandwidth float64
	// IntraZoneBandwidth bounds each directed intra-zone fabric. Zero means
	// unlimited.
	IntraZoneBandwidth float64
	// JitterFrac adds +/- JitterFrac/2 uniform jitter to each one-way
	// latency, to avoid artificial phase locking. Deterministic per seed.
	JitterFrac float64
}

// USWest1 returns the paper's Table I topology: three AZs of GCE us-west1
// with the measured RTTs (milliseconds): a↔a 0.247, a↔b 0.360, a↔c 0.372,
// b↔b 0.251, b↔c 0.399, c↔c 0.249.
func USWest1() *Topology {
	ms := func(f float64) time.Duration { return time.Duration(f * float64(time.Millisecond)) }
	return &Topology{
		ZoneNames: []string{"us-west1-a", "us-west1-b", "us-west1-c"},
		RTT: [][]time.Duration{
			{ms(0.247), ms(0.360), ms(0.372)},
			{ms(0.360), ms(0.251), ms(0.399)},
			{ms(0.372), ms(0.399), ms(0.249)},
		},
		SameHostRTT: 30 * time.Microsecond,
		// 350 MB/s shared per inter-AZ directed link. Deliberately finite:
		// §V-B1 attributes the growing HopsFS-CL advantage past 24 NNs to
		// network I/O becoming a bottleneck, which requires a shared
		// cross-AZ pipe to reproduce. The intra-AZ fabric is effectively
		// unconstrained at this scale (Clos fabrics, [4]).
		InterZoneBandwidth: 350e6,
		IntraZoneBandwidth: 0,
		JitterFrac:         0.10,
	}
}

// Zones returns the number of zones in the topology.
func (t *Topology) Zones() int { return len(t.ZoneNames) }

// ZoneName returns the display name for z ("unset" for ZoneUnset).
func (t *Topology) ZoneName(z ZoneID) string {
	if z == ZoneUnset {
		return "unset"
	}
	return t.ZoneNames[int(z)-1]
}

// Network connects nodes according to a topology.
type Network struct {
	env   *sim.Env
	topo  *Topology
	nodes []*Node

	// links holds fluid-queue state and counters per directed zone pair
	// (including z->z for the intra-zone fabric), densely indexed by
	// pairIndex over the zones 0..Zones(), so a message finds its link
	// without hashing.
	links []link

	// partitioned marks the zone pairs whose traffic is dropped, both
	// directions of each, indexed like links; partitions counts the severed
	// unordered pairs, so an unpartitioned network looks nothing up.
	partitioned []bool
	partitions  int

	// degraded marks unordered zone pairs whose traffic suffers extra
	// latency and/or probabilistic loss (chaos fault injection). Kept in a
	// separate map so the fast path pays only a len() check when no
	// degradation is active, preserving the RNG stream of undisturbed runs.
	degraded map[[2]ZoneID]*degradation

	dropped int64

	// topoEpoch counts node up/down transitions (see TopoEpoch).
	topoEpoch uint64

	// freeEnvs pools delivery envelopes for Send: one envelope per in-flight
	// message, recycled on arrival, each carrying a prebuilt fire closure so
	// steady-state sends schedule without allocating per message.
	freeEnvs []*envelope

	// obs holds pre-registered per-hop-class counters; nil when no metrics
	// registry is attached (see SetRegistry).
	obs *netObs
}

// envelope is one pooled in-flight datagram: the delivery state of a Send
// between departure and arrival. fire is built once per envelope and
// captures only the envelope, so reusing it schedules no new closure.
type envelope struct {
	n        *Network
	from, to *Node
	size     int
	onArrive func()
	fire     func()
}

// newEnvelope takes an envelope from the pool or builds one.
func (n *Network) newEnvelope() *envelope {
	if cnt := len(n.freeEnvs); cnt > 0 {
		e := n.freeEnvs[cnt-1]
		n.freeEnvs[cnt-1] = nil
		n.freeEnvs = n.freeEnvs[:cnt-1]
		return e
	}
	e := &envelope{n: n}
	e.fire = func() { e.deliver() }
	return e
}

// deliver runs at the arrival instant: it re-checks liveness and
// partitions (conditions may have changed while the message was in
// flight), runs the receiver's handler, and recycles the envelope. State is
// copied out and the envelope recycled first, so a handler sending more
// messages can reuse it immediately.
func (e *envelope) deliver() {
	n, from, to, size, onArrive := e.n, e.from, e.to, e.size, e.onArrive
	e.from, e.to, e.onArrive = nil, nil, nil
	n.freeEnvs = append(n.freeEnvs, e)
	if !to.alive || (from.zone != to.zone && n.Partitioned(from.zone, to.zone)) {
		n.dropped++
		return
	}
	to.nicRead += int64(size)
	if onArrive != nil {
		onArrive()
	}
}

// netObs caches registry handles so the per-message cost is three atomic
// adds.
type netObs struct {
	bytes [trace.NumHopClasses]*trace.Counter
	msgs  [trace.NumHopClasses]*trace.Counter
	// linkBytes counts traffic per directed zone pair
	// (net.link.bytes{from=...,to=...}), the per-AZ signal the flight
	// recorder samples over time. It is indexed like Network.links; pairs
	// with the unset zone have no counter.
	linkBytes []*trace.Counter
}

type link struct {
	nextFree time.Duration
	bytes    int64
	messages int64
}

// degradation describes an impaired zone pair: one-way latency is scaled by
// LatencyFactor (>= 1) and each message is independently dropped with
// probability LossProb.
type degradation struct {
	LatencyFactor float64
	LossProb      float64
}

// New returns a network over env with the given topology.
func New(env *sim.Env, topo *Topology) *Network {
	pairs := (topo.Zones() + 1) * (topo.Zones() + 1)
	return &Network{
		env:         env,
		topo:        topo,
		links:       make([]link, pairs),
		partitioned: make([]bool, pairs),
		degraded:    make(map[[2]ZoneID]*degradation),
	}
}

// pairIndex is the dense index of the directed zone pair a -> b.
func (n *Network) pairIndex(a, b ZoneID) int {
	return int(a)*(n.topo.Zones()+1) + int(b)
}

// SetRegistry attaches a metrics registry: every subsequent message is
// counted under net.bytes{class=...} and net.msgs{class=...} by hop class.
// A nil registry detaches.
func (n *Network) SetRegistry(reg *trace.Registry) {
	if reg == nil {
		n.obs = nil
		return
	}
	obs := &netObs{linkBytes: make([]*trace.Counter, len(n.links))}
	for c := trace.HopClass(0); c < trace.NumHopClasses; c++ {
		obs.bytes[c] = reg.Counter("net.bytes", "class", c.String())
		obs.msgs[c] = reg.Counter("net.msgs", "class", c.String())
	}
	for a := ZoneID(1); int(a) <= n.topo.Zones(); a++ {
		for b := ZoneID(1); int(b) <= n.topo.Zones(); b++ {
			obs.linkBytes[n.pairIndex(a, b)] = reg.Counter("net.link.bytes",
				"from", n.topo.ZoneName(a), "to", n.topo.ZoneName(b))
		}
	}
	n.obs = obs
}

// observeLink counts one delivered message on the directed zone-pair link
// counter (if a registry is attached).
func (n *Network) observeLink(from, to ZoneID, size int) {
	if n.obs == nil {
		return
	}
	// Nodes normally sit in a real zone; a pair with the unset zone simply
	// goes uncounted.
	if c := n.obs.linkBytes[n.pairIndex(from, to)]; c != nil {
		c.Add(int64(size))
	}
}

// HopClassOf classifies a message between two nodes by endpoint proximity:
// loopback, same host, same zone, or cross-AZ. Unlike Proximity it compares
// physical zones directly (deployed nodes always have a real zone; the
// ZoneUnset sentinel only disables *awareness*, not physical placement).
func HopClassOf(from, to *Node) trace.HopClass {
	switch {
	case from.id == to.id:
		return trace.HopLocal
	case from.host == to.host && from.zone == to.zone:
		return trace.HopSameHost
	case from.zone == to.zone:
		return trace.HopSameZone
	default:
		return trace.HopCrossZone
	}
}

// observe counts one delivered message in the registry (if attached).
func (n *Network) observe(class trace.HopClass, size int) {
	if n.obs != nil {
		n.obs.bytes[class].Add(int64(size))
		n.obs.msgs[class].Add(1)
	}
}

// Topology returns the network's topology.
func (n *Network) Topology() *Topology { return n.topo }

// Node is a network endpoint on a host in a zone, with a NIC byte counter
// and a local disk.
type Node struct {
	net  *Network
	id   NodeID
	name string
	zone ZoneID
	host HostID

	alive bool

	nicRead, nicWrite   int64
	diskRead, diskWrite int64
	diskNextFree        time.Duration

	// DiskBandwidth is the node-local disk throughput, bytes/second.
	DiskBandwidth float64
	// DiskLatency is the fixed per-IO cost.
	DiskLatency time.Duration
}

// NewNode registers a node in zone z on host h. Host IDs only matter for
// proximity: give two nodes the same HostID to co-locate them.
func (n *Network) NewNode(name string, z ZoneID, h HostID) *Node {
	if z < ZoneUnset || int(z) > n.topo.Zones() {
		panic(fmt.Sprintf("simnet: node %q in zone %d of a %d-zone topology", name, z, n.topo.Zones()))
	}
	nd := &Node{
		net:           n,
		id:            NodeID(len(n.nodes)),
		name:          name,
		zone:          z,
		host:          h,
		alive:         true,
		DiskBandwidth: 400e6, // 400 MB/s, a cloud persistent SSD
		DiskLatency:   200 * time.Microsecond,
	}
	n.nodes = append(n.nodes, nd)
	return nd
}

// ID returns the node's network id.
func (nd *Node) ID() NodeID { return nd.id }

// Name returns the node's diagnostic name.
func (nd *Node) Name() string { return nd.name }

// Zone returns the node's availability zone.
func (nd *Node) Zone() ZoneID { return nd.zone }

// Host returns the node's host.
func (nd *Node) Host() HostID { return nd.host }

// Alive reports whether the node is up.
func (nd *Node) Alive() bool { return nd.alive }

// Fail marks the node down: messages in flight to it and future ones are
// dropped.
func (nd *Node) Fail() {
	nd.alive = false
	nd.net.topoEpoch++
}

// Recover marks the node up again.
func (nd *Node) Recover() {
	nd.alive = true
	nd.net.topoEpoch++
}

// TopoEpoch counts node up/down transitions. Layers that derive state from
// node liveness (e.g. a partition's alive-replica list) use it to cache
// that state between failures instead of recomputing per access.
func (n *Network) TopoEpoch() uint64 { return n.topoEpoch }

// NICBytes returns cumulative (read, write) bytes through the node's NIC.
func (nd *Node) NICBytes() (read, write int64) { return nd.nicRead, nd.nicWrite }

// DiskBytes returns cumulative (read, write) bytes through the node's disk.
func (nd *Node) DiskBytes() (read, write int64) { return nd.diskRead, nd.diskWrite }

// Partition severs connectivity between two zones (both directions).
func (n *Network) Partition(a, b ZoneID) { n.setPartitioned(a, b, true) }

// Heal restores connectivity between two zones.
func (n *Network) Heal(a, b ZoneID) { n.setPartitioned(a, b, false) }

func (n *Network) setPartitioned(a, b ZoneID, cut bool) {
	i := n.pairIndex(a, b)
	if n.partitioned[i] == cut {
		return
	}
	n.partitioned[i], n.partitioned[n.pairIndex(b, a)] = cut, cut
	if cut {
		n.partitions++
	} else {
		n.partitions--
	}
}

// Partitioned reports whether traffic between zones a and b is severed.
func (n *Network) Partitioned(a, b ZoneID) bool {
	return n.partitions > 0 && n.partitioned[n.pairIndex(a, b)]
}

func zonePair(a, b ZoneID) [2]ZoneID {
	if a > b {
		a, b = b, a
	}
	return [2]ZoneID{a, b}
}

// DegradeLink impairs the path between two zones (both directions): one-way
// latency is multiplied by latencyFactor (values < 1 are clamped to 1) and
// each message is independently dropped with probability lossProb. Used by
// chaos campaigns to model gray failures: slow links and lossy links, the
// failure modes between "healthy" and "partitioned".
func (n *Network) DegradeLink(a, b ZoneID, latencyFactor, lossProb float64) {
	if latencyFactor < 1 {
		latencyFactor = 1
	}
	if lossProb < 0 {
		lossProb = 0
	}
	if lossProb > 1 {
		lossProb = 1
	}
	n.degraded[zonePair(a, b)] = &degradation{LatencyFactor: latencyFactor, LossProb: lossProb}
}

// RestoreLink removes any degradation between two zones.
func (n *Network) RestoreLink(a, b ZoneID) { delete(n.degraded, zonePair(a, b)) }

// degradationFor returns the active degradation between two zones, or nil.
// The len() guard keeps the common no-chaos path free of map lookups.
func (n *Network) degradationFor(a, b ZoneID) *degradation {
	if len(n.degraded) == 0 {
		return nil
	}
	return n.degraded[zonePair(a, b)]
}

// lost draws the loss coin for a message on a degraded path. It must only
// be called when a degradation with LossProb > 0 is active, so undisturbed
// runs never consume RNG values they did not consume before.
func (n *Network) lost(d *degradation) bool {
	return d != nil && d.LossProb > 0 && n.env.Rand().Float64() < d.LossProb
}

// Send transmits a message of the given size from one node to another and
// runs onArrive at its arrival instant, after queueing latency on the
// zone-pair link plus propagation latency. It never blocks the caller. A
// message to a dead node or across a partition, at departure or at arrival,
// is silently dropped, as on a real network, and its handler never runs. A
// nil onArrive makes the message traffic only. Each message rides a pooled
// envelope; a receiver binds its handler once, so a send allocates nothing.
func (n *Network) Send(from, to *Node, size int, onArrive func()) {
	arrive, ok := n.departure(from, to, size)
	if !ok {
		return
	}
	e := n.newEnvelope()
	e.from, e.to, e.size, e.onArrive = from, to, size, onArrive
	n.env.At(arrive, e.fire)
}

// TravelDeferred is one RPC hop in fluid time: it computes the message's
// queueing, transmission, and propagation delay analytically against the
// caller's effective time and adds it to the process's pending accumulator
// instead of parking. When the destination is dead or the path partitioned,
// the RPC timeout is deferred and false is returned. A caller that reads the
// clock or acts on the arrival calls Flush first.
func (n *Network) TravelDeferred(p *sim.Proc, from, to *Node, size int, timeout time.Duration) bool {
	// Nothing is scheduled at the arrival instant to find the receiver
	// dead, so its liveness is judged up front, before the loss coin.
	if !to.alive {
		n.dropped++
		p.Defer(timeout)
		return false
	}
	lk, lat, ok := n.admit(from, to, size)
	if !ok {
		p.Defer(timeout)
		return false
	}
	to.nicRead += int64(size)
	// Link horizons are kept in the clock frame (see Resource.Charge); the
	// caller's message additionally cannot depart before its own effective
	// instant.
	clock := n.env.Now()
	eff := p.EffNow()
	departClock := clock
	arrival := eff
	bw := n.bandwidth(from.zone, to.zone)
	if bw > 0 && from.id != to.id {
		if lk.nextFree > departClock {
			departClock = lk.nextFree
		}
		tx := time.Duration(float64(size) / bw * float64(time.Second))
		lk.nextFree = departClock + tx
		arrival = departClock + tx
		if eff+tx > arrival {
			arrival = eff + tx
		}
	}
	// The hop's wire time is the whole deferral: queueing + transmission +
	// propagation. Recorded after the delay computation so the profiler can
	// attribute it, but before Defer (RecordHop consumes no randomness, so
	// the RNG stream is unchanged).
	wire := arrival + lat - eff
	p.Span().RecordHop(HopClassOf(from, to), size, wire)
	p.Defer(wire)
	return true
}

// admit is the source side of every send form: a dead sender, a partitioned
// path or the loss coin drops the message (counted, ok false); otherwise the
// sender's NIC, the registry and the zone-pair link are charged and the
// propagation latency is drawn. The loss coin comes before the latency draw:
// that is the RNG order every schedule depends on. The caller queues the
// message on lk in its own time frame.
func (n *Network) admit(from, to *Node, size int) (lk *link, lat time.Duration, ok bool) {
	if !from.alive ||
		(from.zone != to.zone && n.Partitioned(from.zone, to.zone)) ||
		n.lost(n.degradationFor(from.zone, to.zone)) {
		n.dropped++
		return nil, 0, false
	}
	from.nicWrite += int64(size)
	n.observe(HopClassOf(from, to), size)
	n.observeLink(from.zone, to.zone, size)
	lat = n.latency(from, to)
	lk = &n.links[n.pairIndex(from.zone, to.zone)]
	lk.bytes += int64(size)
	lk.messages++
	return lk, lat, true
}

// departure queues an admitted message on its link in the clock frame (the
// frame of Send), returning the arrival instant. ok is false
// when the message is dropped at the source.
func (n *Network) departure(from, to *Node, size int) (arrive time.Duration, ok bool) {
	lk, lat, ok := n.admit(from, to, size)
	if !ok {
		return 0, false
	}
	depart := n.env.Now()
	bw := n.bandwidth(from.zone, to.zone)
	if bw > 0 && from.id != to.id {
		if lk.nextFree > depart {
			depart = lk.nextFree
		}
		tx := time.Duration(float64(size) / bw * float64(time.Second))
		lk.nextFree = depart + tx
		depart += tx
	}
	return depart + lat, true
}

// latency returns the one-way propagation latency between two nodes with
// deterministic jitter applied.
func (n *Network) latency(from, to *Node) time.Duration {
	var rtt time.Duration
	switch {
	case from.id == to.id:
		return 2 * time.Microsecond
	case from.host == to.host && from.zone == to.zone:
		rtt = n.topo.SameHostRTT
	default:
		fi, ti := zoneIndex(from.zone), zoneIndex(to.zone)
		rtt = n.topo.RTT[fi][ti]
	}
	lat := rtt / 2
	if n.topo.JitterFrac > 0 {
		f := 1 + n.topo.JitterFrac*(n.env.Rand().Float64()-0.5)
		lat = time.Duration(float64(lat) * f)
	}
	if d := n.degradationFor(from.zone, to.zone); d != nil && d.LatencyFactor > 1 {
		lat = time.Duration(float64(lat) * d.LatencyFactor)
	}
	return lat
}

// zoneIndex maps a ZoneID to a topology matrix index, treating the unset
// zone as zone 1 (it has to live somewhere; unset only disables awareness).
func zoneIndex(z ZoneID) int {
	if z == ZoneUnset {
		return 0
	}
	return int(z) - 1
}

func (n *Network) bandwidth(a, b ZoneID) float64 {
	if a == b {
		return n.topo.IntraZoneBandwidth
	}
	return n.topo.InterZoneBandwidth
}

// CrossZoneBytes returns total bytes that crossed any AZ boundary.
func (n *Network) CrossZoneBytes() int64 {
	var total int64
	for a := 0; a <= n.topo.Zones(); a++ {
		for b := 0; b <= n.topo.Zones(); b++ {
			if a != b {
				total += n.links[n.pairIndex(ZoneID(a), ZoneID(b))].bytes
			}
		}
	}
	return total
}

// TotalBytes returns total bytes sent on all links.
func (n *Network) TotalBytes() int64 {
	var total int64
	for i := range n.links {
		total += n.links[i].bytes
	}
	return total
}

// TotalMessages returns the count of messages sent on all links.
func (n *Network) TotalMessages() int64 {
	var total int64
	for i := range n.links {
		total += n.links[i].messages
	}
	return total
}

// Dropped returns the count of messages dropped due to death or partition.
func (n *Network) Dropped() int64 { return n.dropped }

// DiskWrite blocks p for the duration of writing size bytes to the node's
// local disk (FIFO fluid queue) and accounts the bytes. Pending deferred
// delay is flushed first: the write cannot start before the caller's data
// has arrived.
func (nd *Node) DiskWrite(p *sim.Proc, size int) {
	p.Flush()
	nd.diskWrite += int64(size)
	p.Sleep(nd.diskDelay(size))
}

// DiskRead blocks p for the duration of reading size bytes from the node's
// local disk and accounts the bytes. Pending deferred delay is flushed
// first, as for DiskWrite.
func (nd *Node) DiskRead(p *sim.Proc, size int) {
	p.Flush()
	nd.diskRead += int64(size)
	p.Sleep(nd.diskDelay(size))
}

// AsyncDiskWrite accounts a background write (e.g. a lazily flushed log)
// without blocking the caller. Queueing is still modelled, so sustained
// over-rate writing pushes subsequent disk operations out in time.
func (nd *Node) AsyncDiskWrite(size int) {
	nd.diskWrite += int64(size)
	_ = nd.diskDelay(size)
}

func (nd *Node) diskDelay(size int) time.Duration {
	now := nd.net.env.Now()
	start := now
	if nd.diskNextFree > start {
		start = nd.diskNextFree
	}
	tx := time.Duration(float64(size) / nd.DiskBandwidth * float64(time.Second))
	nd.diskNextFree = start + tx + nd.DiskLatency
	return nd.diskNextFree - now
}

// String implements fmt.Stringer.
func (nd *Node) String() string {
	return fmt.Sprintf("%s(zone=%d,host=%d)", nd.name, nd.zone, nd.host)
}
