package core

import (
	"fmt"
	"strings"

	"hopsfscl/internal/ndb"
	"hopsfscl/internal/sim"
	"hopsfscl/internal/simnet"
)

// What consumers do to a HopsFS deployment beyond running operations —
// break it, wait for it to drain, read its storage counters — is written
// here once, over MetaClusters, so every shard is covered and none is
// special. The chaos engine, the public facade, the bench harness and
// hopstrace all call these instead of walking clusters themselves.

// FailZone takes down everything the deployment runs in zone z: the
// datanodes and management nodes of every NDB cluster, the metadata servers
// and the block datanodes — the paper's AZ-failure scenario (§V-F).
func (d *Deployment) FailZone(z simnet.ZoneID) {
	for _, c := range d.MetaClusters() {
		c.FailZone(z)
	}
	for _, nn := range d.NS.NameNodes() {
		if nn.Node.Zone() == z {
			nn.Fail()
		}
	}
	if d.Blocks != nil {
		for _, dn := range d.Blocks.DataNodes() {
			if dn.Node.Zone() == z {
				dn.Node.Fail()
			}
		}
	}
}

// RecoverZone brings zone z back: every cluster's storage nodes rejoin and
// resync from surviving primaries (simulated time, hence the process), the
// metadata servers restart and rejoin the election, and the block datanodes
// come back online.
func (d *Deployment) RecoverZone(p *sim.Proc, z simnet.ZoneID) {
	for _, c := range d.MetaClusters() {
		c.RecoverZone(p, z)
	}
	for _, nn := range d.NS.NameNodes() {
		if nn.Node.Zone() == z {
			nn.Recover()
		}
	}
	if d.Blocks != nil {
		for _, dn := range d.Blocks.DataNodes() {
			if dn.Node.Zone() == z {
				dn.Node.Recover()
			}
		}
	}
}

// Partition severs the network between zones a and b. Every cluster starts
// a new arbitration epoch first, so each one's arbitrator decides afresh
// which side of this partition survives.
func (d *Deployment) Partition(a, b simnet.ZoneID) {
	for _, c := range d.MetaClusters() {
		c.NextArbitrationEpoch()
	}
	d.Net.Partition(a, b)
}

// Heal restores the network between zones a and b. Arbitration losers stay
// shut down until something rejoins them.
func (d *Deployment) Heal(a, b simnet.ZoneID) { d.Net.Heal(a, b) }

// Idle reports whether the metadata stack has drained: no operation
// executing on any metadata server, and no open transaction and no held or
// awaited row lock on any cluster. Background elections keep running — their
// transactions are short, so a polling caller always finds an idle instant
// between rounds.
func (d *Deployment) Idle() bool {
	for _, nn := range d.NS.NameNodes() {
		if nn.InFlight() > 0 {
			return false
		}
	}
	for _, c := range d.MetaClusters() {
		if c.InFlightTxns() != 0 || len(c.HeldLocks()) != 0 {
			return false
		}
	}
	return true
}

// MetaStats returns the transaction counters summed over every cluster.
func (d *Deployment) MetaStats() ndb.Stats {
	var s ndb.Stats
	for _, c := range d.MetaClusters() {
		s.Begun += c.Stats.Begun
		s.Committed += c.Stats.Committed
		s.Aborted += c.Stats.Aborted
		s.Reads += c.Stats.Reads
		s.Writes += c.Stats.Writes
		s.Rounds += c.Stats.Rounds
	}
	return s
}

// LiveStorageNodes counts the NDB datanodes that are up, and all of them,
// over every cluster.
func (d *Deployment) LiveStorageNodes() (live, total int) {
	for _, c := range d.MetaClusters() {
		for _, dn := range c.DataNodes() {
			total++
			if dn.Alive() {
				live++
			}
		}
	}
	return live, total
}

// StorageThreads returns every datanode's thread pool of one Table II type,
// across all clusters — one utilization window per type is Figure 11.
func (d *Deployment) StorageThreads(t ndb.ThreadType) []*sim.Resource {
	var out []*sim.Resource
	for _, c := range d.MetaClusters() {
		for _, dn := range c.DataNodes() {
			out = append(out, dn.Threads()[t])
		}
	}
	return out
}

// ShardLabel is the suffix per-cluster report lines carry: " [shard N]" on a
// sharded deployment, empty on an unsharded one so its output is unchanged.
func (d *Deployment) ShardLabel(s int) string {
	if len(d.MetaClusters()) <= 1 {
		return ""
	}
	return fmt.Sprintf(" [shard %d]", s)
}

// Contention returns every cluster's lock-contention ledger in shard order
// (nil for CephFS).
func (d *Deployment) Contention() []*ndb.ContentionLedger {
	var out []*ndb.ContentionLedger
	for _, c := range d.MetaClusters() {
		out = append(out, c.Contention())
	}
	return out
}

// ContentionReport renders every cluster's contention ledger, n rows per
// table: the ledger's own rendering for an unsharded deployment, one
// ShardLabel-headed section per cluster otherwise.
func (d *Deployment) ContentionReport(n int) string {
	var b strings.Builder
	for s, l := range d.Contention() {
		if label := d.ShardLabel(s); label != "" {
			fmt.Fprintf(&b, "lock contention%s:\n", label)
		}
		b.WriteString(l.Render(n))
	}
	return b.String()
}
