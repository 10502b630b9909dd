package ndb

import (
	"time"

	"hopsfscl/internal/sim"
	"hopsfscl/internal/simnet"
)

// startBackground launches the cluster's housekeeping processes: the global
// checkpoint ticker, which also flushes every live datanode's REDO, and a
// heartbeat prober per datanode. They run until StopBackground is called
// (or the environment is closed); cluster simulations are normally driven
// with Env.RunFor. Messages need no process: a Complete or a shutdown order
// runs its handler where it arrives.
func (c *Cluster) startBackground() {
	c.gcpEpoch = 1
	c.env.Spawn("ndb/gcp-ticker", func(p *sim.Proc) { c.gcpLoop(p) })
	for _, dn := range c.datanodes {
		dn.startHousekeeping()
	}
}

// startHousekeeping spawns the datanode's heartbeat prober — at cluster
// start and again whenever the node comes back from a real outage (it exits
// when the node goes down). Its spawn order and name are schedule- and
// span-visible.
func (dn *DataNode) startHousekeeping() {
	dn.c.env.Spawn(dn.Node.Name()+"/hb", func(p *sim.Proc) { dn.heartbeatLoop(p) })
}

// StopBackground asks all housekeeping processes to exit at their next
// tick, letting Env.Run quiesce.
func (c *Cluster) StopBackground() { c.bgStop = true }

// controlHop carries one control-plane message — a heartbeat probe or its
// answer, an arbitration request or reply, a resync transfer — and waits
// for its arrival, or for the timeout when it is lost, before the caller
// acts on the outcome.
func (c *Cluster) controlHop(p *sim.Proc, from, to *simnet.Node, size int, timeout time.Duration) bool {
	ok := c.net.TravelDeferred(p, from, to, size, timeout)
	p.Flush()
	return ok
}

// heartbeatLoop probes the next alive datanode in the ring (§II-B2's node
// failure and heartbeat protocols). Two consecutive missed probes declare
// the peer failed and trigger arbitration.
func (dn *DataNode) heartbeatLoop(p *sim.Proc) {
	misses := 0
	for !dn.c.bgStop {
		p.Sleep(heartbeatInterval)
		if !dn.Alive() {
			return
		}
		peer := dn.c.ringSuccessor(dn)
		if peer == nil {
			continue
		}
		ok := dn.c.controlHop(p, dn.Node, peer.Node, ackSize, rpcTimeout) &&
			dn.c.controlHop(p, peer.Node, dn.Node, ackSize, rpcTimeout)
		if !dn.Alive() {
			return
		}
		if ok {
			misses = 0
			continue
		}
		misses++
		if misses < 2 {
			continue
		}
		misses = 0
		dn.c.handleSuspectedFailure(p, dn, peer)
	}
}

// ringSuccessor returns the next datanode by index that is believed alive.
func (c *Cluster) ringSuccessor(dn *DataNode) *DataNode {
	n := len(c.datanodes)
	for i := 1; i < n; i++ {
		peer := c.datanodes[(dn.Index+i)%n]
		if peer.declaredDead {
			continue
		}
		return peer
	}
	return nil
}

// handleSuspectedFailure runs the arbitration protocol of §IV-A2: the
// detector asks the elected arbitrator whether its side of the cluster may
// survive. The arbitrator accepts the first claimant of an epoch, orders
// unreachable-from-claimant nodes to shut down, and the surviving side
// promotes backup partitions for every node now dead.
func (c *Cluster) handleSuspectedFailure(p *sim.Proc, detector, suspect *DataNode) {
	if suspect.declaredDead || !detector.Alive() {
		return
	}
	arb := c.arbitrator()
	if !c.splitBrainPossible(detector) {
		// The failed set could not form a viable cluster on its own (it
		// lacks a complete node-group coverage), so no split brain is
		// possible and the survivors may continue without arbitration.
		arb = nil
	}
	if arb != nil {
		// Round trip to the arbitrator; failure to reach it means the
		// detector is on the losing side of a partition and must shut
		// down gracefully.
		if !c.controlHop(p, detector.Node, arb.Node, reqSize, rpcTimeout) {
			detector.shutdownSelf()
			return
		}
		granted := c.arbitrate(detector)
		if !c.controlHop(p, arb.Node, detector.Node, ackSize, rpcTimeout) {
			detector.shutdownSelf()
			return
		}
		if !granted {
			detector.shutdownSelf()
			return
		}
	}
	if suspect.Alive() && !c.reachable(detector, suspect) {
		// Partitioned, not dead: the arbitrator has already ordered the
		// other side down; nothing more for the detector to do here.
		return
	}
	if suspect.Alive() && c.reachable(detector, suspect) &&
		c.controlHop(p, detector.Node, suspect.Node, ackSize, rpcTimeout) &&
		c.controlHop(p, suspect.Node, detector.Node, ackSize, rpcTimeout) {
		// Final direct probe before declaring: the suspect answers, so the
		// missed heartbeats were a transient (a healed partition or a lossy
		// spell), not a failure. Without this re-check a node whose misses
		// accumulated during a partition would be declared dead moments
		// after the network recovered.
		return
	}
	c.declareDead(suspect)
}

// splitBrainPossible applies NDB's viability rule: arbitration is required
// only when the set of nodes the detector cannot reach (but which may still
// be running) covers at least one member of every node group — i.e. the
// other side could serve all data and form a second cluster.
func (c *Cluster) splitBrainPossible(detector *DataNode) bool {
	for _, group := range c.groups {
		covered := false
		for _, dn := range group {
			if dn.declaredDead || dn.shutdown {
				continue
			}
			if dn.Node.Alive() && !c.reachable(detector, dn) {
				covered = true
				break
			}
		}
		if !covered {
			return false
		}
	}
	return true
}

// arbitrate runs at the arbitrator: the first claimant of an epoch wins;
// every alive datanode the claimant cannot reach is ordered to shut down.
func (c *Cluster) arbitrate(claimant *DataNode) bool {
	if claimant.shutdown {
		return false
	}
	winner, decided := c.arbGranted[c.arbEpoch]
	if decided {
		// A second claimant in the same epoch wins only if it is on the
		// winner's side.
		return c.reachable(claimant, c.datanodes[winner])
	}
	c.arbGranted[c.arbEpoch] = claimant.Index
	arb := c.arbitrator()
	for _, dn := range c.datanodes {
		if dn == claimant || !dn.Alive() {
			continue
		}
		if !c.reachable(claimant, dn) {
			c.net.Send(arb.Node, dn.Node, ackSize, dn.onShutdown)
		}
	}
	return true
}

// NextArbitrationEpoch starts a fresh arbitration window. Failure-injection
// harnesses call it between distinct failure scenarios.
func (c *Cluster) NextArbitrationEpoch() { c.arbEpoch++ }

// reachable reports whether a's zone can talk to b's zone.
func (c *Cluster) reachable(a, b *DataNode) bool {
	return !c.net.Partitioned(a.Node.Zone(), b.Node.Zone())
}

// arbitrator returns the elected management node: the first one alive
// (§IV-A2 — if M1 fails, another management node is elected).
func (c *Cluster) arbitrator() *MgmtNode {
	for _, m := range c.mgmt {
		if m.Node.Alive() {
			return m
		}
	}
	return nil
}

// declareDead marks a datanode dead cluster-wide and promotes backup
// partitions on the surviving members of its node group (§IV-A2).
func (c *Cluster) declareDead(suspect *DataNode) {
	if suspect.declaredDead {
		return
	}
	suspect.declaredDead = true
	for _, t := range c.tables {
		for _, part := range t.partitions {
			part.promoteFrom(suspect)
		}
	}
}

// shutdownSelf takes the datanode out of the cluster gracefully.
func (dn *DataNode) shutdownSelf() {
	if dn.shutdown {
		return
	}
	dn.shutdown = true
	dn.Node.Fail()
	dn.c.declareDead(dn)
}

// Rejoin brings a datanode back into the cluster. A node that is down —
// failed or shut down by arbitration — recovers, copies the current data of
// its node group's partitions from the surviving primaries (a full node
// restart recovery, charged as network transfer), restarts its heartbeat
// prober, and resumes as a backup replica. A running node that was declared
// dead on missed heartbeats (lossy links) only resyncs: its prober never
// exited. Rejoin does nothing to a live, undeclared node. The caller's
// process is blocked for the duration of the resync.
func (c *Cluster) Rejoin(p *sim.Proc, dn *DataNode) {
	down := !dn.Alive()
	if !down && !dn.declaredDead {
		return
	}
	if down {
		dn.Node.Recover()
		dn.shutdown = false
	}
	c.resync(p, dn)
	dn.declaredDead = false
	if down {
		dn.startHousekeeping()
	}
}

// resync copies the current data of the node's group's partitions from the
// surviving primaries (a full node restart recovery, charged as network
// transfer). The caller's process is blocked for the duration.
func (c *Cluster) resync(p *sim.Proc, dn *DataNode) {
	// Sorted table order: each copy is a network transfer, and ranging the
	// table map here would reorder events run to run.
	for _, t := range c.Tables() {
		for _, part := range t.partitions {
			if part.group != dn.Group && !t.opts.FullyReplicated {
				continue
			}
			reps := part.replicas()
			if len(reps) == 0 || reps[0] == dn {
				continue
			}
			var rows int
			for _, b := range part.rows {
				rows += len(b.rows)
			}
			if rows == 0 {
				continue
			}
			size := rows * t.rowSize
			if c.controlHop(p, reps[0].Node, dn.Node, size, 5*rpcTimeout) {
				dn.redoPending += int64(size)
			}
		}
	}
}

// RecoverZone rejoins every datanode and management node of a zone after
// an AZ failure or partition has been repaired.
func (c *Cluster) RecoverZone(p *sim.Proc, z simnet.ZoneID) {
	for _, m := range c.mgmt {
		if m.Node.Zone() == z {
			m.Node.Recover()
		}
	}
	for _, dn := range c.datanodes {
		if dn.Node.Zone() == z {
			c.Rejoin(p, dn)
		}
	}
}

// FailZone fails every datanode and management node in the given zone —
// the paper's AZ-failure scenario (§V-F).
func (c *Cluster) FailZone(z simnet.ZoneID) {
	for _, dn := range c.datanodes {
		if dn.Node.Zone() == z {
			dn.Node.Fail()
		}
	}
	for _, m := range c.mgmt {
		if m.Node.Zone() == z {
			m.Node.Fail()
		}
	}
}
