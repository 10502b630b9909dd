package ndb

import (
	"hopsfscl/internal/sim"
)

// Global checkpoint (GCP) durability semantics (§II-B2): NDB transactions
// commit in memory; durability is provided by the global checkpoint
// protocol, which periodically fences an epoch across all node groups and
// flushes its REDO to disk. Committed transactions in epochs newer than
// the last completed global checkpoint survive any partial failure (the
// surviving replicas hold them), but a failure of the WHOLE cluster loses
// them: recovery restores the last durable epoch.
//
// The epoch counter lives on the cluster. One cluster-level ticker flushes
// every live node's REDO to disk and advances the durable horizon. Every
// committed row write first logs the row's pre-image; the tick that makes
// the writes durable clears the log, and a whole-cluster restart replays it
// newest first.

// gcpLoop runs the global checkpoint every gcpInterval: each live node
// flushes the REDO it logged since the last tick to its disk (the only disk
// NDB uses in steady state, §V-D1), and epoch n becomes durable.
func (c *Cluster) gcpLoop(p *sim.Proc) {
	for !c.bgStop {
		p.Sleep(gcpInterval)
		for _, dn := range c.datanodes {
			if dn.Alive() && dn.redoPending > 0 {
				dn.threads[IO].Charge(dn.batched(IO, costLDMCommit))
				dn.Node.AsyncDiskWrite(int(dn.redoPending))
				dn.redoPending = 0
			}
		}
		c.gcpEpoch++
		c.durableEpoch = c.gcpEpoch - 1
		clear(c.undo) // drop the pre-images' references
		c.undo = c.undo[:0]
	}
}

// preImage is a row as it was before a committed write: one entry of the
// cluster's undo log.
type preImage struct {
	part    *Partition
	pk, key string
	val     Value
	exists  bool
}

// CurrentEpoch returns the in-progress global checkpoint epoch.
func (c *Cluster) CurrentEpoch() uint64 { return c.gcpEpoch }

// DurableEpoch returns the newest epoch guaranteed recoverable after a
// whole-cluster failure.
func (c *Cluster) DurableEpoch() uint64 { return c.durableEpoch }

// CrashRestartCluster simulates the §II-B2 whole-cluster failure and
// system recovery from the global checkpoints: every datanode restarts,
// and every write committed since the last durable global checkpoint is
// undone (it never reached disk anywhere). The undo log is replayed newest
// first, so each row gets back the value it held at the checkpoint; a
// transaction's rows apply at one instant, so a transaction is undone
// whole. The caller's process is charged the recovery REDO replay from each
// node's disk. Lock state and held rows' marks are cleared: no transactions
// survive a cluster crash.
func (c *Cluster) CrashRestartCluster(p *sim.Proc) {
	durable := c.durableEpoch
	for i := len(c.undo) - 1; i >= 0; i-- {
		u := &c.undo[i]
		r := u.part.getRow(u.pk, u.key)
		r.val, r.exists = u.val, u.exists
	}
	clear(c.undo)
	c.undo = c.undo[:0]
	for _, t := range c.tables {
		for _, part := range t.partitions {
			for pk, b := range part.rows {
				for key, r := range b.rows {
					r.lock = rowLock{}
					r.held, r.pre, r.preExists = false, nil, false
					if !r.exists {
						delete(b.rows, key)
					}
				}
				b.sorted = nil
				if len(b.rows) == 0 {
					delete(part.rows, pk)
				}
			}
		}
	}
	// Restart every node; replay charges the REDO read from local disk.
	for _, dn := range c.datanodes {
		wasDown := !dn.Alive()
		dn.Node.Recover()
		dn.shutdown = false
		dn.declaredDead = false
		dn.redoPending = 0
		var replay int
		for _, t := range c.tables {
			for _, part := range t.partitions {
				if part.group != dn.Group && !t.opts.FullyReplicated {
					continue
				}
				for _, b := range part.rows {
					replay += len(b.rows) * t.rowSize
				}
			}
		}
		if replay > 0 {
			dn.Node.DiskRead(p, replay)
		}
		if wasDown {
			dn.startHousekeeping()
		}
	}
	c.gcpEpoch = durable + 1
}
