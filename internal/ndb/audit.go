package ndb

import "sort"

// This file exports read-only accessors used by the chaos auditor
// (internal/chaos) to verify cross-layer invariants after fault injection.
// They inspect cluster state directly — outside the simulated network and
// transaction paths — and therefore must only be called while the
// simulation is quiesced (no workload in flight).

// Tables returns every table in the cluster, sorted by name so audit
// sweeps are deterministic.
func (c *Cluster) Tables() []*Table {
	out := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Replicas returns the alive replica datanodes for the partition, primary
// first (the same view the transaction coordinator uses). The result is a
// copy; the internal list is memoized per topology epoch.
func (p *Partition) Replicas() []*DataNode {
	reps := p.replicas()
	out := make([]*DataNode, len(reps))
	copy(out, reps)
	return out
}

// ForEachCommitted calls fn for every committed row of the table, in
// sorted (partition key, row key) order: the applied value, a held row's
// included (see row), which reads do not see yet.
func (t *Table) ForEachCommitted(fn func(partKey, key string, val Value)) {
	for _, part := range t.partitions {
		pks := make([]string, 0, len(part.rows))
		for pk := range part.rows {
			pks = append(pks, pk)
		}
		sort.Strings(pks)
		for _, pk := range pks {
			b := part.rows[pk]
			keys := make([]string, 0, len(b.rows))
			for k, r := range b.rows {
				if r.exists {
					keys = append(keys, k)
				}
			}
			sort.Strings(keys)
			for _, k := range keys {
				fn(pk, k, b.rows[k].val)
			}
		}
	}
}

// HeldLocks returns a deterministic description of every row whose lock
// has holders or waiters. On a quiesced cluster (no transaction in flight)
// this must be empty: strict two-phase locking releases everything at
// commit or abort, so a surviving entry is a leaked lock.
func (c *Cluster) HeldLocks() []string {
	var out []string
	for _, t := range c.Tables() {
		for _, part := range t.partitions {
			for pk, b := range part.rows {
				for k, r := range b.rows {
					if !r.lock.idle() {
						out = append(out, t.name+"/"+pk+"/"+k)
					}
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// InFlightTxns returns the number of transactions begun but neither
// committed nor aborted. Zero on a quiesced cluster.
func (c *Cluster) InFlightTxns() int64 {
	return c.Stats.Begun - c.Stats.Committed - c.Stats.Aborted
}

// DeclaredDead reports whether the cluster has declared this datanode dead
// (it must rejoin through node recovery before serving again).
func (dn *DataNode) DeclaredDead() bool { return dn.declaredDead }
