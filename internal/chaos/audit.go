package chaos

import (
	"fmt"
	"sort"
	"time"

	"hopsfscl/internal/blocks"
	"hopsfscl/internal/core"
	"hopsfscl/internal/namenode"
	"hopsfscl/internal/ndb"
)

// Violation is one observed invariant breach.
type Violation struct {
	Invariant string
	Detail    string
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// Auditor verifies cross-layer invariants over a quiesced deployment. It
// inspects storage, namespace, and block-layer state directly (outside the
// simulated network), so callers must drain the workload first — the
// engine's checkpoint path does.
type Auditor struct {
	d *core.Deployment
	// dbs are the NDB clusters in shard order; lastDurable tracks each
	// shard's durable epoch independently (the clusters checkpoint on
	// their own cadences).
	dbs         []*ndb.Cluster
	lastDurable []uint64

	// Checkpoints counts completed audits; Violations accumulates every
	// breach found across them.
	Checkpoints int
	Violations  []Violation
}

// NewAuditor returns an auditor over the deployment. All invariants run
// per NDB cluster, so a sharded deployment is audited shard by shard with
// the same checks an unsharded one gets.
func NewAuditor(d *core.Deployment) *Auditor {
	a := &Auditor{d: d, dbs: d.MetaClusters()}
	a.lastDurable = make([]uint64, len(a.dbs))
	for i, db := range a.dbs {
		a.lastDurable[i] = db.DurableEpoch()
	}
	return a
}

// Check runs one audit checkpoint and returns the newly found violations.
// quiesced means the workload drained cleanly (in-flight transactions and
// row locks are checked only then, since a live transaction legitimately
// holds both). settled means no fault is active and failure detection,
// re-election, and re-replication have had time to converge — the
// conditions under which leader uniqueness and orphan reclamation must
// hold.
func (a *Auditor) Check(now time.Duration, quiesced, settled bool) []Violation {
	var out []Violation
	add := func(invariant, format string, args ...any) {
		out = append(out, Violation{Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
	}
	for s := range a.dbs {
		a.checkNDB(add, s, quiesced)
	}
	a.checkIntents(add, quiesced, settled)
	a.checkBlocks(add, now, settled)
	a.checkDirs(add)
	a.checkLeader(add, settled)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Invariant != out[j].Invariant {
			return out[i].Invariant < out[j].Invariant
		}
		return out[i].Detail < out[j].Detail
	})
	a.Checkpoints++
	a.Violations = append(a.Violations, out...)
	return out
}

type addFn func(invariant, format string, args ...any)

// checkNDB verifies one shard's storage layer: every node group keeps at
// least one live member, every partition keeps a live primary from its own
// group, the durable epoch never regresses, and a drained cluster holds no
// locks or half-open transactions. Violation details name the shard only
// on sharded deployments, so unsharded audit output is unchanged.
func (a *Auditor) checkNDB(add addFn, s int, quiesced bool) {
	db := a.dbs[s]
	at := a.d.ShardLabel(s)
	for gi, group := range db.NodeGroups() {
		alive := 0
		for _, dn := range group {
			if dn.Alive() {
				alive++
			}
		}
		if alive == 0 {
			add("ndb-group-liveness", "node group %d has no live member: its partitions are gone%s", gi, at)
		}
	}
	for _, t := range db.Tables() {
		for _, part := range t.Partitions() {
			reps := part.Replicas()
			if len(reps) == 0 {
				add("ndb-partition-replicas", "table %s partition %d has no live replica%s", t.Name(), part.Index(), at)
				continue
			}
			for _, dn := range reps {
				if !dn.Alive() {
					add("ndb-partition-replicas", "table %s partition %d lists dead replica ndb-%d%s",
						t.Name(), part.Index(), dn.Index+1, at)
				}
				if dn.Group != part.Group() && !t.Options().FullyReplicated {
					add("ndb-partition-replicas", "table %s partition %d served by ndb-%d of group %d, want group %d%s",
						t.Name(), part.Index(), dn.Index+1, dn.Group, part.Group(), at)
				}
			}
		}
	}
	cur, dur := db.CurrentEpoch(), db.DurableEpoch()
	if dur < a.lastDurable[s] {
		add("gcp-durable-monotonic", "durable epoch regressed from %d to %d%s", a.lastDurable[s], dur, at)
	}
	a.lastDurable[s] = dur
	if cur <= dur {
		add("gcp-epoch-order", "current epoch %d not ahead of durable epoch %d%s", cur, dur, at)
	}
	if quiesced {
		if n := db.InFlightTxns(); n != 0 {
			add("txn-quiescence", "%d transactions still in flight after drain%s", n, at)
		}
		for _, row := range db.HeldLocks() {
			add("lock-leak", "row %s still locked after drain%s", row, at)
		}
	}
}

// checkIntents verifies that no durable cross-shard intent survives a
// quiesced sweep: the engine resolves pending intents before auditing, so
// anything still in the intent tables means an unrecoverable half-commit.
// Meaningful only once settled — while a fault is active, the sweeper may
// legitimately be unable to reach the shard holding an intent's rows.
// Unsharded deployments have no intent tables and always pass.
func (a *Auditor) checkIntents(add addFn, quiesced, settled bool) {
	if !quiesced || !settled || a.d.NS == nil {
		return
	}
	if n := a.d.NS.PendingIntents(); n != 0 {
		add("intent-resolution", "%d cross-shard intents still pending after quiesced sweep", n)
	}
}

// checkBlocks verifies the §IV-C block guarantees and namespace agreement:
// every committed block keeps at least one replica per live AZ or is
// queued for re-replication, block data survives somewhere, no inode
// points at a deleted block, and (once settled) no orphan outlives the
// reclamation grace.
func (a *Auditor) checkBlocks(add addFn, now time.Duration, settled bool) {
	mgr := a.d.Blocks
	if mgr == nil || a.d.NS == nil || mgr.ObjectStore() != nil {
		return
	}
	under := make(map[blocks.BlockID]bool)
	for _, b := range mgr.UnderReplicated() {
		under[b.ID] = true
	}
	refs := a.d.NS.ReferencedBlocks()
	liveDNs := 0
	for _, dn := range mgr.DataNodes() {
		if dn.Node.Alive() {
			liveDNs++
		}
	}
	want := blocks.Replication
	if liveDNs < want {
		want = liveDNs
	}
	for _, b := range mgr.Blocks() {
		if b.InObjectStore() {
			continue
		}
		locs := b.Locations()
		if len(locs) == 0 {
			held := false
			for _, dn := range mgr.DataNodes() {
				if dn.HoldsBlock(b.ID) {
					held = true
					break
				}
			}
			if !held {
				add("block-durability", "block %d has no replica on any datanode, live or down", b.ID)
			}
		}
		if (len(locs) < want || mgr.SpreadViolated(b)) && !under[b.ID] {
			add("block-az-spread", "block %d violates placement and is not queued for re-replication", b.ID)
		}
	}
	danglers := make([]blocks.BlockID, 0)
	for id := range refs {
		if _, ok := mgr.Block(id); !ok {
			danglers = append(danglers, id)
		}
	}
	sort.Slice(danglers, func(i, j int) bool { return danglers[i] < danglers[j] })
	for _, id := range danglers {
		add("ns-block-dangling", "an inode references deleted block %d", id)
	}
	if settled {
		for _, b := range mgr.Blocks() {
			if !refs[b.ID] && now-b.Created > blocks.OrphanGrace+3*time.Second {
				add("block-orphan", "unreferenced block %d outlived the reclamation grace", b.ID)
			}
		}
	}
}

// checkDirs verifies that no directory carries a file's data: a write's
// blocks land on the file it created, never on a directory that took its
// name.
func (a *Auditor) checkDirs(add addFn) {
	if a.d.NS == nil {
		return
	}
	a.d.NS.ForEachInode(func(ino *namenode.Inode) {
		if ino.Dir && (ino.Size != 0 || len(ino.Blocks) != 0) {
			add("ns-dir-blocks", "directory %d (%q) has size %d and %d blocks", ino.ID, ino.Name, ino.Size, len(ino.Blocks))
		}
	})
}

// checkLeader verifies exactly one elected leader among live metadata
// servers. Meaningful only once settled: during partitions or within an
// election-expiry window of a fault, views legitimately diverge.
func (a *Auditor) checkLeader(add addFn, settled bool) {
	ns := a.d.NS
	if ns == nil || !settled {
		return
	}
	alive, leaders := 0, 0
	ids := ""
	for _, nn := range ns.NameNodes() {
		if !nn.Alive() {
			continue
		}
		alive++
		if nn.IsLeader() {
			leaders++
			ids += fmt.Sprintf(" nn-%d", nn.ID)
		}
	}
	if alive > 0 && leaders != 1 {
		add("leader-uniqueness", "%d leaders among %d live metadata servers:%s", leaders, alive, ids)
	}
}
