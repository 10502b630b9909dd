package namenode

import (
	"fmt"
	"time"

	"hopsfscl/internal/ndb"
	"hopsfscl/internal/sim"
	"hopsfscl/internal/simnet"
)

// electionRow is one NN's entry in the election table. Following [28]
// (leader election using NewSQL database systems) each metadata server
// updates its row every round; the lowest-id server with a fresh row is the
// leader. HopsFS-CL extends the row with the server's locationDomainId so
// clients can pick AZ-local servers (§IV-B3).
type electionRow struct {
	ID     int
	Domain simnet.ZoneID
	At     time.Duration
}

const electionPartKey = "e"

func electionKey(id int) string { return fmt.Sprintf("e/%05d", id) }

// electionLoop is the NN's heartbeat: write own row, read all rows, derive
// the leader and the active list.
func (nn *NameNode) electionLoop(p *sim.Proc) {
	// Stagger the first round so NNs don't phase-lock; a quarter round of
	// spread converges the initial view quickly.
	p.Sleep(time.Duration(p.Rand().Int63n(int64(nn.ns.cfg.ElectionRound / 4))))
	for !nn.ns.bgStop {
		if !nn.Alive() || nn.draining {
			// A draining server stops heartbeating so its election row
			// expires and peers drop it from the active list.
			return
		}
		nn.electionRound(p)
		p.Sleep(nn.ns.cfg.ElectionRound)
	}
}

func (nn *NameNode) electionRound(p *sim.Proc) {
	err := nn.runTxn(p, electionPartKey, func(tx ndb.Tx) error {
		row := &electionRow{ID: nn.ID, Domain: nn.Domain, At: p.Now()}
		election := nn.ns.election.For(electionPartKey)
		if err := tx.WriteBatch([]ndb.BatchWrite{{Table: election, PartKey: electionPartKey, Key: electionKey(nn.ID), Val: row}}); err != nil {
			return err
		}
		scans, err := tx.ScanBatch([]ndb.BatchScan{{Table: election, PartKey: electionPartKey, Prefix: "e/"}})
		if err != nil {
			return err
		}
		kvs := scans[0]
		expiry := nn.ns.cfg.ElectionRound * 5 / 2
		leader := 0
		var active []ActiveNN
		sawSelf := false
		for _, kv := range kvs {
			r, ok := kv.Val.(*electionRow)
			if !ok {
				continue
			}
			if r.ID != nn.ID && p.Now()-r.At > expiry {
				continue
			}
			if r.ID == nn.ID {
				sawSelf = true
			}
			active = append(active, ActiveNN{ID: r.ID, Domain: r.Domain})
			if leader == 0 || r.ID < leader {
				leader = r.ID
			}
		}
		if !sawSelf {
			// The scan reads committed rows, so the round's own write is
			// not visible yet (first round): include ourselves.
			active = append(active, ActiveNN{ID: nn.ID, Domain: nn.Domain})
			if leader == 0 || nn.ID < leader {
				leader = nn.ID
			}
		}
		nn.leaderID = leader
		nn.active = active
		nn.lastRound = p.Now()
		return nil
	})
	// Election failures (storage failover in progress) are retried next
	// round; the previous view remains in effect meanwhile.
	_ = err
}

// IsLeader reports whether this NN currently believes it is the leader.
func (nn *NameNode) IsLeader() bool { return nn.Alive() && nn.leaderID == nn.ID }

// ActiveNameNodes returns the NN's current view of the active server list
// with their reported location domains.
func (nn *NameNode) ActiveNameNodes() []ActiveNN {
	out := make([]ActiveNN, len(nn.active))
	copy(out, nn.active)
	return out
}

// ElectedLeader returns the namesystem-wide elected leader according to
// the freshest NN views, or nil if no NN is alive.
func (ns *Namesystem) ElectedLeader() *NameNode {
	var best *NameNode
	for _, nn := range ns.nns {
		if !nn.Alive() {
			continue
		}
		if best == nil || nn.lastRound > best.lastRound {
			best = nn
		}
	}
	if best == nil {
		return nil
	}
	id := best.leaderID
	if id >= 1 && id <= len(ns.nns) && ns.nns[id-1].Alive() {
		return ns.nns[id-1]
	}
	return best
}

// StopBackground asks election loops (and client-visible housekeeping) to
// exit at their next tick so the simulation can quiesce.
func (ns *Namesystem) StopBackground() { ns.bgStop = true }
