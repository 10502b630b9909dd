package ndb

import (
	"testing"
	"time"

	"hopsfscl/internal/sim"
	"hopsfscl/internal/simnet"
)

// quietCluster is testCluster with its heartbeat probers stopped, so that
// the only arbitrations that run are the ones a test starts, and the
// datanodes of each zone in index order (two per zone, one per node group).
func quietCluster(t *testing.T) (*sim.Env, *Cluster, map[simnet.ZoneID][]*DataNode) {
	t.Helper()
	env, c, _ := testCluster(t, true, 3)
	c.StopBackground()
	env.RunFor(time.Second)
	zones := map[simnet.ZoneID][]*DataNode{}
	for _, dn := range c.DataNodes() {
		zones[dn.Node.Zone()] = append(zones[dn.Node.Zone()], dn)
	}
	return env, c, zones
}

// suspect starts detector's handling of a suspected suspect, in a process
// of its own.
func suspect(env *sim.Env, c *Cluster, detector, suspect *DataNode) {
	env.Spawn("detector", func(p *sim.Proc) { c.handleSuspectedFailure(p, detector, suspect) })
}

// TestDetectorLosingArbitratorLegShutsDown: with zones 2 and 3 cut apart,
// a zone-2 detector suspecting a zone-3 node may survive only on the
// arbitrator's answer (§IV-A2). Losing either leg of the round trip — the
// request, or the answer after the arbitrator granted it — leaves it
// unable to tell whether its side won, so it shuts itself down. It declares
// nobody dead: a lost request leaves zone 3 up, and only the grant's own
// orders take zone 3 down.
func TestDetectorLosingArbitratorLegShutsDown(t *testing.T) {
	for _, leg := range []string{"request", "answer"} {
		t.Run(leg, func(t *testing.T) {
			env, c, zones := quietCluster(t)
			detector, suspected := zones[2][0], zones[3][0]
			c.net.Partition(2, 3)
			if leg == "request" {
				c.net.Partition(1, 2) // M1, the arbitrator, is in zone 1
			} else {
				// The request is in flight for at least 160µs: the answer
				// leaves after the cut.
				env.Spawn("cut", func(p *sim.Proc) {
					p.Sleep(50 * time.Microsecond)
					c.net.Partition(1, 2)
				})
			}
			suspect(env, c, detector, suspected)
			env.RunFor(time.Second)
			if !detector.Shutdown() {
				t.Error("the detector survived without the arbitrator's answer")
			}
			winner, decided := c.arbGranted[c.arbEpoch]
			granted := decided && winner == detector.Index
			if granted != (leg == "answer") || suspected.Shutdown() != granted || suspected.declaredDead != granted {
				t.Errorf("granted %v; suspect shut down %v, declared dead %v",
					granted, suspected.Shutdown(), suspected.declaredDead)
			}
		})
	}
}

// TestSecondClaimantWinsOnlyOnWinnersSide: zone 2 wins the epoch against
// zone 3, which the arbitrator orders down. The partition then moves —
// zone 1 is cut from zone 2 — within the same epoch: a zone-1 claimant
// suspecting a zone-2 node is refused, since it cannot reach the winner,
// and shuts itself down instead of declaring the winner's side dead. A
// claimant that reaches the winner is on its side and is granted, and a
// suspect already declared dead starts no second arbitration.
func TestSecondClaimantWinsOnlyOnWinnersSide(t *testing.T) {
	env, c, zones := quietCluster(t)
	winner := zones[2][0]
	c.net.Partition(2, 3)
	suspect(env, c, winner, zones[3][0])
	env.RunFor(time.Second)
	if winner.Shutdown() || !zones[3][0].declaredDead {
		t.Fatalf("first claimant: shut down %v, suspect declared dead %v", winner.Shutdown(), zones[3][0].declaredDead)
	}
	for _, dn := range zones[3] {
		if !dn.Shutdown() {
			t.Errorf("%s survived on the losing side", dn.Node)
		}
	}
	// The zone-3 suspect is dead already: nothing more is asked.
	suspect(env, c, zones[2][1], zones[3][0])
	env.RunFor(time.Second)
	if len(c.arbGranted) != 1 || zones[2][1].Shutdown() {
		t.Fatalf("a second suspicion of a dead node reopened arbitration: %v", c.arbGranted)
	}

	c.net.Heal(2, 3)
	c.net.Partition(1, 2)
	refused := zones[1][0]
	suspect(env, c, refused, zones[2][1])
	env.RunFor(time.Second)
	if !refused.Shutdown() {
		t.Error("a claimant cut off from the epoch's winner survived")
	}
	if zones[2][1].declaredDead || winner.Shutdown() {
		t.Error("the refused claimant's suspicion took the winner's side down")
	}
	c.net.Heal(1, 2)
	if !c.arbitrate(c.arbitrator(), zones[1][1]) {
		t.Error("a claimant on the winner's side was refused")
	}
}

// TestShutDownClaimantCannotOpenEpoch: a claimant the arbitrator already
// ordered down — its request overtaken by the order — wins nothing, and the
// epoch stays open for a live claimant. Were it granted, its side would be
// a side of one dead node, and every live claimant across the partition
// would be refused.
func TestShutDownClaimantCannotOpenEpoch(t *testing.T) {
	env, c, zones := quietCluster(t)
	c.net.Partition(2, 3)
	dead, live := zones[3][0], zones[2][0]
	dead.shutdownSelf()
	arb := c.arbitrator()
	if c.arbitrate(arb, dead) {
		t.Error("a shut-down claimant won the epoch")
	}
	if !c.arbitrate(arb, live) {
		t.Fatal("the epoch a shut-down claimant asked for is not open to a live one")
	}
	env.RunFor(time.Second)
	if !zones[3][1].Shutdown() || live.Shutdown() {
		t.Errorf("zone 3's survivor shut down %v, the live winner shut down %v", zones[3][1].Shutdown(), live.Shutdown())
	}
}

// TestNoArbitratorShutsDetectorDown: with every management node down there
// is nobody to arbitrate. Where the unreachable nodes could form a cluster
// of their own, the detector shuts itself down rather than risk a split
// brain; where they could not — one crashed node — it declares the suspect
// dead without asking.
func TestNoArbitratorShutsDetectorDown(t *testing.T) {
	env, c, zones := quietCluster(t)
	for _, m := range c.mgmt {
		m.Node.Fail()
	}
	c.net.Partition(2, 3)
	suspect(env, c, zones[2][0], zones[3][0])
	env.RunFor(time.Second)
	if !zones[2][0].Shutdown() || zones[3][0].declaredDead {
		t.Errorf("split brain possible, no arbitrator: detector shut down %v, suspect declared dead %v",
			zones[2][0].Shutdown(), zones[3][0].declaredDead)
	}
	c.net.Heal(2, 3)
	crashed := zones[1][1]
	crashed.Node.Fail()
	suspect(env, c, zones[1][0], crashed)
	env.RunFor(time.Second)
	if zones[1][0].Shutdown() || !crashed.declaredDead {
		t.Errorf("one node crashed, no arbitrator: detector shut down %v, suspect declared dead %v",
			zones[1][0].Shutdown(), crashed.declaredDead)
	}
}

// TestLoneSurvivorProbesNoOne: in a cluster of one node group, the datanode
// whose peer crashed and was declared dead has no ring successor left. Its
// heartbeat loop probes no one and opens no further arbitration epoch, and
// it keeps committing alone.
func TestLoneSurvivorProbesNoOne(t *testing.T) {
	env, c, client := testClusterCfg(t, true, 2, func(cfg *Config) { cfg.DataNodes = 2 })
	tbl := c.CreateTable("inodes", 8, TableOptions{ReadBackup: true})
	env.RunFor(time.Second)
	survivor, crashed := c.DataNodes()[0], c.DataNodes()[1]
	crashed.Node.Fail()
	env.RunFor(2 * time.Second)
	if !crashed.declaredDead || !survivor.Alive() {
		t.Fatalf("crashed declared dead %v, survivor alive %v", crashed.declaredDead, survivor.Alive())
	}
	if peer := c.ringSuccessor(survivor); peer != nil {
		t.Fatalf("the survivor's ring successor is datanode %d, declared dead %v", peer.Index, peer.declaredDead)
	}
	epoch := c.arbEpoch
	env.RunFor(2 * time.Second)
	if c.arbEpoch != epoch || !survivor.Alive() {
		t.Errorf("epoch %d → %d, survivor alive %v", epoch, c.arbEpoch, survivor.Alive())
	}
	inTxn(t, env, c, client, 1, tbl, "p", func(p *sim.Proc, tx *Txn) error {
		if err := put(tx, tbl, "p", "k", "v"); err != nil {
			return err
		}
		return tx.Commit()
	})
}
