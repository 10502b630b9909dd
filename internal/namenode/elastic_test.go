package namenode

import (
	"testing"
	"time"

	"hopsfscl/internal/sim"
	"hopsfscl/internal/simnet"
)

// settleRounds runs the simulation long enough for election rows to refresh
// and stale ones to expire.
func (h *harness) settleRounds(n int) {
	h.env.RunFor(time.Duration(n) * h.ns.cfg.ElectionRound)
}

func TestCommissionJoinsServingSet(t *testing.T) {
	h := newHarness(t)
	h.settleRounds(4)
	if got := h.ns.ServingCount(); got != 3 {
		t.Fatalf("ServingCount = %d, want 3", got)
	}
	epoch := h.ns.BalanceEpoch()
	nn := h.ns.Commission(1, simnet.HostID(600), 1)
	if h.ns.BalanceEpoch() != epoch+1 {
		t.Fatalf("Commission did not bump balance epoch")
	}
	if !nn.Serving() {
		t.Fatal("commissioned NN not serving")
	}
	if got := h.ns.ServingCount(); got != 4 {
		t.Fatalf("ServingCount = %d, want 4", got)
	}
	// After a few rounds the newcomer appears in the leader's active list.
	h.settleRounds(4)
	leader := h.ns.ElectedLeader()
	if leader == nil {
		t.Fatal("no leader")
	}
	found := false
	for _, a := range leader.ActiveNameNodes() {
		if a.ID == nn.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("commissioned NN %d missing from leader's active list %v", nn.ID, leader.ActiveNameNodes())
	}
}

func TestClientRebalancesOnEpochBump(t *testing.T) {
	h := newHarness(t)
	h.settleRounds(4)
	cl := h.client(1)
	h.run(t, func(p *sim.Proc) {
		if err := cl.Mkdir(p, "/d"); err != nil {
			t.Error(err)
		}
	})
	first := cl.CurrentNameNode()
	if first == nil {
		t.Fatal("client has no server after an operation")
	}
	// Without a scale event the client sticks.
	h.run(t, func(p *sim.Proc) {
		if _, err := cl.Stat(p, "/d"); err != nil {
			t.Error(err)
		}
	})
	if cl.CurrentNameNode() != first {
		t.Fatal("client re-picked without an epoch bump")
	}
	// A drain of its server forces a re-pick away from it.
	first.Drain()
	h.run(t, func(p *sim.Proc) {
		if _, err := cl.Stat(p, "/d"); err != nil {
			t.Error(err)
		}
	})
	if cl.CurrentNameNode() == first {
		t.Fatal("client still on a draining server after epoch bump")
	}
}

func TestDrainDecommissionLifecycle(t *testing.T) {
	h := newHarness(t)
	h.settleRounds(4)
	nn := h.ns.nns[2]
	if err := nn.Decommission(); err == nil {
		t.Fatal("Decommission before Drain should fail")
	}
	nn.Drain()
	if nn.Serving() || !nn.Draining() {
		t.Fatalf("after Drain: serving=%v draining=%v", nn.Serving(), nn.Draining())
	}
	if !nn.Alive() {
		t.Fatal("draining NN should stay alive for in-flight work")
	}
	// Its election row expires once it stops heartbeating.
	h.settleRounds(6)
	leader := h.ns.ElectedLeader()
	for _, a := range leader.ActiveNameNodes() {
		if a.ID == nn.ID {
			t.Fatalf("draining NN %d still in active list", nn.ID)
		}
	}
	if err := nn.Decommission(); err != nil {
		t.Fatal(err)
	}
	if !nn.Decommissioned() || nn.Alive() {
		t.Fatalf("after Decommission: decom=%v alive=%v", nn.Decommissioned(), nn.Alive())
	}
	// Decommissioning is irreversible.
	nn.Recover()
	if nn.Alive() {
		t.Fatal("Recover revived a decommissioned NN")
	}
	// The health model forgets the drained server entirely.
	live, expected, _ := h.ns.HealthStats(h.env.Now())
	if live != 2 || expected != 2 {
		t.Fatalf("HealthStats live=%d expected=%d, want 2/2", live, expected)
	}
}

func TestDrainWaitsForInFlight(t *testing.T) {
	h := newHarness(t)
	h.settleRounds(4)
	cl := h.client(2)
	h.run(t, func(p *sim.Proc) {
		if err := cl.Mkdir(p, "/busy"); err != nil {
			t.Error(err)
		}
	})
	nn := cl.CurrentNameNode()
	// Start a slow operation and drain mid-flight: decommission must refuse
	// until the operation completes.
	var refused bool
	done := false
	h.env.Spawn("op", func(p *sim.Proc) {
		_, err := cl.List(p, "/")
		if err != nil {
			t.Error(err)
		}
		done = true
	})
	h.env.Spawn("drainer", func(p *sim.Proc) {
		p.Sleep(10 * time.Microsecond)
		nn.Drain()
		if nn.InFlight() > 0 {
			if err := nn.Decommission(); err != nil {
				refused = true
			}
		}
	})
	h.env.RunFor(time.Minute)
	if !done {
		t.Fatal("operation did not finish")
	}
	if nn.InFlight() != 0 {
		t.Fatalf("InFlight = %d after quiesce", nn.InFlight())
	}
	_ = refused // refusal only observable if the drain raced the op; lifecycle still must end clean
	if err := nn.Decommission(); err != nil {
		t.Fatal(err)
	}
}

// TestClientsSpreadEvenlyByZone: AZ-unaware clients pick among every server,
// yet each server ends up with each zone's clients in equal shares, and a
// re-pick after a drain keeps the shares within one of each other.
func TestClientsSpreadEvenlyByZone(t *testing.T) {
	h := newHarness(t)
	h.settleRounds(4)
	var cls []*Client
	for i := 0; i < 27; i++ {
		cls = append(cls, h.ns.NewClient(simnet.ZoneID(i%3+1), simnet.HostID(600+i), simnet.ZoneUnset))
	}
	statAll := func() {
		h.run(t, func(p *sim.Proc) {
			for _, cl := range cls {
				if _, err := cl.Stat(p, "/"); err != nil {
					t.Error(err)
				}
			}
		})
	}
	count := func() map[stickKey]int {
		got := map[stickKey]int{}
		for _, cl := range cls {
			got[stickKey{cl.Node.Zone(), cl.CurrentNameNode().ID}]++
		}
		return got
	}
	statAll()
	got := count()
	for z := simnet.ZoneID(1); z <= 3; z++ {
		for _, nn := range h.ns.nns {
			if n := got[stickKey{z, nn.ID}]; n != 3 {
				t.Errorf("zone %d: %d clients on server %d, want 3 (%v)", z, n, nn.ID, got)
			}
		}
	}
	drained := h.ns.nns[0]
	drained.Drain()
	statAll()
	got = count()
	for z := simnet.ZoneID(1); z <= 3; z++ {
		a, b := got[stickKey{z, h.ns.nns[1].ID}], got[stickKey{z, h.ns.nns[2].ID}]
		if a+b != 9 || a-b > 1 || b-a > 1 {
			t.Errorf("zone %d after a drain: %d and %d clients on the two servers left, want 9 split within one (%v)", z, a, b, got)
		}
	}
	// The namesystem's counts are the clients' own choices.
	for k, n := range h.ns.clientsOn {
		if n != got[k] {
			t.Errorf("clientsOn[%v] = %d, the clients say %d", k, n, got[k])
		}
	}
}
