package blocks

import (
	"testing"
	"time"

	"hopsfscl/internal/objstore"
	"hopsfscl/internal/sim"
	"hopsfscl/internal/simnet"
)

// testManager builds a block layer with three datanodes per zone.
func testManager(t *testing.T, azAware bool) (*sim.Env, *Manager) {
	t.Helper()
	env := sim.New(3)
	t.Cleanup(env.Close)
	net := simnet.New(env, simnet.USWest1())
	cfg := DefaultConfig()
	cfg.AZAware = azAware
	cfg.BlockSize = 1 << 20 // 1 MB blocks keep virtual transfer times short
	var pls []Placement
	h := simnet.HostID(0)
	for z := simnet.ZoneID(1); z <= 3; z++ {
		for i := 0; i < 3; i++ {
			pls = append(pls, Placement{Zone: z, Host: h})
			h++
		}
	}
	return env, NewManager(env, net, cfg, pls)
}

func client(m *Manager, z simnet.ZoneID) *simnet.Node {
	return m.net.NewNode("client", z, simnet.HostID(900+int(z)))
}

func TestAZAwarePlacementSpansAllZones(t *testing.T) {
	env, m := testManager(t, true)
	_ = env
	for trial := 0; trial < 20; trial++ {
		targets, err := m.Place(2, 3)
		if err != nil {
			t.Fatal(err)
		}
		zones := map[simnet.ZoneID]bool{}
		for _, dn := range targets {
			zones[dn.Node.Zone()] = true
		}
		if len(zones) != 3 {
			t.Fatalf("replicas span %d zones, want 3", len(zones))
		}
		if targets[0].Node.Zone() != 2 {
			t.Fatalf("first replica in zone %d, want writer zone 2", targets[0].Node.Zone())
		}
	}
}

func TestPlacementDistinctNodes(t *testing.T) {
	for _, aware := range []bool{true, false} {
		_, m := testManager(t, aware)
		targets, err := m.Place(1, 3)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int]bool{}
		for _, dn := range targets {
			if seen[dn.ID] {
				t.Fatalf("aware=%v: duplicate target %d", aware, dn.ID)
			}
			seen[dn.ID] = true
		}
	}
}

func TestPlacementFailsWithoutEnoughNodes(t *testing.T) {
	_, m := testManager(t, true)
	for _, dn := range m.DataNodes()[:7] {
		dn.Node.Fail()
	}
	if _, err := m.Place(1, 3); err != ErrNoDatanodes {
		t.Fatalf("err = %v, want ErrNoDatanodes", err)
	}
}

func TestWriteAndReadBlock(t *testing.T) {
	env, m := testManager(t, true)
	cl := client(m, 1)
	var blk *Block
	env.Spawn("writer", func(p *sim.Proc) {
		b, err := m.WriteBlock(p, cl, 42, 1<<20)
		if err != nil {
			t.Error(err)
			return
		}
		blk = b
	})
	env.RunFor(time.Minute)
	if blk == nil {
		t.Fatal("write did not complete")
	}
	if got := len(blk.Locations()); got != 3 {
		t.Fatalf("block has %d replicas, want 3", got)
	}
	for _, dn := range blk.Locations() {
		if _, w := dn.Node.DiskBytes(); w != 1<<20 {
			t.Fatalf("replica %d wrote %d bytes to disk", dn.ID, w)
		}
	}
	var src *DataNode
	env.Spawn("reader", func(p *sim.Proc) {
		s, err := m.ReadBlock(p, cl, blk.ID)
		if err != nil {
			t.Error(err)
			return
		}
		src = s
	})
	env.RunFor(time.Minute)
	if src == nil || src.Node.Zone() != cl.Zone() {
		t.Fatalf("read served from zone %v, want client zone %v", src.Node.Zone(), cl.Zone())
	}
}

func TestDeleteBlockFreesReplicas(t *testing.T) {
	env, m := testManager(t, true)
	cl := client(m, 1)
	var blk *Block
	env.Spawn("writer", func(p *sim.Proc) {
		blk, _ = m.WriteBlock(p, cl, 1, 1<<20)
	})
	env.RunFor(time.Minute)
	m.DeleteBlock(blk.ID)
	for _, dn := range m.DataNodes() {
		if dn.HoldsBlock(blk.ID) {
			t.Fatalf("datanode %d still holds deleted block", dn.ID)
		}
	}
	if _, ok := m.Block(blk.ID); ok {
		t.Fatal("registry still lists deleted block")
	}
}

func TestReReplicationAfterDatanodeFailure(t *testing.T) {
	env, m := testManager(t, true)
	cl := client(m, 1)
	var blk *Block
	env.Spawn("writer", func(p *sim.Proc) {
		blk, _ = m.WriteBlock(p, cl, 1, 1<<20)
	})
	env.RunFor(time.Minute)
	victim := blk.Locations()[0]
	victim.Node.Fail()
	if got := len(blk.Locations()); got != 2 {
		t.Fatalf("live replicas = %d after failure, want 2", got)
	}
	env.RunFor(time.Minute)
	if got := len(blk.Locations()); got != 3 {
		t.Fatalf("live replicas = %d after monitor, want 3 (re-replicated)", got)
	}
	if m.ReReplications != 1 {
		t.Fatalf("re-replications = %d, want 1", m.ReReplications)
	}
	// The replacement must restore the one-replica-per-AZ invariant.
	zones := map[simnet.ZoneID]bool{}
	for _, dn := range blk.Locations() {
		zones[dn.Node.Zone()] = true
	}
	if len(zones) != 3 {
		t.Fatalf("replicas span %d zones after re-replication, want 3", len(zones))
	}
}

func TestAZFailureKeepsBlocksReadable(t *testing.T) {
	env, m := testManager(t, true)
	cl := client(m, 1)
	var blk *Block
	env.Spawn("writer", func(p *sim.Proc) {
		blk, _ = m.WriteBlock(p, cl, 1, 1<<20)
	})
	env.RunFor(time.Minute)
	// Fail all datanodes in zone 1 (the client's zone).
	for _, dn := range m.DataNodes() {
		if dn.Node.Zone() == 1 {
			dn.Node.Fail()
		}
	}
	var err error
	env.Spawn("reader", func(p *sim.Proc) {
		_, err = m.ReadBlock(p, cl, blk.ID)
	})
	env.RunFor(time.Minute)
	if err != nil {
		t.Fatalf("read after AZ failure: %v", err)
	}
}

func TestMonitorRespectsLeaderGate(t *testing.T) {
	env, m := testManager(t, true)
	m.SetLeaderCheck(func() bool { return false })
	cl := client(m, 1)
	var blk *Block
	env.Spawn("writer", func(p *sim.Proc) {
		blk, _ = m.WriteBlock(p, cl, 1, 1<<20)
	})
	env.RunFor(time.Minute)
	blk.Locations()[0].Node.Fail()
	env.RunFor(time.Minute)
	if m.ReReplications != 0 {
		t.Fatal("monitor re-replicated without a leader")
	}
}

func TestSplitSize(t *testing.T) {
	_, m := testManager(t, true)
	tests := []struct {
		size int64
		want int
	}{
		{0, 0},
		{1, 1},
		{1 << 20, 1},
		{(1 << 20) + 1, 2},
		{5 << 20, 5},
	}
	for _, tt := range tests {
		if got := m.SplitSize(tt.size); got != tt.want {
			t.Errorf("SplitSize(%d) = %d, want %d", tt.size, got, tt.want)
		}
	}
}

func TestObjectStoreBackend(t *testing.T) {
	env := sim.New(3)
	t.Cleanup(env.Close)
	net := simnet.New(env, simnet.USWest1())
	cfg := DefaultConfig()
	cfg.BlockSize = 1 << 20
	m := NewManager(env, net, cfg, nil) // no datanodes: the provider owns storage
	store := objstore.New(env, net, objstore.DefaultConfig(), []simnet.ZoneID{1, 2, 3}, 700)
	m.UseObjectStore(store)
	cl := net.NewNode("client", 2, 900)

	var blk *Block
	env.Spawn("io", func(p *sim.Proc) {
		b, err := m.WriteBlock(p, cl, 7, 1<<20)
		if err != nil {
			t.Error(err)
			return
		}
		blk = b
		if _, err := m.ReadBlock(p, cl, b.ID); err != nil {
			t.Error(err)
		}
	})
	env.RunFor(time.Minute)
	if blk == nil || !blk.InObjectStore() {
		t.Fatalf("block not object-backed: %+v", blk)
	}
	if store.Puts != 1 || store.Gets != 1 {
		t.Fatalf("store API counts: %d puts %d gets", store.Puts, store.Gets)
	}
	// Provider durability: never under-replicated, monitor does nothing.
	if got := len(m.UnderReplicated()); got != 0 {
		t.Fatalf("object blocks reported under-replicated: %d", got)
	}
	m.DeleteBlock(blk.ID)
	if store.Len() != 0 {
		t.Fatal("object survived block delete")
	}
	if _, ok := m.Block(blk.ID); ok {
		t.Fatal("registry kept deleted block")
	}
}

// TestSpreadViolationFlagsAndRepairs loses an AZ and brings it back: while
// the zone is down the block must be flagged under-replicated even if the
// replica count was restored within the surviving zones, and once the zone
// recovers the monitor must restore one-replica-per-AZ, trimming any
// excess copies it piled up in the interim.
func TestSpreadViolationFlagsAndRepairs(t *testing.T) {
	env, m := testManager(t, true)
	cl := client(m, 1)
	var blk *Block
	env.Spawn("writer", func(p *sim.Proc) {
		blk, _ = m.WriteBlock(p, cl, 1, 1<<20)
	})
	env.RunFor(time.Minute)

	for _, dn := range m.DataNodes() {
		if dn.Node.Zone() == 2 {
			dn.Node.Fail()
		}
	}
	// Let the monitor re-replicate within the two surviving zones: the
	// count comes back to 3 across the two live AZs, which satisfies the
	// one-replica-per-LIVE-AZ reading of §IV-C — no violation yet.
	env.RunFor(time.Minute)
	if got := len(blk.Locations()); got != 3 {
		t.Fatalf("live replicas = %d with zone 2 down, want 3 (count repaired)", got)
	}
	if m.SpreadViolated(blk) {
		t.Fatal("3 replicas across both live zones flagged as spread violation")
	}

	// The moment the zone returns, 3 replicas over 2 of 3 live zones IS a
	// violation, and the monitor must both restore the spread and trim the
	// excess copy it piled up during the outage.
	for _, dn := range m.DataNodes() {
		if dn.Node.Zone() == 2 {
			dn.Node.Recover()
		}
	}
	if !m.SpreadViolated(blk) {
		t.Fatal("missing-zone spread not flagged after zone recovery")
	}
	found := false
	for _, b := range m.UnderReplicated() {
		if b.ID == blk.ID {
			found = true
		}
	}
	if !found {
		t.Fatal("spread-violating block missing from UnderReplicated()")
	}
	env.RunFor(time.Minute)
	if m.SpreadViolated(blk) {
		t.Fatal("spread violation persists after zone recovery + monitor")
	}
	locs := blk.Locations()
	if len(locs) != 3 {
		t.Fatalf("live replicas = %d after repair, want exactly 3 (excess trimmed)", len(locs))
	}
	zones := map[simnet.ZoneID]bool{}
	for _, dn := range locs {
		zones[dn.Node.Zone()] = true
	}
	if len(zones) != 3 {
		t.Fatalf("replicas span %d zones after repair, want 3", len(zones))
	}
}

// TestReconcileInvalidatesStaleReplicas recovers a datanode whose block
// was re-replicated elsewhere while it was down: the block-report
// reconciliation must drop the stale copy.
func TestReconcileInvalidatesStaleReplicas(t *testing.T) {
	env, m := testManager(t, true)
	cl := client(m, 1)
	var blk *Block
	env.Spawn("writer", func(p *sim.Proc) {
		blk, _ = m.WriteBlock(p, cl, 1, 1<<20)
	})
	env.RunFor(time.Minute)
	victim := blk.Locations()[0]
	victim.Node.Fail()
	env.RunFor(time.Minute) // monitor re-replicates onto a different node
	if !victim.HoldsBlock(blk.ID) {
		t.Fatal("setup: victim should still hold the stale replica while down")
	}
	victim.Node.Recover()
	env.RunFor(time.Minute) // monitor reconciles block reports
	if victim.HoldsBlock(blk.ID) {
		t.Fatal("stale replica not invalidated after recovery")
	}
	if got := len(blk.Locations()); got != 3 {
		t.Fatalf("live replicas = %d after reconcile, want 3", got)
	}
}

// TestOrphanReclamation registers one referenced and one orphaned block
// and advances past the grace period: only the orphan is reclaimed, and
// only after the grace.
func TestOrphanReclamation(t *testing.T) {
	env, m := testManager(t, true)
	m.SetReferencedCheck(func() map[BlockID]bool {
		// Block 1 is referenced by an inode; anything else is orphaned.
		return map[BlockID]bool{1: true}
	})
	cl := client(m, 1)
	env.Spawn("writer", func(p *sim.Proc) {
		m.WriteBlock(p, cl, 1, 1<<20)
		m.WriteBlock(p, cl, 2, 1<<20)
	})
	env.RunFor(30 * time.Second) // inside the grace period (1 minute)
	if m.OrphansReclaimed != 0 {
		t.Fatal("orphan reclaimed before the grace period expired")
	}
	env.RunFor(2 * time.Minute) // past the grace
	if m.OrphansReclaimed != 1 {
		t.Fatalf("orphans reclaimed = %d, want 1", m.OrphansReclaimed)
	}
	if _, ok := m.Block(1); !ok {
		t.Fatal("referenced block was reclaimed")
	}
	if _, ok := m.Block(2); ok {
		t.Fatal("orphaned block survived the grace period")
	}
}
