package hopsfscl

import (
	"errors"
	"strings"
	"testing"
	"time"

	"hopsfscl/internal/bench"
)

func newCluster(t *testing.T, opts ...Option) *Cluster {
	t.Helper()
	c, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestQuickstartFlow(t *testing.T) {
	c := newCluster(t)
	fs := c.Client(1)
	if err := fs.MkdirAll("/data/logs"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/data/logs/app.log", 64<<10); err != nil {
		t.Fatal(err)
	}
	info, err := fs.ReadFile("/data/logs/app.log")
	if err != nil {
		t.Fatal(err)
	}
	if !info.Inline || info.Size != 64<<10 {
		t.Fatalf("small file info: %+v", info)
	}
	kids, err := fs.List("/data/logs")
	if err != nil || len(kids) != 1 || kids[0].Name != "app.log" {
		t.Fatalf("list: %v %+v", err, kids)
	}
	if err := fs.Rename("/data/logs", "/data/archive"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat("/data/archive/app.log"); err != nil {
		t.Fatalf("stat after rename: %v", err)
	}
	if _, err := fs.Stat("/data/logs/app.log"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("old path: %v", err)
	}
}

func TestLargeFileSpansAZs(t *testing.T) {
	c := newCluster(t)
	fs := c.Client(2)
	if err := fs.WriteFile("/big.bin", 300<<20); err != nil {
		t.Fatal(err)
	}
	info, err := fs.ReadFile("/big.bin")
	if err != nil {
		t.Fatal(err)
	}
	if info.Blocks != 3 { // 300 MB over 128 MB blocks
		t.Fatalf("blocks = %d, want 3", info.Blocks)
	}
}

func TestAZFailureIsTolerated(t *testing.T) {
	c := newCluster(t)
	fs := c.Client(1)
	if err := fs.MkdirAll("/svc"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("/svc/before"); err != nil {
		t.Fatal(err)
	}
	c.FailZone(2)
	if _, err := fs.Stat("/svc/before"); err != nil {
		t.Fatalf("read after AZ failure: %v", err)
	}
	if err := fs.Create("/svc/after"); err != nil {
		t.Fatalf("write after AZ failure: %v", err)
	}
	s := c.Stats()
	if s.AliveStorageNodes == 6 || s.AliveNameNodes == 3 {
		t.Fatalf("zone failure had no effect: %+v", s)
	}
}

func TestSplitBrainResolvedByArbitrator(t *testing.T) {
	c := newCluster(t)
	fs := c.Client(1)
	if err := fs.Create("/x"); err != nil {
		t.Fatal(err)
	}
	c.PartitionZones(2, 3)
	c.Advance(2e9)
	// One side shut down; the cluster keeps serving.
	if err := fs.Create("/y"); err != nil {
		t.Fatalf("write after split brain: %v", err)
	}
	s := c.Stats()
	if s.AliveStorageNodes >= 6 {
		t.Fatalf("no node shut down after split brain: %+v", s)
	}
}

func TestLeaderFailover(t *testing.T) {
	c := newCluster(t)
	first := c.LeaderID()
	if first == 0 {
		t.Fatal("no leader elected")
	}
	if err := c.FailNameNode(first); err != nil {
		t.Fatal(err)
	}
	c.Advance(6e9)
	second := c.LeaderID()
	if second == 0 || second == first {
		t.Fatalf("leader did not fail over: %d -> %d", first, second)
	}
	// The surviving servers still serve requests.
	fs := c.Client(3)
	if err := fs.Create("/post-failover"); err != nil {
		t.Fatal(err)
	}
}

func TestAZAwarenessReducesCrossZoneTraffic(t *testing.T) {
	run := func(setup string) int64 {
		c := newCluster(t, WithSetup(setup), WithoutBlockLayer())
		// Spread reads over many directories and all three zones so the
		// partition primaries are scattered, as in a real namespace.
		var clients []*FS
		for z := 1; z <= 3; z++ {
			clients = append(clients, c.Client(z))
		}
		for i := 0; i < 24; i++ {
			if err := clients[i%3].Mkdir("/d" + string(rune('a'+i))); err != nil {
				t.Fatal(err)
			}
		}
		before := c.Stats().CrossZoneBytes
		for i := 0; i < 120; i++ {
			if _, err := clients[i%3].Stat("/d" + string(rune('a'+i%24))); err != nil {
				t.Fatal(err)
			}
		}
		return c.Stats().CrossZoneBytes - before
	}
	aware := run("HopsFS-CL (3,3)")
	unaware := run("HopsFS (3,3)")
	if aware >= unaware {
		t.Fatalf("AZ-aware reads crossed more zones (%d) than unaware (%d)", aware, unaware)
	}
}

func TestUnknownSetupRejected(t *testing.T) {
	if _, err := New(WithSetup("HopsFS (9,9)")); err == nil {
		t.Fatal("bogus setup accepted")
	}
	if _, err := New(WithSetup("CephFS")); err == nil {
		t.Fatal("CephFS baseline accepted as a library deployment")
	}
}

func TestSetupsAndExperimentsListed(t *testing.T) {
	if got := len(Setups()); got != 9 {
		t.Fatalf("setups = %d, want 9", got)
	}
	if len(bench.Experiments) != 20 {
		t.Fatalf("experiments = %d, want 20", len(bench.Experiments))
	}
	want := map[string]bool{"table1": true, "table2": true, "fig5": true, "fig14": true, "failures": true, "chaos": true, "phases": true, "writefan": true, "autoscale": true, "hotspot": true, "shardsweep": true}
	for _, e := range bench.Experiments {
		delete(want, e.ID)
	}
	if len(want) != 0 {
		t.Fatalf("missing experiment ids: %v", want)
	}
}

func TestDeterminism(t *testing.T) {
	trace := func() []int64 {
		c := newCluster(t, WithSeed(42))
		fs := c.Client(1)
		_ = fs.MkdirAll("/a/b")
		for i := 0; i < 10; i++ {
			_ = fs.Create("/a/b/f" + string(rune('0'+i)))
		}
		s := c.Stats()
		return []int64{s.CommittedTxns, s.CrossZoneBytes, s.TotalBytes}
	}
	a, b := trace(), trace()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at stat %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestZoneFailureAndRecoveryRoundTrip(t *testing.T) {
	c := newCluster(t)
	fs := c.Client(1)
	if err := fs.MkdirAll("/svc"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("/svc/f"); err != nil {
		t.Fatal(err)
	}
	c.FailZone(3)
	if got := c.Stats().AliveStorageNodes; got >= 6 {
		t.Fatalf("alive storage = %d after failure", got)
	}
	if err := c.RecoverZone(3); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.AliveStorageNodes != 6 || s.AliveNameNodes != 3 {
		t.Fatalf("recovery incomplete: %+v", s)
	}
	if _, err := fs.Stat("/svc/f"); err != nil {
		t.Fatalf("stat after recovery: %v", err)
	}
	if err := fs.Create("/svc/g"); err != nil {
		t.Fatalf("create after recovery: %v", err)
	}
}

func TestObjectStoreBlockBackend(t *testing.T) {
	c := newCluster(t, WithObjectStoreBlocks())
	fs := c.Client(1)
	if err := fs.WriteFile("/cloud.bin", 300<<20); err != nil {
		t.Fatal(err)
	}
	info, err := fs.ReadFile("/cloud.bin")
	if err != nil {
		t.Fatal(err)
	}
	if info.Blocks != 3 {
		t.Fatalf("blocks = %d, want 3", info.Blocks)
	}
	// The blocks are objects, and the provider owns durability: an AZ
	// failure cannot make them unreadable and no re-replication happens.
	c.FailZone(2)
	if _, err := fs.ReadFile("/cloud.bin"); err != nil {
		t.Fatalf("read after AZ failure: %v", err)
	}
	if got := c.Stats().ReReplications; got != 0 {
		t.Fatalf("object-store blocks re-replicated %d times", got)
	}
	if err := fs.Delete("/cloud.bin", false); err != nil {
		t.Fatal(err)
	}
}

func TestExistsAndDu(t *testing.T) {
	c := newCluster(t, WithoutBlockLayer())
	fs := c.Client(2)
	if err := fs.MkdirAll("/du/sub"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/du/a", 1000); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/du/sub/b", 2000); err != nil {
		t.Fatal(err)
	}
	files, dirs, bytes, err := fs.Du("/du")
	if err != nil {
		t.Fatal(err)
	}
	if files != 2 || dirs != 2 || bytes != 3000 {
		t.Fatalf("du = (%d, %d, %d), want (2, 2, 3000)", files, dirs, bytes)
	}
	ok, err := fs.Exists("/du/a")
	if err != nil || !ok {
		t.Fatalf("exists = %v, %v", ok, err)
	}
	ok, err = fs.Exists("/du/zzz")
	if err != nil || ok {
		t.Fatalf("exists missing = %v, %v", ok, err)
	}
}

func TestRunChaosScheduleOnFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos campaign drives a full deployment")
	}
	c := newCluster(t, WithSeed(11))
	rep, err := c.RunChaos("at 3s fail-zone 2\nat 8s recover-zone 2\n", 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.History) == 0 || rep.OK == 0 {
		t.Fatalf("campaign recorded no successful operation:\n%s", rep.Render())
	}
	if !rep.Clean() {
		t.Fatalf("campaign not clean:\n%s", rep.Render())
	}
	if !strings.Contains(rep.Render(), "fail-zone") {
		t.Fatalf("render missing the schedule step:\n%s", rep.Render())
	}
	// The cluster is still usable after the campaign.
	if err := c.Client(1).MkdirAll("/post/chaos"); err != nil {
		t.Fatalf("cluster unusable after campaign: %v", err)
	}

	if _, err := c.RunChaos("at 1s fail-zone 9\n", 1); err == nil {
		t.Fatal("schedule with a bogus zone accepted")
	}
}

func TestElasticScaleOnFacade(t *testing.T) {
	c := newCluster(t)
	base := c.ServingNameNodes()
	if base == 0 {
		t.Fatal("no serving metadata servers")
	}
	if err := c.ScaleUp(2); err != nil {
		t.Fatal(err)
	}
	if got := c.ServingNameNodes(); got != base+2 {
		t.Fatalf("serving after ScaleUp(2) = %d, want %d", got, base+2)
	}
	// The grown tier serves traffic.
	if err := c.Client(1).MkdirAll("/elastic/up"); err != nil {
		t.Fatalf("cluster unusable after scale-up: %v", err)
	}
	if gone := c.ScaleDown(2); gone != 2 {
		t.Fatalf("ScaleDown(2) drained %d servers", gone)
	}
	if got := c.ServingNameNodes(); got != base {
		t.Fatalf("serving after ScaleDown(2) = %d, want %d", got, base)
	}
	if err := c.Client(1).MkdirAll("/elastic/down"); err != nil {
		t.Fatalf("cluster unusable after scale-down: %v", err)
	}
	// Bad arguments are rejected; the tier never drains to zero.
	if err := c.ScaleUp(0); err == nil {
		t.Fatal("ScaleUp(0) accepted")
	}
	if gone := c.ScaleDown(100); gone >= base {
		t.Fatalf("ScaleDown(100) removed %d of %d — tier drained too far", gone, base)
	}
	if c.ServingNameNodes() < 1 {
		t.Fatal("no serving servers left")
	}
}

func TestShardedFacade(t *testing.T) {
	c, err := New(WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fs := c.Client(1)
	// The README sharding quickstart, end to end: shard-local creates,
	// then a rename that may cross between subtrees on different shards.
	if err := fs.MkdirAll("/proj/a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/proj/a/x", 4096); err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll("/stage"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/proj/a/x", "/stage/x"); err != nil {
		t.Fatal(err)
	}
	if ok, _ := fs.Exists("/stage/x"); !ok {
		t.Fatal("renamed file missing at destination")
	}
	if ok, _ := fs.Exists("/proj/a/x"); ok {
		t.Fatal("renamed file still present at source")
	}
}

// TestFaultsAndStatsSpanEveryShard checks that zone failure, recovery,
// partition arbitration and Stats reach every NDB cluster of a sharded
// deployment, not only shard 0.
func TestFaultsAndStatsSpanEveryShard(t *testing.T) {
	c := newCluster(t, WithShards(2))
	fs := c.Client(1)
	for _, dir := range []string{"/a", "/b", "/c", "/d"} {
		if err := fs.MkdirAll(dir + "/sub"); err != nil {
			t.Fatal(err)
		}
	}
	// aliveIn counts one cluster's live datanodes in a zone.
	aliveIn := func(s, zone int) int {
		n := 0
		for _, dn := range c.d.MetaClusters()[s].DataNodes() {
			if int(dn.Node.Zone()) == zone && dn.Alive() {
				n++
			}
		}
		return n
	}

	var committed, aborted int64
	for s, cl := range c.d.MetaClusters() {
		if cl.Stats.Committed == 0 {
			t.Fatalf("shard %d committed nothing: the namespace did not spread", s)
		}
		committed += cl.Stats.Committed
		aborted += cl.Stats.Aborted
	}
	st := c.Stats()
	if st.AliveStorageNodes != 12 || st.CommittedTxns != committed || st.AbortedTxns != aborted {
		t.Fatalf("Stats = %+v, want 12 storage nodes, %d committed and %d aborted over both shards", st, committed, aborted)
	}

	c.FailZone(1)
	for s := range c.d.MetaClusters() {
		if n := aliveIn(s, 1); n != 0 {
			t.Fatalf("FailZone(1) left %d zone-1 datanodes alive on shard %d", n, s)
		}
	}
	if got := c.Stats().AliveStorageNodes; got != 8 {
		t.Fatalf("alive storage nodes = %d after FailZone(1), want 8 of 12", got)
	}
	if err := c.RecoverZone(1); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().AliveStorageNodes; got != 12 {
		t.Fatalf("alive storage nodes = %d after RecoverZone(1), want all 12", got)
	}

	// Two partitions in a row. Each must open a fresh arbitration epoch on
	// every cluster: a cluster still in the first epoch would let both sides
	// of the second partition win (each reaches the first epoch's winner) and
	// keep serving split-brained.
	c.PartitionZones(1, 2)
	c.Advance(2 * time.Second)
	c.HealZones(1, 2)
	for _, zone := range []int{1, 2} {
		if err := c.RecoverZone(zone); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Stats().AliveStorageNodes; got != 12 {
		t.Fatalf("alive storage nodes = %d after healing the first partition, want all 12", got)
	}
	c.PartitionZones(2, 3)
	c.Advance(2 * time.Second)
	for s := range c.d.MetaClusters() {
		if a, b := aliveIn(s, 2), aliveIn(s, 3); a > 0 && b > 0 {
			t.Fatalf("shard %d keeps %d datanodes in zone 2 and %d in zone 3 across the partition: no new arbitration epoch", s, a, b)
		}
	}
}
