package shard

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"hopsfscl/internal/ndb"
	"hopsfscl/internal/sim"
	"hopsfscl/internal/simnet"
	"hopsfscl/internal/trace"
)

// testRouter builds n independent NDB clusters on one simulated network
// and a router over them, mirroring how core.Build wires a sharded
// deployment.
func testRouter(t *testing.T, n int) (*sim.Env, *Router, *simnet.Node) {
	t.Helper()
	env := sim.New(7)
	t.Cleanup(env.Close)
	net := simnet.New(env, simnet.USWest1())
	zones := []simnet.ZoneID{1, 2, 3}
	clusters := make([]*ndb.Cluster, 0, n)
	for i := 0; i < n; i++ {
		cfg := ndb.DefaultConfig()
		cfg.DataNodes = 6
		cfg.Replication = 3
		cfg.PartitionsPerTable = 8
		if i > 0 {
			cfg.NamePrefix = fmt.Sprintf("s%d-", i)
		}
		data := ndb.SpreadPlacement(cfg.DataNodes, zones, 1000+100*i)
		mgmt := []ndb.Placement{
			{Zone: 1, Host: simnet.HostID(2000 + 10*i)},
			{Zone: 2, Host: simnet.HostID(2001 + 10*i)},
			{Zone: 3, Host: simnet.HostID(2002 + 10*i)},
		}
		c, err := ndb.New(env, net, cfg, data, mgmt)
		if err != nil {
			t.Fatal(err)
		}
		clusters = append(clusters, c)
	}
	r, err := NewRouter(clusters)
	if err != nil {
		t.Fatal(err)
	}
	client := net.NewNode("client", 1, 3000)
	return env, r, client
}

// inTxn runs fn in a routed transaction inside a sim process and fails the
// test on error.
func inTxn(t *testing.T, env *sim.Env, r *Router, client *simnet.Node, ts *TableSet, hint string,
	fn func(p *sim.Proc, tx ndb.Tx) error) {
	t.Helper()
	var err error
	env.Spawn("txn", func(p *sim.Proc) {
		var tx ndb.Tx
		tx, err = r.Begin(p, client, 1, ts.For(hint), hint)
		if err != nil {
			return
		}
		err = fn(p, tx)
	})
	env.RunFor(10 * time.Second)
	if err != nil {
		t.Fatalf("txn failed: %v", err)
	}
}

// keysOnShard returns a partition key the router maps to the wanted shard.
func keyOnShard(t *testing.T, r *Router, want int) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		pk := fmt.Sprintf("pk%d", i)
		if r.ShardOfKey(pk) == want {
			return pk
		}
	}
	t.Fatalf("no probe key mapped to shard %d", want)
	return ""
}

// TestShardOfKeyDeterministicAndSpread checks the routing function: pure,
// stable, in bounds, and actually spreading keys over all shards.
func TestShardOfKeyDeterministicAndSpread(t *testing.T) {
	_, r, _ := testRouter(t, 4)
	hits := make([]int, 4)
	for i := 0; i < 4096; i++ {
		pk := fmt.Sprintf("dir-%d", i)
		s := r.ShardOfKey(pk)
		if s < 0 || s >= 4 {
			t.Fatalf("ShardOfKey(%q) = %d, out of range", pk, s)
		}
		if again := r.ShardOfKey(pk); again != s {
			t.Fatalf("ShardOfKey(%q) unstable: %d then %d", pk, s, again)
		}
		hits[s]++
	}
	for s, n := range hits {
		if n == 0 {
			t.Fatalf("shard %d received no keys out of 4096: %v", s, hits)
		}
	}
}

// TestSingleShardIdentity checks the n=1 fast path every unsharded golden
// depends on: all keys route to shard 0 and no intent machinery exists.
func TestSingleShardIdentity(t *testing.T) {
	_, r, _ := testRouter(t, 1)
	for i := 0; i < 64; i++ {
		for _, pk := range []string{fmt.Sprintf("k%d", i), fmt.Sprint(i)} {
			if s := r.ShardOfKey(pk); s != 0 {
				t.Fatalf("single-shard router sent key %q to shard %d", pk, s)
			}
		}
	}
	if got := r.PendingIntentCount(); got != 0 {
		t.Fatalf("single-shard router reports %d pending intents", got)
	}
	if r.Cluster(0).Table(intentTableName) != nil {
		t.Fatalf("single-shard router created an intent table")
	}
}

// TestShardOfKeyRoutesIDsByModulo checks the two routing rules: a decimal
// key — an inode id — routes to the id modulo N, any other key by its FNV
// hash.
func TestShardOfKeyRoutesIDsByModulo(t *testing.T) {
	for _, n := range []int{2, 3, 4} {
		_, r, _ := testRouter(t, n)
		for _, id := range []uint64{0, 1, 2, 3, 7, 10, 12345, 1<<63 + 5} {
			pk := fmt.Sprint(id)
			if got, want := r.ShardOfKey(pk), int(id%uint64(n)); got != want {
				t.Errorf("n=%d: ShardOfKey(%q) = %d, want id mod n = %d", n, pk, got, want)
			}
		}
		for _, pk := range []string{"c:x", "c:17", "i", "e", "7a", "-7", ""} {
			if got, want := r.ShardOfKey(pk), int(fnv64(pk)%uint64(n)); got != want {
				t.Errorf("n=%d: ShardOfKey(%q) = %d, want FNV rule %d", n, pk, got, want)
			}
		}
	}
}

// TestPins checks subtree pinning: overrides beat both routing rules and
// out-of-range pins are rejected.
func TestPins(t *testing.T) {
	_, r, _ := testRouter(t, 3)
	for _, pk := range []string{keyOnShard(t, r, 2), "8"} {
		if err := r.Pin(pk, 1); err != nil {
			t.Fatalf("pin: %v", err)
		}
		if s := r.ShardOfKey(pk); s != 1 {
			t.Fatalf("pinned key %q routed to shard %d, want 1", pk, s)
		}
	}
	if err := r.Pin("x", 3); err == nil {
		t.Fatalf("out-of-range pin accepted")
	}
	if err := r.Pin("x", -1); err == nil {
		t.Fatalf("negative pin accepted")
	}
}

// ident is a table value carrying an identity, like namenode.Inode does.
type ident uint64

func (v ident) IdentityID() uint64 { return uint64(v) }

// TestCrossShardCommit drives a transaction writing on two shards through
// the intent protocol and checks both rows land and no intent survives.
func TestCrossShardCommit(t *testing.T) {
	env, r, client := testRouter(t, 2)
	ts := r.NewTableSet("t", 256, ndb.TableOptions{ReadBackup: true})
	pk0, pk1 := keyOnShard(t, r, 0), keyOnShard(t, r, 1)

	inTxn(t, env, r, client, ts, pk0, func(p *sim.Proc, tx ndb.Tx) error {
		if err := put(tx, ts.For(pk0), pk0, "a", ident(1)); err != nil {
			return err
		}
		if err := put(tx, ts.For(pk1), pk1, "b", ident(2)); err != nil {
			return err
		}
		return tx.Commit()
	})
	inTxn(t, env, r, client, ts, pk0, func(p *sim.Proc, tx ndb.Tx) error {
		for _, probe := range []struct {
			pk, key string
			want    ident
		}{{pk0, "a", 1}, {pk1, "b", 2}} {
			v, ok, err := readCommitted(tx, ts.For(probe.pk), probe.pk, probe.key)
			if err != nil {
				return err
			}
			if !ok || v.(ident) != probe.want {
				return fmt.Errorf("row %s/%s = %v (ok=%v), want %d", probe.pk, probe.key, v, ok, probe.want)
			}
		}
		return tx.Commit()
	})
	if n := r.PendingIntentCount(); n != 0 {
		t.Fatalf("%d intents survived a successful cross-shard commit", n)
	}
}

// plantIntent writes an intent record directly into a shard's intent
// table, simulating a coordinator that died right after its first (intent-
// carrying) commit leg.
func plantIntent(t *testing.T, env *sim.Env, r *Router, client *simnet.Node, shard int, it *Intent) {
	t.Helper()
	plant(t, env, r, client, shard, ndb.BatchWrite{Table: r.intents[shard], PartKey: intentPartKey, Key: intentKey(it.ID), Val: it})
}

// plant commits one row into shard's cluster in its own transaction.
func plant(t *testing.T, env *sim.Env, r *Router, client *simnet.Node, shard int, w ndb.BatchWrite) {
	t.Helper()
	c := r.Cluster(shard)
	var err error
	env.Spawn("plant", func(p *sim.Proc) {
		tx, beginErr := c.Begin(p, client, 1, w.Table, w.PartKey)
		err = ndb.InTx(tx, beginErr, func(tx *ndb.Txn) error { return tx.WriteBatch([]ndb.BatchWrite{w}) })
	})
	env.RunFor(5 * time.Second)
	if err != nil {
		t.Fatalf("planting %s: %v", w.Key, err)
	}
}

func resolveAll(t *testing.T, env *sim.Env, r *Router, client *simnet.Node) int {
	t.Helper()
	var resolved int
	var err error
	env.Spawn("resolve", func(p *sim.Proc) {
		resolved, err = r.ResolvePendingIntents(p, client, 1)
	})
	env.RunFor(5 * time.Second)
	if err != nil {
		t.Fatalf("resolving intents: %v", err)
	}
	return resolved
}

func readRow(t *testing.T, env *sim.Env, r *Router, client *simnet.Node, ts *TableSet, pk, key string) (ndb.Value, bool) {
	t.Helper()
	var val ndb.Value
	var ok bool
	var err error
	env.Spawn("read", func(p *sim.Proc) {
		var tx ndb.Tx
		tx, err = r.Begin(p, client, 1, ts.For(pk), pk)
		if err != nil {
			return
		}
		val, ok, err = readCommitted(tx, ts.For(pk), pk, key)
		if err != nil {
			tx.Abort()
			return
		}
		err = tx.Commit()
	})
	env.RunFor(5 * time.Second)
	if err != nil {
		t.Fatalf("reading %s/%s: %v", pk, key, err)
	}
	return val, ok
}

// TestIntentReplayIdempotent checks the resolution paths of a stranded
// intent: roll-forward applies the missing leg, a second replay of the
// same intent is a guarded no-op, and a foreign occupant at the
// destination re-homes the moved value instead of overwriting it.
func TestIntentReplayIdempotent(t *testing.T) {
	env, r, client := testRouter(t, 2)
	ts := r.NewTableSet("t", 256, ndb.TableOptions{ReadBackup: true})
	pk0, pk1 := keyOnShard(t, r, 0), keyOnShard(t, r, 1)

	// Roll-forward: the intent's leg inserts a row shard 1 never applied.
	it := &Intent{ID: 1, Op: "rename", Legs: []IntentLeg{{
		Shard: 1,
		Rows:  []IntentRow{{Table: "t", PartKey: pk1, Key: "moved", Val: ident(7), Guard: 7}},
	}}}
	plantIntent(t, env, r, client, 0, it)
	if got := r.PendingIntentCount(); got != 1 {
		t.Fatalf("pending intents = %d, want 1", got)
	}
	if got := resolveAll(t, env, r, client); got != 1 {
		t.Fatalf("resolved %d intents, want 1", got)
	}
	if v, ok := readRow(t, env, r, client, ts, pk1, "moved"); !ok || v.(ident) != 7 {
		t.Fatalf("roll-forward did not apply the leg: val=%v ok=%v", v, ok)
	}
	if got := r.PendingIntentCount(); got != 0 {
		t.Fatalf("intent record survived resolution")
	}

	// Idempotence: replaying the same intent (the leg already applied)
	// converges without touching the row.
	plantIntent(t, env, r, client, 0, it)
	if got := resolveAll(t, env, r, client); got != 1 {
		t.Fatalf("second replay resolved %d intents, want 1", got)
	}
	if v, ok := readRow(t, env, r, client, ts, pk1, "moved"); !ok || v.(ident) != 7 {
		t.Fatalf("idempotent replay disturbed the row: val=%v ok=%v", v, ok)
	}

	// Foreign occupant: the destination was legitimately reused by another
	// inode after the crash. The replay must not overwrite it; the moved
	// value re-homes at the move's source slot.
	inTxn(t, env, r, client, ts, pk1, func(p *sim.Proc, tx ndb.Tx) error {
		if err := put(tx, ts.For(pk1), pk1, "taken", ident(99)); err != nil {
			return err
		}
		return tx.Commit()
	})
	it2 := &Intent{ID: 2, Op: "rename", Legs: []IntentLeg{{
		Shard: 1,
		Rows: []IntentRow{{
			Table: "t", PartKey: pk1, Key: "taken", Val: ident(8), Guard: 8,
			FallbackShard: 0, FallbackTable: "t", FallbackPartKey: pk0, FallbackKey: "origin",
		}},
	}}}
	plantIntent(t, env, r, client, 0, it2)
	if got := resolveAll(t, env, r, client); got != 1 {
		t.Fatalf("occupied replay resolved %d intents, want 1", got)
	}
	if v, ok := readRow(t, env, r, client, ts, pk1, "taken"); !ok || v.(ident) != 99 {
		t.Fatalf("replay overwrote a foreign occupant: val=%v ok=%v", v, ok)
	}
	if v, ok := readRow(t, env, r, client, ts, pk0, "origin"); !ok || v.(ident) != 8 {
		t.Fatalf("moved value was not re-homed at the source: val=%v ok=%v", v, ok)
	}

	// Last resort: the destination and the move's source are both taken
	// now. The moved value parks beside the destination under its "~dup"
	// key — exactly once, with both occupants untouched.
	it3 := &Intent{ID: 3, Op: "rename", Legs: []IntentLeg{{
		Shard: 1,
		Rows: []IntentRow{{
			Table: "t", PartKey: pk1, Key: "taken", Val: ident(9), Guard: 9,
			FallbackShard: 0, FallbackTable: "t", FallbackPartKey: pk0, FallbackKey: "origin",
		}},
	}}}
	plantIntent(t, env, r, client, 0, it3)
	if got := resolveAll(t, env, r, client); got != 1 {
		t.Fatalf("doubly occupied replay resolved %d intents, want 1", got)
	}
	if v, ok := readRow(t, env, r, client, ts, pk1, "taken"); !ok || v.(ident) != 99 {
		t.Fatalf("replay overwrote the destination's occupant: val=%v ok=%v", v, ok)
	}
	if v, ok := readRow(t, env, r, client, ts, pk0, "origin"); !ok || v.(ident) != 8 {
		t.Fatalf("replay overwrote the source's occupant: val=%v ok=%v", v, ok)
	}
	var copies []string
	for s := 0; s < 2; s++ {
		ts.At(s).ForEachCommitted(func(pk, key string, val ndb.Value) {
			if val == ident(9) {
				copies = append(copies, pk+"/"+key)
			}
		})
	}
	if want := pk1 + "/taken~dup9"; len(copies) != 1 || copies[0] != want {
		t.Fatalf("moved value stored at %v, want exactly [%s]", copies, want)
	}
}

// TestOneClusterBeginIsTheClusterTxn pins the pass-through: a one-cluster
// router hands out the cluster's own transaction, not a wrapper around it.
func TestOneClusterBeginIsTheClusterTxn(t *testing.T) {
	env, r, client := testRouter(t, 1)
	ts := r.NewTableSet("t", 256, ndb.TableOptions{ReadBackup: true})
	if ts.For("any") != ts.At(0) {
		t.Fatalf("one-cluster table set resolved a key away from its only table")
	}
	inTxn(t, env, r, client, ts, "k", func(p *sim.Proc, tx ndb.Tx) error {
		if _, ok := tx.(*ndb.Txn); !ok {
			return fmt.Errorf("one-cluster Begin returned %T, want *ndb.Txn", tx)
		}
		return tx.Commit()
	})
	env2, r2, client2 := testRouter(t, 2)
	ts2 := r2.NewTableSet("t", 256, ndb.TableOptions{ReadBackup: true})
	inTxn(t, env2, r2, client2, ts2, "k", func(p *sim.Proc, tx ndb.Tx) error {
		if _, ok := tx.(*Txn); !ok {
			return fmt.Errorf("two-cluster Begin returned %T, want *shard.Txn", tx)
		}
		return tx.Commit()
	})
}

// TestForeignTablePanics pins the dispatch lookup: a table of a cluster the
// router does not own must not be quietly served by shard 0.
func TestForeignTablePanics(t *testing.T) {
	_, r, _ := testRouter(t, 2)
	_, other, _ := testRouter(t, 1)
	foreign := other.NewTableSet("elsewhere", 64, ndb.TableOptions{}).At(0)
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, `"elsewhere"`) {
			t.Fatalf("foreign table: recovered %q, want a panic naming the table", msg)
		}
	}()
	s := r.ShardOfTable(foreign)
	t.Fatalf("foreign table dispatched to shard %d", s)
}

// TestSplitBatchShardFailure is the regression test for the scatter-before-
// error panic: when one shard's share of a batch that spans shards fails
// after its sub-transaction is open, the batch must return that error —
// for the read and for the scan form.
func TestSplitBatchShardFailure(t *testing.T) {
	for _, form := range []string{"ReadBatch", "ScanBatch"} {
		t.Run(form, func(t *testing.T) {
			env, r, client := testRouter(t, 2)
			ts := r.NewTableSet("t", 256, ndb.TableOptions{ReadBackup: true})
			pk0, pk1 := keyOnShard(t, r, 0), keyOnShard(t, r, 1)
			var batchErr error
			inTxn(t, env, r, client, ts, pk0, func(p *sim.Proc, tx ndb.Tx) error {
				// Open the shard-1 sub-transaction, then take shard 1 down.
				if _, _, err := readCommitted(tx, ts.For(pk1), pk1, "x"); err != nil {
					return err
				}
				for _, dn := range r.Cluster(1).DataNodes() {
					dn.Node.Fail()
				}
				if form == "ReadBatch" {
					_, batchErr = tx.ReadBatch([]ndb.BatchGet{
						{Table: ts.For(pk0), PartKey: pk0, Key: "a"},
						{Table: ts.For(pk1), PartKey: pk1, Key: "b"},
					})
				} else {
					_, batchErr = tx.ScanBatch([]ndb.BatchScan{
						{Table: ts.For(pk0), PartKey: pk0, Prefix: "a"},
						{Table: ts.For(pk1), PartKey: pk1, Prefix: "b"},
					})
				}
				tx.Abort()
				return nil
			})
			if !errors.Is(batchErr, ndb.ErrNodeUnavailable) {
				t.Fatalf("%s across a failed shard returned %v, want ErrNodeUnavailable", form, batchErr)
			}
		})
	}
}

// TestSplitBatchScatter checks the split helper's bookkeeping on a healthy
// router: results of a batch that interleaves two shards come back at their
// request positions, and a write batch lands every row on its own shard.
func TestSplitBatchScatter(t *testing.T) {
	env, r, client := testRouter(t, 2)
	ts := r.NewTableSet("t", 256, ndb.TableOptions{ReadBackup: true})
	on0, on1 := keyOnShard(t, r, 0), keyOnShard(t, r, 1)
	pks := []string{on1, on0, on1, on0}
	inTxn(t, env, r, client, ts, pks[0], func(p *sim.Proc, tx ndb.Tx) error {
		items := make([]ndb.BatchWrite, len(pks))
		for i, pk := range pks {
			items[i] = ndb.BatchWrite{Table: ts.For(pk), PartKey: pk, Key: fmt.Sprintf("k%d", i), Val: ident(i + 1)}
		}
		if err := tx.WriteBatch(items); err != nil {
			return err
		}
		return tx.Commit()
	})
	inTxn(t, env, r, client, ts, pks[0], func(p *sim.Proc, tx ndb.Tx) error {
		gets := make([]ndb.BatchGet, len(pks))
		scans := make([]ndb.BatchScan, len(pks))
		for i, pk := range pks {
			gets[i] = ndb.BatchGet{Table: ts.For(pk), PartKey: pk, Key: fmt.Sprintf("k%d", i)}
			scans[i] = ndb.BatchScan{Table: ts.For(pk), PartKey: pk, Prefix: fmt.Sprintf("k%d", i)}
		}
		vals, err := tx.ReadBatch(gets)
		if err != nil {
			return err
		}
		sets, err := tx.ScanBatch(scans)
		if err != nil {
			return err
		}
		for i := range pks {
			if !vals[i].OK || vals[i].Val.(ident) != ident(i+1) {
				return fmt.Errorf("ReadBatch[%d] = %+v, want %d", i, vals[i], i+1)
			}
			if len(sets[i]) != 1 || sets[i][0].Val.(ident) != ident(i+1) {
				return fmt.Errorf("ScanBatch[%d] = %+v, want the one row %d", i, sets[i], i+1)
			}
		}
		return tx.Commit()
	})
}

// TestCommitCountersPartitionTransactions checks that the router's commit
// counters partition the routed transactions of a healthy run: every
// committed transaction is local, cross, a cross abort or indeterminate —
// in particular the read-only transaction that straddled shards, which is
// most of a Spotify mix, is local.
func TestCommitCountersPartitionTransactions(t *testing.T) {
	env, r, client := testRouter(t, 2)
	reg := trace.NewRegistry()
	r.SetTracer(trace.NewTracer(reg))
	ts := r.NewTableSet("t", 256, ndb.TableOptions{ReadBackup: true})
	pk0, pk1 := keyOnShard(t, r, 0), keyOnShard(t, r, 1)
	read := func(tx ndb.Tx, pk string) error {
		_, _, err := readCommitted(tx, ts.For(pk), pk, "x")
		return err
	}
	put := func(tx ndb.Tx, pk, key string) error {
		return put(tx, ts.For(pk), pk, key, ident(1))
	}
	begun := 0
	for _, body := range []func(tx ndb.Tx) error{
		func(tx ndb.Tx) error { return read(tx, pk0) },                             // one shard, read-only
		func(tx ndb.Tx) error { return put(tx, pk1, "a") },                         // one shard, writing
		func(tx ndb.Tx) error { return errors.Join(read(tx, pk0), read(tx, pk1)) }, // two shards, read-only
		func(tx ndb.Tx) error { return errors.Join(read(tx, pk0), put(tx, pk1, "b")) },
		func(tx ndb.Tx) error { return errors.Join(put(tx, pk0, "c"), put(tx, pk1, "c")) }, // cross-shard write
	} {
		begun++
		inTxn(t, env, r, client, ts, pk0, func(p *sim.Proc, tx ndb.Tx) error {
			if err := body(tx); err != nil {
				return err
			}
			return tx.Commit()
		})
	}
	count := func(name string) int { return int(reg.Counter(name).Value()) }
	local, cross := count("shard.txn.local"), count("shard.txn.cross")
	sum := local + cross + count("shard.txn.cross_aborts") + count("shard.txn.cross_indeterminate")
	if sum != begun {
		t.Fatalf("local %d + cross %d + aborts + indeterminate = %d, want the %d transactions begun", local, cross, sum, begun)
	}
	if local != 4 || cross != 1 {
		t.Fatalf("local = %d, cross = %d, want 4 and 1", local, cross)
	}
}

// TestRoutedInsertRefusal: IfAbsent travels through the routed WriteBatch
// untouched. A batch spanning both shards whose insert is refused on the later
// shard returns ndb.ErrRowExists with the earlier shard's rows already
// prepared; the routed Abort releases them, so neither cluster keeps a lock
// or an open transaction. An insert that is granted commits through the
// intent protocol like any write — the intent's legs carry no condition, so
// replay stays idempotent — and leaves no intent behind.
func TestRoutedInsertRefusal(t *testing.T) {
	env, r, client := testRouter(t, 2)
	ts := r.NewTableSet("t", 256, ndb.TableOptions{ReadBackup: true})
	pk0, pk1 := keyOnShard(t, r, 0), keyOnShard(t, r, 1)
	batch := func(key string) []ndb.BatchWrite {
		return []ndb.BatchWrite{
			{Table: ts.For(pk0), PartKey: pk0, Key: key + "-companion", Val: ident(1)},
			{Table: ts.For(pk1), PartKey: pk1, Key: key, Val: ident(2), IfAbsent: true},
		}
	}
	for attempt, want := range []error{nil, ndb.ErrRowExists} {
		inTxn(t, env, r, client, ts, pk0, func(p *sim.Proc, tx ndb.Tx) error {
			err := tx.WriteBatch(batch("name"))
			if !errors.Is(err, want) {
				return fmt.Errorf("attempt %d: WriteBatch: %v, want %v", attempt, err, want)
			}
			if err != nil {
				tx.Abort()
				return nil
			}
			return tx.Commit()
		})
		for s, c := range r.Clusters() {
			if held, open := c.HeldLocks(), c.InFlightTxns(); len(held) != 0 || open != 0 {
				t.Errorf("attempt %d, shard %d: locks %v, %d transactions in flight", attempt, s, held, open)
			}
		}
	}
	if n := r.PendingIntentCount(); n != 0 {
		t.Errorf("%d intents pending", n)
	}
	if v, ok := readRow(t, env, r, client, ts, pk1, "name"); !ok || v.(ident) != 2 {
		t.Errorf("the inserted row reads %v, %v", v, ok)
	}
}

// TestRoutedTableScan: a root listing — ScanTablePrefix over every partition
// of every shard — of a namespace seeded identically at Shards 1, 2 and 4
// returns the same rows at each: key-sorted, no duplicates, no row of another
// prefix. It reads every shard, and like any read-only transaction it commits
// without the intent protocol.
func TestRoutedTableScan(t *testing.T) {
	list := func(n int) []ndb.KV {
		env, r, client := testRouter(t, n)
		reg := trace.NewRegistry()
		r.SetTracer(trace.NewTracer(reg))
		ts := r.NewTableSet("inodes", 256, ndb.TableOptions{ReadBackup: true})
		// The root's children are keyed "1/<name>" and partitioned by name, so
		// they scatter over partitions and shards; "2/<name>" rows belong to
		// another directory.
		for i := 0; i < 24; i++ {
			for _, dir := range []string{"1", "2"} {
				pk := fmt.Sprintf("c%02d", i)
				inTxn(t, env, r, client, ts, pk, func(p *sim.Proc, tx ndb.Tx) error {
					if err := put(tx, ts.For(pk), pk, dir+"/"+pk, ident(i)); err != nil {
						return err
					}
					return tx.Commit()
				})
			}
		}
		cross := reg.Counter("shard.txn.cross").Value()
		var kvs []ndb.KV
		inTxn(t, env, r, client, ts, "c00", func(p *sim.Proc, tx ndb.Tx) (err error) {
			if kvs, err = tx.ScanTablePrefix(ts.At(0), "1/"); err != nil {
				return err
			}
			return tx.Commit()
		})
		if got := reg.Counter("shard.txn.cross").Value(); got != cross {
			t.Errorf("Shards=%d: the listing ran the intent protocol (shard.txn.cross %d -> %d)", n, cross, got)
		}
		return kvs
	}
	want := list(1)
	if len(want) != 24 {
		t.Fatalf("unsharded listing has %d rows, want 24", len(want))
	}
	for _, n := range []int{2, 4} {
		got := list(n)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("Shards=%d listing:\n got  %v\n want %v", n, got, want)
		}
		for i := 1; i < len(got); i++ {
			if got[i-1].Key >= got[i].Key {
				t.Errorf("Shards=%d: rows %d and %d out of order or duplicated: %q, %q", n, i-1, i, got[i-1].Key, got[i].Key)
			}
		}
	}
}

// TestRoutedReadWriteBatch: a mixed batch whose rows all live on one shard is
// that shard's one mixed round; one that spans shards — by its write or by
// its gets — runs as its reads and then its writes, the reads' round on each
// shard they read and then a round on the written shard. Either way a
// refused write returns the gets' values with its error.
func TestRoutedReadWriteBatch(t *testing.T) {
	env, r, client := testRouter(t, 2)
	ts := r.NewTableSet("t", 256, ndb.TableOptions{ReadBackup: true})
	pk0, pk1 := keyOnShard(t, r, 0), keyOnShard(t, r, 1)
	inTxn(t, env, r, client, ts, pk0, func(p *sim.Proc, tx ndb.Tx) error {
		if err := tx.WriteBatch([]ndb.BatchWrite{{Table: ts.For(pk0), PartKey: pk0, Key: "parent", Val: ident(1)}}); err != nil {
			return err
		}
		return tx.Commit()
	})
	get := ndb.BatchGet{Table: ts.For(pk0), PartKey: pk0, Key: "parent", Lock: ndb.LockShared}
	// The row the "two shards" case inserts on shard 1.
	child1 := ndb.BatchGet{Table: ts.For(pk1), PartKey: pk1, Key: "child-" + pk1}
	rounds := func() (n [2]int64) {
		for s, c := range r.Clusters() {
			n[s] = c.Stats.Rounds
		}
		return n
	}
	for _, tc := range []struct {
		name  string
		gets  []ndb.BatchGet
		vals  []ndb.Value
		pk    string
		taken bool
		want  [2]int64
	}{
		{"one shard", []ndb.BatchGet{get}, []ndb.Value{ident(1)}, pk0, false, [2]int64{1, 0}},
		{"one shard, taken", []ndb.BatchGet{get}, []ndb.Value{ident(1)}, pk0, true, [2]int64{1, 0}},
		{"two shards", []ndb.BatchGet{get}, []ndb.Value{ident(1)}, pk1, false, [2]int64{1, 1}},
		{"two shards, taken", []ndb.BatchGet{get}, []ndb.Value{ident(1)}, pk1, true, [2]int64{1, 1}},
		{"gets on two shards, taken", []ndb.BatchGet{get, child1}, []ndb.Value{ident(1), ident(2)}, pk1, true, [2]int64{1, 2}},
	} {
		key := "child-" + tc.pk
		before := rounds()
		inTxn(t, env, r, client, ts, pk0, func(p *sim.Proc, tx ndb.Tx) error {
			vals, err := tx.ReadWriteBatch(tc.gets, []ndb.BatchWrite{{Table: ts.For(tc.pk), PartKey: tc.pk, Key: key, Val: ident(2), IfAbsent: true}})
			if len(vals) != len(tc.vals) {
				return fmt.Errorf("%s: values %v, want %v", tc.name, vals, tc.vals)
			}
			for i, v := range vals {
				if v.Val != tc.vals[i] {
					return fmt.Errorf("%s: values %v, want %v", tc.name, vals, tc.vals)
				}
			}
			if tc.taken {
				if !errors.Is(err, ndb.ErrRowExists) {
					return fmt.Errorf("%s: %v, want ErrRowExists", tc.name, err)
				}
				tx.Abort()
				return nil
			}
			if err != nil {
				return fmt.Errorf("%s: %v", tc.name, err)
			}
			return tx.Commit()
		})
		after := rounds()
		if got := [2]int64{after[0] - before[0], after[1] - before[1]}; got != tc.want {
			t.Errorf("%s: rounds per shard %v, want %v", tc.name, got, tc.want)
		}
		for s, c := range r.Clusters() {
			if held, open := c.HeldLocks(), c.InFlightTxns(); len(held) != 0 || open != 0 {
				t.Errorf("%s, shard %d: locks %v, %d transactions in flight", tc.name, s, held, open)
			}
		}
	}
}
