package shard

import (
	"errors"
	"fmt"
	"slices"
	"strconv"

	"hopsfscl/internal/ndb"
	"hopsfscl/internal/sim"
	"hopsfscl/internal/simnet"
)

// Cross-shard commit: an ordered two-cluster protocol with a durable
// intent record, under strict two-phase locking.
//
// A transaction that staged writes on two shards cannot commit atomically
// — the clusters share nothing. The router instead commits them in shard
// order, with the plan for every later shard persisted *inside the first
// commit*, and no shard releases a lock before the last one has committed:
//
//  1. Each writer's deleted rows are read once, in one batch per writer.
//     Their pre-images give the Intent row — the staged rows of every
//     writer after the first, plus per-row identity guards — which is
//     staged into the first writer. Each later writer stages a marker row
//     into its own shard's intent table, under the partition key of its
//     first row, so the marker rides that row's commit train.
//  2. The first writer commits its rows and the intent atomically, holding
//     its locks (ndb.Txn.CommitHolding). If this commit fails, no shard has
//     applied anything and no intent exists: a clean abort, and every side
//     releases what it held.
//  3. The remaining writers commit in shard order, holding their locks, each
//     with its marker: a leg applied iff its marker exists. From the instant
//     step 2 committed, the operation is decided: if a later commit fails (a
//     shard crashed mid-commit), the durable intent is enough to finish the
//     job, so the caller gets an indeterminate error — never a false
//     "failed" for an operation that will complete.
//  4. Every writer releases its locks, then each read-only side releases
//     its own and acks. A transaction with one writer follows the same
//     order, with no intent.
//  5. The committing process deletes the record, then the markers, in one
//     small transaction per shard. If that fails the rows stay for the
//     sweeper, and the operation, decided and applied, still succeeds.
//
// Resolution (ResolvePendingIntents) decides from the rows alone, never
// from a process's memory. It replays only the legs of a surviving record
// that have no marker — a marked leg applied, and its client may have moved
// on since, so a replay could roll a since-deleted destination forward
// again — writing the marker in the replay transaction. It then deletes the
// record and its markers, and any marker whose record is gone. Replay runs
// with exclusive locks and identity guards, so it is idempotent and safe
// against the window between failure and sweep: a delete leg only removes
// the row if it still holds the expected inode, and a put leg that finds a
// foreign occupant re-homes the moved inode at the move's source (or, as a
// last resort, under a "~dup" key) instead of overwriting or dropping it.
// The history checker sees: acked cross-shard renames never lose the inode,
// and no schedule of crashes leaves it absent from both names or present
// under both.

// Identified lets the resolver compare a stored row value against the
// inode an intent was written about without importing the namenode's
// types; namenode.Inode implements it.
type Identified interface {
	IdentityID() uint64
}

func identityOf(v ndb.Value) (uint64, bool) {
	if id, ok := v.(Identified); ok {
		return id.IdentityID(), true
	}
	return 0, false
}

// IntentRow is one replayable row mutation of an intent leg.
type IntentRow struct {
	Table   string
	PartKey string
	Key     string
	Val     ndb.Value // nil for deletes
	Del     bool
	// Guard is the identity the replay checks: for deletes, the
	// pre-image's inode id (never delete a row that was since recreated
	// with a different inode); for puts, Val's own id (detect
	// already-applied). Zero means unguarded (rows without identity:
	// small-file data, quota updates — all keyed uniquely).
	Guard uint64
	// Fallback* name the move's source slot for guarded puts: when the
	// destination is occupied by a foreign inode at replay time, the
	// moved inode is re-homed there instead of being dropped or doubling
	// the destination.
	FallbackShard   int
	FallbackTable   string
	FallbackPartKey string
	FallbackKey     string
}

// IntentLeg is the replay plan for one shard of a cross-shard commit.
type IntentLeg struct {
	Shard int
	Rows  []IntentRow
}

// Intent is the durable record of a decided cross-shard commit: committed
// atomically with the first writer's rows, while each later writer commits
// a marker beside its own. The committing process deletes the record and
// the markers once every leg has committed; the sweeper replays the legs
// without a marker if it never does.
type Intent struct {
	ID   uint64
	Op   string
	Legs []IntentLeg
}

const (
	intentTableName = "shard_intents"
	intentPartKey   = "i"
)

func intentKey(id uint64) string {
	return fmt.Sprintf("i/%016x", id)
}

// markerKey is the row key of the markers of intent id, whose record lives
// on shard s. A marker is the row that says a leg applied: the leg commits
// it atomically with its rows, into its own shard's intent table, under the
// partition key of its first row. A partition's index, node group and
// primary do not depend on the table, so the marker joins that row's commit
// train.
func markerKey(s int, id uint64) string {
	return fmt.Sprintf("m/%d/%016x", s, id)
}

// markerWrite is the write of leg's marker for intent id, whose record
// lives on shard s. Its value is its own partition key, which a table scan
// does not return.
func (r *Router) markerWrite(s int, id uint64, leg IntentLeg) ndb.BatchWrite {
	pk := leg.Rows[0].PartKey
	return ndb.BatchWrite{Table: r.intents[leg.Shard], PartKey: pk, Key: markerKey(s, id), Val: pk}
}

// ErrIndeterminate reports a cross-shard commit whose intent is durable
// but whose later legs did not all acknowledge: the operation will
// complete (the sweeper replays the intent), the caller just cannot know
// yet. It wraps ndb.ErrIndeterminate, so a caller tests for that one error
// whether one shard or several committed.
var ErrIndeterminate = fmt.Errorf("shard: cross-shard commit indeterminate, durable intent pending: %w", ndb.ErrIndeterminate)

// commitCross commits a transaction that opened sub-transactions on several
// shards: a plain commit when at most one of them has anything to write —
// the usual case, a path resolution that straddled shards — and the intent
// protocol otherwise. Either way no sub-transaction releases a lock before
// every writer has committed.
func (t *Txn) commitCross() error {
	r := t.r
	start := t.p.Now()
	// fail ends a commit that has applied nothing anywhere: whatever is
	// still open aborts, and the abort is counted and annotated.
	fail := func(stage string, err error) error {
		t.abortSubs()
		r.obs.crossAborts.Add(1)
		t.Annotate("shard.cross", stage)
		return err
	}
	nWriters := 0
	var writer *ndb.Txn
	for _, sub := range t.subs {
		if sub != nil && sub.HasWrites() {
			nWriters++
			writer = sub
		}
	}
	switch nWriters {
	case 0:
		// Reads spanned shards and nothing was written: each side only
		// releases its locks and acks, in shard order. Local, like case 1.
		for _, sub := range t.subs {
			if sub != nil {
				if err := sub.Commit(); err != nil {
					return fail("abort-read", err)
				}
			}
		}
		r.obs.local.Add(1)
		return nil
	case 1:
		// One writing shard: single-cluster atomicity suffices even though
		// reads spanned shards, and the read sides keep their locks until it
		// has committed.
		r.obs.local.Add(1)
		if err := writer.CommitHolding(); err != nil {
			t.abortSubs()
			return err
		}
		t.release()
		return nil
	}
	writers := make([]*ndb.Txn, 0, nWriters)
	writerShards := make([]int, 0, nWriters)
	for s, sub := range t.subs {
		if sub != nil && sub.HasWrites() {
			writers = append(writers, sub)
			writerShards = append(writerShards, s)
		}
	}
	// Step 1: the intent, staged into the first writer, and each later
	// writer's marker, staged into its own.
	intentShard := writerShards[0]
	it, err := t.buildIntent(writers, writerShards)
	if err == nil {
		err = writers[0].WriteBatch([]ndb.BatchWrite{{Table: r.intents[intentShard], PartKey: intentPartKey, Key: intentKey(it.ID), Val: it}})
	}
	for i, w := range writers[1:] {
		if err == nil {
			err = w.WriteBatch([]ndb.BatchWrite{r.markerWrite(intentShard, it.ID, it.Legs[i])})
		}
	}
	if err != nil {
		return fail("abort-build", err)
	}

	// Step 2: rows of the first shard plus the intent, atomically.
	if err := writers[0].CommitHolding(); err != nil {
		return fail("abort-first-leg", err)
	}

	// Step 3: the decision is durable; commit the remaining legs in shard
	// order. Step 4: only then does any side release a lock.
	var legErr error
	for _, w := range writers[1:] {
		if err := w.CommitHolding(); err != nil && legErr == nil {
			legErr = err
		}
	}
	t.release()
	if legErr == nil {
		// Step 5: the record and the markers go; what a failure leaves, the
		// sweeper deletes.
		_ = r.clearIntent(t.p, t.origin, t.domain, intentShard, it)
		r.obs.cross.Add(1)
		r.obs.crossTime.Observe(t.p.Now() - start)
		t.Annotate("shard.cross", strconv.Itoa(len(writers)))
		return nil
	}
	// A later leg failed after the intent became durable. Try to finish
	// inline; if the shard is really down, hand the intent to the sweeper
	// and report indeterminate.
	if _, err := r.resolveIntent(t.p, t.origin, t.domain, intentShard, it); err == nil {
		r.obs.cross.Add(1)
		r.obs.crossTime.Observe(t.p.Now() - start)
		t.Annotate("shard.cross", "resolved-inline")
		return nil
	}
	r.obs.crossIndet.Add(1)
	t.Annotate("shard.cross", "indeterminate")
	return ErrIndeterminate
}

// release ends a routed transaction whose writers have all committed
// holding their locks — or failed, which released theirs: the writers
// release at once, then each read-only side releases its locks and acks.
// The operation is decided by then, so a read side whose ack is lost
// changes nothing; its locks are gone either way.
func (t *Txn) release() {
	for _, sub := range t.subs {
		if sub != nil && sub.HasWrites() {
			sub.Release()
		}
	}
	for _, sub := range t.subs {
		if sub != nil && !sub.HasWrites() {
			_ = sub.Commit()
		}
	}
}

// buildIntent builds the replay plan for every writer after the first. Each
// writer's deleted rows are read once, in one batch: a pre-image's identity
// guards the delete — replay never removes a row since recreated with
// another inode — and names the move's source, the fallback slot of the put
// of the same inode on another leg.
func (t *Txn) buildIntent(writers []*ndb.Txn, writerShards []int) (*Intent, error) {
	type slot struct {
		shard          int
		table, pk, key string
	}
	delOf := make(map[uint64]slot)
	// guards[wi] holds the identity of writer wi's deleted rows, in staged
	// order; zero where the pre-image is absent or carries none.
	guards := make([][]uint64, len(writers))
	for wi, w := range writers {
		var gets []ndb.BatchGet
		w.StagedWrites(func(tab *ndb.Table, pk, key string, _ ndb.Value, del bool) {
			if del {
				gets = append(gets, ndb.BatchGet{Table: tab, PartKey: pk, Key: key})
			}
		})
		if len(gets) == 0 {
			continue
		}
		vals, err := w.ReadBatch(gets)
		if err != nil {
			return nil, err
		}
		guards[wi] = make([]uint64, len(gets))
		for i, v := range vals {
			if id, ok := identityOf(v.Val); v.OK && ok {
				guards[wi][i] = id
				delOf[id] = slot{shard: writerShards[wi], table: gets[i].Table.Name(), pk: gets[i].PartKey, key: gets[i].Key}
			}
		}
	}
	t.r.intentSeq++
	it := &Intent{ID: t.r.intentSeq, Op: t.p.Span().OpName()}
	for wi := 1; wi < len(writers); wi++ {
		leg := IntentLeg{Shard: writerShards[wi]}
		dels := guards[wi]
		writers[wi].StagedWrites(func(tab *ndb.Table, pk, key string, val ndb.Value, del bool) {
			row := IntentRow{Table: tab.Name(), PartKey: pk, Key: key, Val: val, Del: del}
			if del {
				row.Guard, dels = dels[0], dels[1:]
			} else if id, ok := identityOf(val); ok {
				row.Guard = id
				if src, found := delOf[id]; found {
					row.FallbackShard = src.shard
					row.FallbackTable = src.table
					row.FallbackPartKey = src.pk
					row.FallbackKey = src.key
				}
			}
			leg.Rows = append(leg.Rows, row)
		})
		it.Legs = append(it.Legs, leg)
	}
	return it, nil
}

// resolveIntent replays with guards every leg of it that has no marker,
// writing the marker in the replay transaction, then deletes the record and
// the markers. It reports how many legs it replayed. Idempotent: replaying
// an already-applied (or half-applied) intent converges to the same state.
func (r *Router) resolveIntent(p *sim.Proc, origin *simnet.Node, domain simnet.ZoneID, intentShard int, it *Intent) (int, error) {
	var rehomes []IntentRow
	replayed := 0
	for _, leg := range it.Legs {
		c := r.clusters[leg.Shard]
		m := r.markerWrite(intentShard, it.ID, leg)
		tx, err := c.Begin(p, origin, domain, c.Table(leg.Rows[0].Table), leg.Rows[0].PartKey)
		err = ndb.InTx(tx, err, func(tx *ndb.Txn) error {
			// One locked read of the marker and of every row: reads see
			// committed rows only, so each row's guard judges the state the
			// failure left, whatever the replay has staged before it.
			gets := []ndb.BatchGet{{Table: m.Table, PartKey: m.PartKey, Key: m.Key, Lock: ndb.LockExclusive}}
			for _, row := range leg.Rows {
				gets = append(gets, ndb.BatchGet{Table: c.Table(row.Table), PartKey: row.PartKey, Key: row.Key, Lock: ndb.LockExclusive})
			}
			vals, err := tx.ReadBatch(gets)
			if err != nil || vals[0].OK {
				return err
			}
			replayed++
			queued := len(rehomes)
			var writes []ndb.BatchWrite
			for i, row := range leg.Rows {
				cur := vals[i+1]
				id, idOK := identityOf(cur.Val)
				switch {
				case row.Del && !(cur.OK && (row.Guard == 0 || (idOK && id == row.Guard))):
					// Gone, or recreated with another inode since: leave it.
				case row.Del || !cur.OK || row.Guard == 0:
					// A delete of the expected row, a put whose destination is
					// free (roll forward) or an unguarded put: replay it.
					writes = append(writes, ndb.BatchWrite{Table: gets[i+1].Table, PartKey: row.PartKey, Key: row.Key, Val: row.Val, Del: row.Del})
				case idOK && id == row.Guard:
					// Already applied, by a replay that left no marker.
				default:
					// Foreign occupant: the destination was legitimately reused
					// after the failure. Don't overwrite it and don't drop the
					// moved inode — re-home it after this leg commits. No marker
					// meanwhile: a sweep that outlives this one must find the
					// leg again.
					rehomes = append(rehomes, row)
				}
			}
			if len(rehomes) == queued {
				writes = append(writes, m)
			}
			return tx.WriteBatch(writes)
		})
		if err != nil {
			return replayed, err
		}
	}
	for _, row := range rehomes {
		if err := r.rehomeRow(p, origin, domain, row); err != nil {
			return replayed, err
		}
		r.obs.intentsRolledBack.Add(1)
	}
	if err := r.clearIntent(p, origin, domain, intentShard, it); err != nil {
		return replayed, err
	}
	r.obs.intentsResolved.Add(1)
	return replayed, nil
}

// rehomeRow re-inserts a moved value whose destination was taken: at the
// move's source slot when it is still free (the rename rolls back), else
// under a reserved "~dup" key beside the destination — never dropped,
// never doubled.
func (r *Router) rehomeRow(p *sim.Proc, origin *simnet.Node, domain simnet.ZoneID, row IntentRow) error {
	if row.FallbackTable != "" {
		c := r.clusters[row.FallbackShard]
		tab := c.Table(row.FallbackTable)
		tx, err := c.Begin(p, origin, domain, tab, row.FallbackPartKey)
		err = ndb.InTx(tx, err, func(tx *ndb.Txn) error {
			vals, err := tx.ReadBatch([]ndb.BatchGet{{Table: tab, PartKey: row.FallbackPartKey, Key: row.FallbackKey, Lock: ndb.LockExclusive}})
			if err != nil {
				return err
			}
			if vals[0].OK {
				return errSlotTaken
			}
			return tx.WriteBatch([]ndb.BatchWrite{{Table: tab, PartKey: row.FallbackPartKey, Key: row.FallbackKey, Val: row.Val}})
		})
		if !errors.Is(err, errSlotTaken) {
			return err
		}
	}
	// Source taken too: park beside the destination under a key no path
	// lookup generates.
	s := r.ShardOfKey(row.PartKey)
	c := r.clusters[s]
	tab := c.Table(row.Table)
	key := row.Key + "~dup" + strconv.FormatUint(row.Guard, 10)
	tx, err := c.Begin(p, origin, domain, tab, row.PartKey)
	return ndb.InTx(tx, err, func(tx *ndb.Txn) error {
		return tx.WriteBatch([]ndb.BatchWrite{{Table: tab, PartKey: row.PartKey, Key: key, Val: row.Val}})
	})
}

// errSlotTaken aborts rehomeRow's probe of the move's source slot when that
// slot is occupied; it never leaves rehomeRow.
var errSlotTaken = errors.New("shard: rehome slot taken")

// clearIntent deletes the record of it, then each leg's marker, one small
// transaction per shard. The record goes first: a marker that outlives its
// record is an orphan the sweeper deletes, while a record that outlived its
// markers would have its applied legs replayed.
func (r *Router) clearIntent(p *sim.Proc, origin *simnet.Node, domain simnet.ZoneID, intentShard int, it *Intent) error {
	err := r.deleteIntentRows(p, origin, domain, intentShard, ndb.BatchWrite{Table: r.intents[intentShard], PartKey: intentPartKey, Key: intentKey(it.ID)})
	for _, leg := range it.Legs {
		if err == nil {
			err = r.deleteIntentRows(p, origin, domain, leg.Shard, r.markerWrite(intentShard, it.ID, leg))
		}
	}
	return err
}

// deleteIntentRows deletes the named rows of shard s's intent table in one
// transaction.
func (r *Router) deleteIntentRows(p *sim.Proc, origin *simnet.Node, domain simnet.ZoneID, s int, rows ...ndb.BatchWrite) error {
	for i := range rows {
		rows[i].Val, rows[i].Del = nil, true
	}
	tx, err := r.clusters[s].Begin(p, origin, domain, r.intents[s], rows[0].PartKey)
	return ndb.InTx(tx, err, func(tx *ndb.Txn) error { return tx.WriteBatch(rows) })
}

// scanIntents lists the rows of shard s's intent table whose key has the
// prefix: "i/" for the records, "m/" for the markers.
func (r *Router) scanIntents(p *sim.Proc, origin *simnet.Node, domain simnet.ZoneID, s int, prefix string) ([]ndb.KV, error) {
	var kvs []ndb.KV
	tx, err := r.clusters[s].Begin(p, origin, domain, r.intents[s], intentPartKey)
	err = ndb.InTx(tx, err, func(tx *ndb.Txn) error {
		rows, err := tx.ScanTablePrefix(r.intents[s], prefix)
		// The rows are the transaction's: copy them before it ends.
		kvs = slices.Clone(rows)
		return err
	})
	return kvs, err
}

// ResolvePendingIntents decides every surviving intent from the rows alone.
// It lists every shard's markers, then sweeps every shard's records in id
// order: each record's legs without a marker are replayed, and the record
// and its markers deleted (resolveIntent). Last it deletes each listed
// marker whose record the sweep did not find. A leg commits its marker
// after the record has committed, so a marker listed before its record was
// looked for and not found is an orphan, never a commit in flight. The
// chaos engine runs it at quiesced checkpoints (it is the recovery
// procedure a real deployment would run on namenode failover); tests call
// it directly. Returns how many intents it replayed a leg of.
func (r *Router) ResolvePendingIntents(p *sim.Proc, origin *simnet.Node, domain simnet.ZoneID) (int, error) {
	if r.intents == nil {
		return 0, nil
	}
	markers := make([][]ndb.KV, r.n)
	for s := range markers {
		kvs, err := r.scanIntents(p, origin, domain, s, "m/")
		if err != nil {
			return 0, err
		}
		markers[s] = kvs
	}
	found := make(map[string]bool) // the marker key of every record swept
	resolved := 0
	for s := 0; s < r.n; s++ {
		kvs, err := r.scanIntents(p, origin, domain, s, "i/")
		if err != nil {
			return resolved, err
		}
		for _, kv := range kvs {
			it := kv.Val.(*Intent)
			found[markerKey(s, it.ID)] = true
			n, err := r.resolveIntent(p, origin, domain, s, it)
			if err != nil {
				return resolved, err
			}
			if n > 0 {
				resolved++
			}
		}
	}
	for s, kvs := range markers {
		var orphans []ndb.BatchWrite
		for _, kv := range kvs {
			if !found[kv.Key] {
				orphans = append(orphans, ndb.BatchWrite{Table: r.intents[s], PartKey: kv.Val.(string), Key: kv.Key})
			}
		}
		if len(orphans) > 0 {
			if err := r.deleteIntentRows(p, origin, domain, s, orphans...); err != nil {
				return resolved, err
			}
		}
	}
	return resolved, nil
}

// PendingIntentCount inspects the intent tables directly (outside the
// simulated network) and returns how many records and markers survive —
// the auditor's cross-shard invariant: zero after a settled, swept
// checkpoint.
func (r *Router) PendingIntentCount() int {
	n := 0
	for _, tab := range r.intents {
		tab.ForEachCommitted(func(pk, key string, val ndb.Value) {
			n++
		})
	}
	return n
}
