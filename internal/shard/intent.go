package shard

import (
	"errors"
	"fmt"
	"strconv"

	"hopsfscl/internal/ndb"
	"hopsfscl/internal/sim"
	"hopsfscl/internal/simnet"
)

// Cross-shard commit: an ordered two-cluster protocol with a durable
// intent record.
//
// A transaction that staged writes on two shards cannot commit atomically
// — the clusters share nothing. The router instead commits them in shard
// order, with the plan for every later shard persisted *inside the first
// commit*:
//
//  1. Read-only sides commit first. They only release locks; if one fails
//     nothing has been applied anywhere and the writers abort cleanly.
//  2. An Intent row — the staged rows of every writer after the first,
//     plus per-row identity guards — is staged into the first writer and
//     committed atomically with its rows. If this commit fails, no shard
//     has applied anything and no intent exists: a clean abort.
//  3. The remaining writers commit in shard order. From the instant step
//     2 committed, the operation is decided: if a later commit fails (a
//     shard crashed mid-commit), the durable intent is enough to finish
//     the job, so the caller gets an indeterminate error — never a false
//     "failed" for an operation that will complete.
//  4. On full success the intent row is deleted (best effort: a surviving
//     intent for an applied operation replays as a guarded no-op).
//
// Resolution (ResolvePendingIntents) replays surviving intents with
// exclusive locks and identity guards, so it is idempotent and safe
// against the window between failure and sweep: a delete leg only removes
// the row if it still holds the expected inode, and a put leg that finds
// a foreign occupant re-homes the moved inode at the move's source (or,
// as a last resort, under a "~dup" key) instead of overwriting or
// dropping it. The PR 2 history checker sees: acked cross-shard renames
// never lose the inode, and no schedule of crashes leaves it absent from
// both names or present under both.

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
// atomically with the first writer's rows, deleted after the last
// writer's, replayed by the sweeper in between.
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

// ErrIndeterminate reports a cross-shard commit whose intent is durable
// but whose later legs did not all acknowledge: the operation will
// complete (the sweeper replays the intent), the caller just cannot know
// yet. It unwraps to ndb.ErrNodeUnavailable so history checkers already
// classify it as indeterminate.
var ErrIndeterminate = fmt.Errorf("shard: cross-shard commit indeterminate, durable intent pending: %w", ndb.ErrNodeUnavailable)

// commitCross commits a transaction that opened sub-transactions on several
// shards: a plain commit when at most one of them has anything to write —
// the usual case, a path resolution that straddled shards — and the intent
// protocol otherwise.
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
	// Step 1: read-only sides, in shard order. Failures here abort
	// everything cleanly.
	nWriters := 0
	var writer *ndb.Txn
	for _, sub := range t.subs {
		switch {
		case sub == nil:
		case sub.HasWrites():
			nWriters++
			writer = sub
		default:
			if err := sub.Commit(); err != nil {
				return fail("abort-read", err)
			}
		}
	}
	switch nWriters {
	case 0:
		// Reads spanned shards and nothing was written: the read-side
		// commits above were all there is. Local, like case 1.
		r.obs.local.Add(1)
		return nil
	case 1:
		// One writing shard: single-cluster atomicity suffices even though
		// reads spanned shards.
		r.obs.local.Add(1)
		return writer.Commit()
	}
	writers := make([]*ndb.Txn, 0, nWriters)
	writerShards := make([]int, 0, nWriters)
	for s, sub := range t.subs {
		if sub != nil && sub.HasWrites() {
			writers = append(writers, sub)
			writerShards = append(writerShards, s)
		}
	}
	// Step 2: build the intent from the staged rows of every writer after
	// the first, guard deletes by their pre-image identity, and pair puts
	// with the delete of the same inode (the move's source) as fallback.
	r.intentSeq++
	it := &Intent{ID: r.intentSeq, Op: t.p.Span().OpName()}
	type slot struct {
		shard          int
		table, pk, key string
	}
	delOf := make(map[uint64]slot)
	var buildErr error
	for wi, w := range writers {
		s := writerShards[wi]
		w.StagedWrites(func(tab *ndb.Table, pk, key string, val ndb.Value, del bool) {
			if buildErr != nil {
				return
			}
			if del {
				cur, ok, err := getRow(w, tab, pk, key, 0)
				if err != nil {
					buildErr = err
					return
				}
				if ok {
					if id, idOK := identityOf(cur); idOK {
						delOf[id] = slot{shard: s, table: tab.Name(), pk: pk, key: key}
					}
				}
			}
		})
	}
	if buildErr == nil {
		for wi, w := range writers {
			if wi == 0 {
				continue
			}
			leg := IntentLeg{Shard: writerShards[wi]}
			w.StagedWrites(func(tab *ndb.Table, pk, key string, val ndb.Value, del bool) {
				if buildErr != nil {
					return
				}
				row := IntentRow{Table: tab.Name(), PartKey: pk, Key: key, Val: val, Del: del}
				if del {
					cur, ok, err := getRow(w, tab, pk, key, 0)
					if err != nil {
						buildErr = err
						return
					}
					if ok {
						if id, idOK := identityOf(cur); idOK {
							row.Guard = id
						}
					}
				} else if val != nil {
					if id, idOK := identityOf(val); idOK {
						row.Guard = id
						if src, found := delOf[id]; found {
							row.FallbackShard = src.shard
							row.FallbackTable = src.table
							row.FallbackPartKey = src.pk
							row.FallbackKey = src.key
						}
					}
				}
				leg.Rows = append(leg.Rows, row)
			})
			it.Legs = append(it.Legs, leg)
		}
	}
	intentShard := writerShards[0]
	if buildErr == nil {
		buildErr = writers[0].WriteBatch([]ndb.BatchWrite{{Table: r.intents[intentShard], PartKey: intentPartKey, Key: intentKey(it.ID), Val: it}})
	}
	if buildErr != nil {
		return fail("abort-build", buildErr)
	}

	// Step 2, commit: rows of the first shard plus the intent, atomically.
	if err := writers[0].Commit(); err != nil {
		return fail("abort-first-leg", err)
	}

	// Step 3: the decision is durable; commit the remaining legs in shard
	// order.
	var legErr error
	for _, w := range writers[1:] {
		if err := w.Commit(); err != nil && legErr == nil {
			legErr = err
		}
	}
	if legErr == nil {
		// Step 4: best effort — a surviving intent replays as a no-op.
		_ = r.clearIntent(t.p, t.origin, t.domain, intentShard, it.ID)
		r.obs.cross.Add(1)
		r.obs.crossTime.Observe(t.p.Now() - start)
		t.Annotate("shard.cross", strconv.Itoa(len(writers)))
		return nil
	}
	// A later leg failed after the intent became durable. Try to finish
	// inline; if the shard is really down, hand the intent to the sweeper
	// and report indeterminate.
	if err := r.resolveIntent(t.p, t.origin, t.domain, intentShard, it); err == nil {
		r.obs.cross.Add(1)
		r.obs.crossTime.Observe(t.p.Now() - start)
		t.Annotate("shard.cross", "resolved-inline")
		return nil
	}
	r.obs.crossIndet.Add(1)
	t.Annotate("shard.cross", "indeterminate")
	return ErrIndeterminate
}

// resolveIntent replays every leg of it with guards, then deletes the
// record. Idempotent: replaying an already-applied (or half-applied)
// intent converges to the same state.
func (r *Router) resolveIntent(p *sim.Proc, origin *simnet.Node, domain simnet.ZoneID, intentShard int, it *Intent) error {
	type rehome struct {
		row IntentRow
	}
	var rehomes []rehome
	for _, leg := range it.Legs {
		c := r.clusters[leg.Shard]
		if len(leg.Rows) == 0 {
			continue
		}
		tx, err := c.Begin(p, origin, domain, c.Table(leg.Rows[0].Table), leg.Rows[0].PartKey)
		err = ndb.InTx(tx, err, func(tx *ndb.Txn) error {
			for _, row := range leg.Rows {
				tab := c.Table(row.Table)
				cur, ok, err := getRow(tx, tab, row.PartKey, row.Key, ndb.LockExclusive)
				if err != nil {
					return err
				}
				switch {
				case row.Del:
					id, idOK := uint64(0), false
					if ok {
						id, idOK = identityOf(cur)
					}
					if ok && (row.Guard == 0 || (idOK && id == row.Guard)) {
						if err := tx.WriteBatch([]ndb.BatchWrite{{Table: tab, PartKey: row.PartKey, Key: row.Key, Del: true}}); err != nil {
							return err
						}
					}
				case !ok:
					// Destination free: roll forward.
					if err := tx.WriteBatch([]ndb.BatchWrite{{Table: tab, PartKey: row.PartKey, Key: row.Key, Val: row.Val}}); err != nil {
						return err
					}
				default:
					id, idOK := identityOf(cur)
					if row.Guard != 0 && idOK && id == row.Guard {
						// Already applied (the leg committed, only the ack or the
						// intent cleanup was lost).
						continue
					}
					if row.Guard == 0 {
						// Unguarded put: plain replay.
						if err := tx.WriteBatch([]ndb.BatchWrite{{Table: tab, PartKey: row.PartKey, Key: row.Key, Val: row.Val}}); err != nil {
							return err
						}
						continue
					}
					// Foreign occupant: the destination was legitimately reused
					// after the failure. Don't overwrite it and don't drop the
					// moved inode — re-home it after this leg commits.
					rehomes = append(rehomes, rehome{row: row})
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	for _, rh := range rehomes {
		if err := r.rehomeRow(p, origin, domain, rh.row); err != nil {
			return err
		}
		r.obs.intentsRolledBack.Add(1)
	}
	if err := r.clearIntent(p, origin, domain, intentShard, it.ID); err != nil {
		return err
	}
	r.obs.intentsResolved.Add(1)
	return nil
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
			_, ok, err := getRow(tx, tab, row.FallbackPartKey, row.FallbackKey, ndb.LockExclusive)
			if err != nil {
				return err
			}
			if ok {
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

// getRow reads one row — under lock when lock is set — as a batch of one.
func getRow(tx *ndb.Txn, tab *ndb.Table, pk, key string, lock ndb.LockMode) (ndb.Value, bool, error) {
	vals, err := tx.ReadBatch([]ndb.BatchGet{{Table: tab, PartKey: pk, Key: key, Lock: lock}})
	if err != nil {
		return nil, false, err
	}
	return vals[0].Val, vals[0].OK, nil
}

// errSlotTaken aborts rehomeRow's probe of the move's source slot when that
// slot is occupied; it never leaves rehomeRow.
var errSlotTaken = errors.New("shard: rehome slot taken")

// clearIntent deletes one intent record in its own small transaction.
func (r *Router) clearIntent(p *sim.Proc, origin *simnet.Node, domain simnet.ZoneID, shard int, id uint64) error {
	tx, err := r.clusters[shard].Begin(p, origin, domain, r.intents[shard], intentPartKey)
	return ndb.InTx(tx, err, func(tx *ndb.Txn) error {
		return tx.WriteBatch([]ndb.BatchWrite{{Table: r.intents[shard], PartKey: intentPartKey, Key: intentKey(id), Del: true}})
	})
}

// ResolvePendingIntents sweeps every shard's intent table and replays
// surviving records in id order. The chaos engine runs it at quiesced
// checkpoints (it is the recovery procedure a real deployment would run
// on namenode failover); tests call it directly. Returns how many intents
// it resolved.
func (r *Router) ResolvePendingIntents(p *sim.Proc, origin *simnet.Node, domain simnet.ZoneID) (int, error) {
	if r.intents == nil {
		return 0, nil
	}
	resolved := 0
	for s := 0; s < r.n; s++ {
		var kvs []ndb.KV
		tx, err := r.clusters[s].Begin(p, origin, domain, r.intents[s], intentPartKey)
		err = ndb.InTx(tx, err, func(tx *ndb.Txn) error {
			rows, err := tx.ScanBatch([]ndb.BatchScan{{Table: r.intents[s], PartKey: intentPartKey, Prefix: "i/"}})
			if err == nil {
				kvs = rows[0]
			}
			return err
		})
		if err != nil {
			return resolved, err
		}
		for _, kv := range kvs {
			it, ok := kv.Val.(*Intent)
			if !ok {
				continue
			}
			if err := r.resolveIntent(p, origin, domain, s, it); err != nil {
				return resolved, err
			}
			resolved++
		}
	}
	return resolved, nil
}

// PendingIntentCount inspects the intent tables directly (outside the
// simulated network) and returns how many records survive — the
// auditor's cross-shard invariant: zero after a settled, swept
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
