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
//     staged into the first writer.
//  2. The first writer commits its rows and the intent atomically, holding
//     its locks (ndb.Txn.CommitHolding). If this commit fails, no shard has
//     applied anything and no intent exists: a clean abort, and every side
//     releases what it held.
//  3. The remaining writers commit in shard order, holding their locks.
//     From the instant step 2 committed, the operation is decided: if a
//     later commit fails (a shard crashed mid-commit), the durable intent is
//     enough to finish the job, so the caller gets an indeterminate error —
//     never a false "failed" for an operation that will complete.
//  4. Every writer releases its locks, then each read-only side releases
//     its own and acks. A transaction with one writer follows the same
//     order, with no intent.
//  5. The intent id goes on the router's clear queue and the commit
//     returns. The router's one clearer process deletes the records off the
//     critical path: per shard, everything queued at the instant it looks,
//     in one WriteBatch transaction. A failed delete stays queued for the
//     next round.
//
// Resolution (ResolvePendingIntents) deletes, without replaying it, any
// intent still on the clear queue: all its legs are applied, and the
// client may have moved on — a replay could roll a since-deleted
// destination forward again. Every other surviving intent belongs to a
// commit that did not finish, and is replayed with exclusive locks and
// identity guards, so replay is idempotent and safe against the window
// between failure and sweep: a delete leg only removes the row if it still
// holds the expected inode, and a put leg that finds a foreign occupant
// re-homes the moved inode at the move's source (or, as a last resort,
// under a "~dup" key) instead of overwriting or dropping it. The history
// checker sees: acked cross-shard renames never lose the inode, and no
// schedule of crashes leaves it absent from both names or present under
// both.

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
// atomically with the first writer's rows, deleted by the clearer once the
// last writer's have committed, replayed by the sweeper if they never do.
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
	// Step 1: the intent, staged into the first writer.
	intentShard := writerShards[0]
	it, err := t.buildIntent(writers, writerShards)
	if err == nil {
		err = writers[0].WriteBatch([]ndb.BatchWrite{{Table: r.intents[intentShard], PartKey: intentPartKey, Key: intentKey(it.ID), Val: it}})
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
		// Step 5: the clearer deletes the record off the critical path.
		t.p.Flush()
		r.queueClear(intentClear{shard: intentShard, id: it.ID, origin: t.origin, domain: t.domain})
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

// intentClear is one entry of the clear queue: a decided intent whose legs
// have all committed, the shard holding its record, and the node of the
// namenode that committed it.
type intentClear struct {
	shard  int
	id     uint64
	origin *simnet.Node
	domain simnet.ZoneID
}

// queueClear hands a decided intent's record to the clearer, waking it if
// it is parked.
func (r *Router) queueClear(c intentClear) {
	r.clears = append(r.clears, c)
	if r.clearIdle {
		r.clearIdle = false
		r.clearWake.Send(struct{}{})
	}
}

// clearer is the router's one long-lived intent clearer. Woken by a queued
// clear, it runs rounds until one fails or leaves the queue empty, then
// parks again: a failed delete is retried by the round the next queued
// clear starts, or deleted by the sweeper. It retries on no timer of its
// own, which would keep a transaction in flight through a fault and hold
// up every quiesced audit.
func (r *Router) clearer(p *sim.Proc) {
	ok := true
	for {
		if !ok || len(r.clears) == 0 {
			r.clearIdle = true
			r.clearWake.Recv(p)
		}
		ok = r.clearRound(p)
	}
}

// clearRound deletes every record queued at the instant it starts: per
// shard, in shard order, one WriteBatch transaction begun from the node of
// the latest commit queued for that shard. A shard's entries leave the
// queue once its delete has committed. It reports whether every shard's
// did.
func (r *Router) clearRound(p *sim.Proc) bool {
	r.clearBuf = append(r.clearBuf[:0], r.clears...)
	ok := true
	for s := 0; s < r.n; s++ {
		items := r.clearItems[:0]
		var last *intentClear
		for i := range r.clearBuf {
			if c := &r.clearBuf[i]; c.shard == s {
				items = append(items, ndb.BatchWrite{Table: r.intents[s], PartKey: intentPartKey, Key: intentKey(c.id), Del: true})
				last = c
			}
		}
		r.clearItems = items
		if last == nil {
			continue
		}
		tx, err := r.clusters[s].Begin(p, last.origin, last.domain, r.intents[s], intentPartKey)
		if err := ndb.InTx(tx, err, func(tx *ndb.Txn) error { return tx.WriteBatch(items) }); err != nil {
			ok = false
			continue
		}
		r.clears = slices.DeleteFunc(r.clears, func(c intentClear) bool {
			return c.shard == s && slices.ContainsFunc(r.clearBuf, func(d intentClear) bool { return d.id == c.id })
		})
	}
	return ok
}

// queuedClear reports whether intent id of shard s waits on the clear queue.
func (r *Router) queuedClear(s int, id uint64) bool {
	return slices.ContainsFunc(r.clears, func(c intentClear) bool { return c.shard == s && c.id == id })
}

// ResolvePendingIntents sweeps every shard's intent table in id order. A
// record still on the clear queue belongs to a commit whose legs have all
// committed: it is deleted, never replayed — its client may have moved on,
// and a replay could roll a since-deleted destination forward again. Every
// other surviving record is replayed. The chaos engine runs it at quiesced
// checkpoints (it is the recovery procedure a real deployment would run on
// namenode failover); tests call it directly. Returns how many intents it
// replayed.
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
			if r.queuedClear(s, it.ID) {
				if err := r.clearIntent(p, origin, domain, s, it.ID); err != nil {
					return resolved, err
				}
				r.clears = slices.DeleteFunc(r.clears, func(c intentClear) bool { return c.shard == s && c.id == it.ID })
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
