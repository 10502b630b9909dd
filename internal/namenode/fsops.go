package namenode

import (
	"errors"
	"slices"
	"strconv"
	"time"

	"hopsfscl/internal/blocks"
	"hopsfscl/internal/ndb"
	"hopsfscl/internal/sim"
)

// opRules is what differs between operations before their transaction
// starts: everything else in op is the same for all of them.
type opRules struct {
	// root is what the operation answers for "/" itself; nil admits the root.
	root error
	// children hints the transaction with the partition of the target's
	// children (List, Quota) instead of the partition of its own row.
	children bool
	// dst is Rename's parsed destination: billed, tagged and invalidated
	// along with the source.
	dst fsPath
}

// opScratch is one operation's working memory, pooled per NN and held by op
// for the operation's life, retries included: the ids and hint entries its
// batches are keyed from (ids as they were when the requests were built,
// whatever the cache does meanwhile), the requests it hands to storage, the
// backing its chains are carved from, and the keys of the last inode row it
// addressed outside the hint cache. Nothing in it is reachable after op
// returns: what an operation returns or stores is never carved from it.
type opScratch struct {
	next   *opScratch // in the NN's pool
	ids    []uint64
	dirs   []*hintEntry
	gets   []ndb.BatchGet
	vals   []ndb.BatchVal
	scans  []ndb.BatchScan
	writes []ndb.BatchWrite
	chains []*Inode
	row    rowAddr
	// edit is the change the operation's write asks its target row's chain
	// head to make; the write carries a pointer to it.
	edit inodeEdit
	// unlinkedDir is set by the body of an operation whose success removes
	// the target's name (Delete, Rename), under the target's lock, when the
	// inode it unlinks is a directory: the hints under the name (and under
	// dst) are then dropped after the commit.
	unlinkedDir bool
}

// rowAddr is the partition and row key of name's inode row under parent.
type rowAddr struct {
	parent  uint64
	name    string
	pk, key string
}

// inodeEdit is the ndb.Editor of an operation on one existing inode: the
// change its write asks the chain's head to make to the committed inode,
// under the exclusive lock taken there, so two updates of one inode never
// lose each other's change and an update that loses to a delete answers
// ErrNotFound. An update is aimed at the inode its resolve found (id): another
// inode under the name was created after that one was deleted, so the
// update answers ErrNotFound — it took effect between the two. A delete
// resolves only the parent; its edit takes any inode and keeps the
// pre-image (pre), which tells the operation what else to remove.
type inodeEdit struct {
	kind             editKind
	id               uint64
	mtime            time.Duration
	perm             uint16
	owner            string
	blocks           []blocks.BlockID
	size             int64
	nsQuota, ssQuota int64
	pre              *Inode
}

// editKind names the field an update sets, or a delete.
type editKind uint8

const (
	editDelete editKind = iota
	editPerm
	editOwner
	editBlocks
	editQuota
)

// Edit applies the edit to the committed inode (ndb.Editor).
func (e *inodeEdit) Edit(committed ndb.Value) (ndb.Value, error) {
	ino := committed.(*Inode)
	if e.kind == editDelete {
		e.pre = ino
		return nil, nil
	}
	if ino.ID != e.id {
		return nil, ErrNotFound
	}
	next := *ino
	switch e.kind {
	case editPerm:
		next.Perm = e.perm
	case editOwner:
		next.Owner = e.owner
	case editBlocks:
		next.Blocks, next.Size = e.blocks, e.size
	case editQuota:
		next.QuotaNS, next.QuotaSS = e.nsQuota, e.ssQuota
	}
	next.Mtime = e.mtime
	return &next, nil
}

// putScratch returns sc to the NN's pool, dropping every reference it holds.
func (nn *NameNode) putScratch(sc *opScratch) {
	*sc = opScratch{next: nn.scratch, ids: sc.ids[:0], dirs: emptied(sc.dirs), gets: emptied(sc.gets),
		vals: emptied(sc.vals), scans: emptied(sc.scans), writes: emptied(sc.writes), chains: emptied(sc.chains)}
	nn.scratch = sc
}

// emptied zeroes s's whole backing array and returns it empty.
func emptied[T any](s []T) []T {
	clear(s[:cap(s)])
	return s[:0]
}

// op is the one template every file system operation runs (HopsFS's
// resolve → lock → execute → update, §II-A2): validate the path, apply the
// root rule, bill the NN CPU, count and annotate the operation, then run fn
// as a retried storage transaction started at the hinted partition. A path
// that fails validation costs nothing and is not counted.
func (nn *NameNode) op(p *sim.Proc, path string, rules opRules, fn func(tx ndb.Tx, fp fsPath, sc *opScratch) error) error {
	fp, err := splitPath(path)
	if err != nil {
		return err
	}
	if fp.depth() == 0 && rules.root != nil {
		return rules.root
	}
	nn.charge(p, fp.depth()+rules.dst.depth())
	nn.Ops++
	nn.annotate(p, path, rules.dst.raw)
	var hint string
	if rules.children {
		hint = nn.dirHint(fp, fp.depth(), "")
	} else {
		hint = nn.hintFor(fp)
	}
	sc := nn.scratch
	if sc == nil {
		sc = &opScratch{}
	}
	nn.scratch = sc.next
	defer nn.putScratch(sc)
	err = nn.runTxn(p, hint, func(tx ndb.Tx) error { return fn(tx, fp, sc) })
	if err == nil && sc.unlinkedDir {
		// Everything under the old name now resolves differently (or not at
		// all), and a previous life of a rename's destination may still be
		// cached: drop those hints so later resolutions do not waste a
		// batched attempt on them. A file keys no hint (see hintCache), so
		// unlinking one leaves nothing to drop.
		nn.cache.invalidatePrefix(fp.prefix(fp.depth()))
		if rules.dst.depth() > 0 {
			nn.cache.invalidatePrefix(rules.dst.prefix(rules.dst.depth()))
		}
	}
	return err
}

// hintFor computes the transaction's distribution-aware hint: the partition
// key of the target's own row, which lives with its parent directory's
// children.
func (nn *NameNode) hintFor(fp fsPath) string {
	if fp.depth() == 0 {
		return partKeyOf(0, "")
	}
	return nn.dirHint(fp, fp.depth()-1, fp.name())
}

// dirHint is the partition key of name's row under the directory made of
// fp's first n components, from the inode hint cache when possible (a stale
// hint only costs locality, never correctness).
func (nn *NameNode) dirHint(fp fsPath, n int, name string) string {
	if n == 0 {
		return partKeyOf(RootID, name)
	}
	if e := nn.cache.lookup(fp.prefix(n)); e != nil {
		return e.childPrefix[:len(e.childPrefix)-1]
	}
	// Unresolved directory: hint with the top-level component's partition,
	// which names the shard of the whole subtree below it.
	return partKeyOf(RootID, fp.comp(0))
}

// rowOf addresses name's inode row under the directory parent, as inodeRow
// does, but takes the keys ready-made from the hint entry of the row's own
// directory when the operation's batches were keyed from it, or from sc.row
// when the operation built them last: an update reads its target in its
// resolve, then writes it, and builds the row's keys once for both.
func (nn *NameNode) rowOf(sc *opScratch, parent uint64, name string) (*ndb.Table, string, string) {
	for _, e := range sc.dirs {
		if e.parent == parent && e.name() == name {
			return nn.ns.inodes.For(e.partKey), e.partKey, e.rowKey
		}
	}
	if r := &sc.row; r.key == "" || r.parent != parent || r.name != name {
		r.pk, r.key = rowKeys(parent, name)
		r.parent, r.name = parent, name
	}
	return nn.ns.inodes.For(sc.row.pk), sc.row.pk, sc.row.key
}

// inodeDelete is the batched-write item deleting name's inode row under
// parent.
func (nn *NameNode) inodeDelete(sc *opScratch, parent uint64, name string) ndb.BatchWrite {
	table, pk, key := nn.rowOf(sc, parent, name)
	return ndb.BatchWrite{Table: table, PartKey: pk, Key: key, Del: true}
}

// getInode fetches one inode row in a one-row batch: read-committed, or
// under a row lock on the primary replica when lock is set.
func (nn *NameNode) getInode(tx ndb.Tx, sc *opScratch, parent uint64, name string, lock ndb.LockMode) (*Inode, error) {
	table, pk, key := nn.rowOf(sc, parent, name)
	sc.gets = append(sc.gets[:0], ndb.BatchGet{Table: table, PartKey: pk, Key: key, Lock: lock})
	vals, err := tx.ReadBatch(sc.gets)
	if err != nil {
		return nil, err
	}
	return nn.asInode(tx, vals[0].Val)
}

// asInode decodes a row value read from the inodes table — nil for an absent
// row — and attributes the access to the inode's heat.
func (nn *NameNode) asInode(tx ndb.Tx, v ndb.Value) (*Inode, error) {
	ino, ok := v.(*Inode)
	if !ok {
		return nil, ErrNotFound
	}
	nn.ns.heat.TouchInode(tx.Now(), ino.ID)
	return ino, nil
}

// rootInode is the immutable "/" inode, cached at every metadata server —
// HopsFS never reads it from the database on the hot path ([23]: the root
// inode is immutable and cached at all namenodes).
var rootInode = &Inode{ID: RootID, Parent: 0, Name: "", Dir: true, Perm: 0o755, Owner: "hdfs"}

// resolveChain resolves the path to the inode chain [root, ..., target]
// with read-committed reads (hierarchical implicit locking: ancestors are
// not locked), except that the path's last component is read under lockLast
// when that is set — the lock rides the read, it costs no round of its own.
// "/" has no last component: it is immutable, cached, and never locked. When
// the hint cache covers a prefix of the path (hintedIDs), every covered inode
// row is read in one batched fan-out and verified against what the cache
// promised (settle); otherwise — and whenever verification detects stale
// hints — it falls back to the serial per-component walk, whose final step
// takes the same lock. A stale cache only ever costs that re-walk, never a
// wrong answer, and either way the hint cache is refreshed with what was
// actually read.
//
// A read batch carries at most one lock: when the hints reach the path's
// last component, its get — and no other — carries lockLast. One lock per
// batch means the arms of a fan-out never take locks in an order of their
// own, so the orders the two-lock operations rely on (parent before child,
// Rename's sorted pair) are those of their sequential calls, untouched. A
// lock taken on stale hints sits on a row the verification then rejects (or
// on the right row by luck): the serial re-walk locks the committed row in
// the same transaction, which so holds a superset of the locks it needs
// until it ends — strict two-phase locking, no retry path of its own.
func (nn *NameNode) resolveChain(tx ndb.Tx, sc *opScratch, fp fsPath, lockLast ndb.LockMode) ([]*Inode, error) {
	if !nn.ns.cfg.DisableBatchedResolve && fp.depth() > 1 {
		sc.ids = sc.ids[:0]
		ids := nn.hintedIDs(sc, &fp)
		// A batch of one row is just a serial read.
		if rows := len(ids); rows >= 2 {
			sc.gets = nn.hintedGets(sc, sc.gets[:0], &fp, ids)
			if rows == fp.depth() {
				sc.gets[rows-1].Lock = lockLast
			}
			vals, err := tx.ReadBatch(sc.gets)
			if err != nil {
				return nil, err
			}
			return nn.settle(tx, sc, fp, ids, vals, lockLast)
		}
		nn.ns.obs.resolveMiss.Add(1)
	}
	return nn.walkFrom(tx, sc, sc.newChain(&fp), fp, lockLast)
}

// newChain carves out of sc the chain that resolves none of fp yet — just
// "/" — with room for the rest of fp.
func (sc *opScratch) newChain(fp *fsPath) []*Inode {
	at, n := len(sc.chains), fp.depth()+1
	sc.chains = slices.Grow(sc.chains, n)[:at+n]
	chain := sc.chains[at : at+1 : at+n]
	chain[0] = rootInode
	return chain
}

// settle turns the values a batch read for the rows ids primes into fp's
// chain: the verified rows, continued serially over any suffix the hints did
// not reach — or, when they prove stale, the serial walk from "/". lockLast is
// the lock fp's last component is to be read under: the batch took it if the
// hints reached that far, the walk's last step takes it otherwise.
func (nn *NameNode) settle(tx ndb.Tx, sc *opScratch, fp fsPath, ids []uint64, vals []ndb.BatchVal, lockLast ndb.LockMode) ([]*Inode, error) {
	chain, ok, err := nn.verifyHinted(tx, sc, &fp, ids, vals)
	if err != nil {
		return nil, err
	}
	if !ok {
		chain = sc.newChain(&fp)
	} else if lockLast != 0 && len(ids) == fp.depth() {
		// The operated-on inode counts as touched, as it does when the
		// serial walk's locked getInode reads it.
		nn.ns.heat.TouchInode(tx.Now(), chain[len(ids)].ID)
	}
	return nn.walkFrom(tx, sc, chain, fp, lockLast)
}

// hintedIDs appends to sc.ids, and returns, the cached inode ids that key
// fp's rows, as far as the cache holds them contiguously: row i is keyed by
// (ids[i], component i) and ids[0] is "/", so the cached directories prime one
// row beyond themselves. Their entries join sc.dirs.
func (nn *NameNode) hintedIDs(sc *opScratch, fp *fsPath) []uint64 {
	start := len(sc.ids)
	for i := 0; i < fp.depth(); i++ {
		id := RootID
		if i > 0 {
			e := nn.cache.lookup(fp.prefix(i))
			if e == nil {
				break
			}
			sc.dirs = append(sc.dirs, e)
			id = e.id
		}
		sc.ids = append(sc.ids, id)
	}
	return sc.ids[start:len(sc.ids):len(sc.ids)]
}

// hintedGets appends one lock-free get per row of fp that ids primes, keyed
// from the rows' own hint entries: every row's but the last, and the last's
// too when fp names a cached directory (a probe that leaves recency alone).
func (nn *NameNode) hintedGets(sc *opScratch, gets []ndb.BatchGet, fp *fsPath, ids []uint64) []ndb.BatchGet {
	if len(ids) == fp.depth() {
		if e := nn.cache.peek(fp.prefix(fp.depth())); e != nil {
			sc.dirs = append(sc.dirs, e)
		}
	}
	for i, id := range ids {
		table, pk, key := nn.rowOf(sc, id, fp.comp(i))
		gets = append(gets, ndb.BatchGet{Table: table, PartKey: pk, Key: key})
	}
	return gets
}

// verifyHinted checks the rows a batch read for fp — vals[i] is the row ids[i]
// primed — against what the cache promised and returns the chain they
// resolve, refreshing the hints with it. ok=false means a link failed to
// verify: the hints were stale and the values are worthless. When all links
// verify, errors are authoritative: a missing row below a verified parent is
// exactly the ErrNotFound the serial walk would have returned, and a
// non-directory interior component is ErrNotDir.
func (nn *NameNode) verifyHinted(tx ndb.Tx, sc *opScratch, fp *fsPath, ids []uint64, vals []ndb.BatchVal) ([]*Inode, bool, error) {
	obs := nn.ns.obs
	depth, rows := fp.depth(), len(ids)
	chain := sc.newChain(fp)
	for i := 0; i < rows; i++ {
		if !vals[i].OK {
			// Every link above row i verified, so the parent id used to
			// key this row was the committed one: the row's absence is the
			// same ErrNotFound the serial walk would see.
			obs.resolveHit.Add(1)
			tx.Annotate("op.batched", strconv.Itoa(rows))
			return nil, true, ErrNotFound
		}
		ino, ok := vals[i].Val.(*Inode)
		if !ok || ino.Parent != ids[i] || ino.Name != fp.comp(i) {
			// Defensive: the stored row disagrees with its own key.
			obs.resolveFallback.Add(1)
			return nil, false, nil
		}
		if i+1 < rows && ino.ID != ids[i+1] {
			// The path component exists but is not the inode the cache
			// promised (renamed away and recreated): every row below was
			// keyed off a stale id, so the batch is worthless.
			obs.resolveFallback.Add(1)
			return nil, false, nil
		}
		if i < depth-1 && !ino.Dir {
			obs.resolveHit.Add(1)
			tx.Annotate("op.batched", strconv.Itoa(rows))
			return nil, true, ErrNotDir
		}
		nn.remember(fp, i+1, ino)
		chain = append(chain, ino)
	}
	obs.resolveHit.Add(1)
	tx.Annotate("op.batched", strconv.Itoa(rows))
	return chain, true, nil
}

// resolveBoth is Rename's lock-free resolve of its two paths: the source with
// its own inode, and the destination's parent. When the hint cache primes
// both down to their last component, the rows of both go out as one batch —
// one round instead of two — and each path's share is verified as a batch of
// its own would be; a path whose hints prove stale is re-walked serially.
// Hints that fall short of either path leave the two resolves they were.
func (nn *NameNode) resolveBoth(tx ndb.Tx, sc *opScratch, src, dstParent fsPath) (srcChain, dstChain []*Inode, err error) {
	var sids, dids []uint64
	if !nn.ns.cfg.DisableBatchedResolve {
		sc.ids = sc.ids[:0]
		sids, dids = nn.hintedIDs(sc, &src), nn.hintedIDs(sc, &dstParent)
	}
	if len(dids) == 0 || len(sids) < src.depth() || len(dids) < dstParent.depth() {
		if srcChain, err = nn.resolveChain(tx, sc, src, 0); err == nil {
			dstChain, err = nn.resolveChain(tx, sc, dstParent, 0)
		}
		return srcChain, dstChain, err
	}
	sc.gets = nn.hintedGets(sc, nn.hintedGets(sc, sc.gets[:0], &src, sids), &dstParent, dids)
	vals, err := tx.ReadBatch(sc.gets)
	if err != nil {
		return nil, nil, err
	}
	// The values may live in the transaction until its next read, and a
	// stale source re-walks — reads — before the destination is settled:
	// keep the destination's share in the scratch.
	sc.vals = append(sc.vals[:0], vals[len(sids):]...)
	if srcChain, err = nn.settle(tx, sc, src, sids, vals[:len(sids)], 0); err == nil {
		dstChain, err = nn.settle(tx, sc, dstParent, dids, sc.vals, 0)
	}
	return srcChain, dstChain, err
}

// walkFrom continues serial resolution: chain already resolves the first
// len(chain)-1 components of fp, and each further component is one round
// trip — read-committed, but for the path's last component under lockLast
// when that is set. It refreshes the hint cache as it goes.
func (nn *NameNode) walkFrom(tx ndb.Tx, sc *opScratch, chain []*Inode, fp fsPath, lockLast ndb.LockMode) ([]*Inode, error) {
	cur := chain[len(chain)-1]
	for i := len(chain) - 1; i < fp.depth(); i++ {
		if !cur.Dir {
			return nil, ErrNotDir
		}
		var lock ndb.LockMode
		if i == fp.depth()-1 {
			lock = lockLast
		}
		child, err := nn.getInode(tx, sc, cur.ID, fp.comp(i), lock)
		if err != nil {
			return nil, err
		}
		nn.remember(&fp, i+1, child)
		chain = append(chain, child)
		cur = child
	}
	return chain, nil
}

// remember refreshes the hint for fp's first n components with the inode
// just read there. Only directories are hints (see hintCache); a file found
// where a hint says a directory was replaces nothing, so the stale hint is
// dropped instead of costing every later resolution its fallback.
func (nn *NameNode) remember(fp *fsPath, n int, ino *Inode) {
	if ino.Dir {
		nn.cache.put(fp.prefix(n), ino.ID, ino.Parent)
	} else {
		nn.cache.drop(fp.prefix(n))
	}
}

// resolveParentChain is the lock phase of an operation that adds or removes
// a name: it resolves everything but the last component of a path that has
// one (the root rule ran) and returns the full ancestor chain [root, ...,
// parent], the parent's row share-locked — the parent must keep existing.
// The chain (not just the parent) is what mutations need: quota charges go
// to every quota'd ancestor on the resolved path.
func (nn *NameNode) resolveParentChain(tx ndb.Tx, sc *opScratch, fp fsPath) ([]*Inode, error) {
	chain, err := nn.resolveChain(tx, sc, fp.parent(), ndb.LockShared)
	if err != nil {
		return nil, err
	}
	if !chain[len(chain)-1].Dir {
		return nil, ErrNotDir
	}
	return chain, nil
}

// Mkdir creates a directory. The parent is share-locked (it must keep
// existing), the new child row is exclusively locked by the insert.
func (nn *NameNode) Mkdir(p *sim.Proc, path string, perm uint16) error {
	_, err := nn.createChild(p, path, Inode{Dir: true, Perm: perm})
	return err
}

// Create creates a file of the given logical size. Sizes at or below the
// small-file threshold are recorded as stored inline in NDB (§II-A3);
// larger files get their block list attached later via AttachBlocks (the
// client writes blocks through the block layer between the two).
func (nn *NameNode) Create(p *sim.Proc, path string, size int64) (*Inode, error) {
	return nn.createChild(p, path, Inode{Perm: 0o644, Size: size})
}

// createChild inserts a new inode shaped like proto (kind, mode bits, size)
// at path: the one create body behind Mkdir and Create. Its lock phase is the
// parent's shared lock, taken with the resolve; the child's exclusive lock is
// the insert's own, parent before child. The insert finds out for itself
// whether the name is free: two racing creators serialize on the row lock at
// the chain's head, and the loser's Prepare is refused there with the winner's
// row in place.
func (nn *NameNode) createChild(p *sim.Proc, path string, proto Inode) (*Inode, error) {
	var created *Inode
	err := nn.op(p, path, opRules{root: ErrExists}, func(tx ndb.Tx, fp fsPath, sc *opScratch) error {
		chain, err := nn.resolveParentChain(tx, sc, fp)
		if err != nil {
			return err
		}
		parent := chain[len(chain)-1]
		// The new inode's id names the shard of its own row, so what it
		// keys — children, inline payload, quota rows — lives there too.
		table, pk, key := nn.rowOf(sc, parent.ID, fp.name())
		ino := proto
		ino.ID, ino.Parent, ino.Name = nn.ns.nextID(nn.ns.router.ShardOfTable(table)), parent.ID, fp.name()
		ino.Owner, ino.Mtime = "hdfs", p.Now()
		if !ino.Dir && ino.Size <= smallFileThreshold {
			ino.InlineSize = ino.Size
		}
		created = &ino
		// The inode row, the inline small-file payload (§II-A3), and any
		// quota charges execute as one batched write — one Prepare pass and
		// one commit train per replica chain (a single-row batch is exactly
		// a plain insert).
		items := append(sc.writes[:0], ndb.BatchWrite{Table: table, PartKey: pk, Key: key, Val: created, IfAbsent: true})
		if ino.InlineSize > 0 {
			table, pk := partOf(nn.ns.smallfiles, ino.ID)
			items = append(items, ndb.BatchWrite{Table: table, PartKey: pk, Key: smallFileKey, Val: ino.InlineSize})
		}
		sc.writes = nn.quotaCharges(items, chain, "c", ino.ID, 1, ino.Size)
		err = tx.WriteBatch(sc.writes)
		if errors.Is(err, ndb.ErrRowExists) {
			return ErrExists
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return created, nil
}

// Stat returns a file or directory's metadata (read-committed, lock-free).
func (nn *NameNode) Stat(p *sim.Proc, path string) (*Inode, error) {
	var out *Inode
	err := nn.op(p, path, opRules{}, func(tx ndb.Tx, fp fsPath, sc *opScratch) error {
		chain, err := nn.resolveChain(tx, sc, fp, 0)
		if err != nil {
			return err
		}
		out = chain[len(chain)-1]
		return nil
	})
	return out, err
}

// GetBlockLocations is the read-file metadata operation: ancestors are read
// committed, the target inode is share-locked to guarantee the freshest
// block list (locked reads always go to the primary replica, §II-B2). The
// lock rides the resolve: on warm hints the whole lock phase is one round.
func (nn *NameNode) GetBlockLocations(p *sim.Proc, path string) (*Inode, error) {
	var out *Inode
	err := nn.op(p, path, opRules{root: ErrIsDir}, func(tx ndb.Tx, fp fsPath, sc *opScratch) error {
		chain, err := nn.resolveChain(tx, sc, fp, ndb.LockShared)
		if err != nil {
			return err
		}
		ino := chain[len(chain)-1]
		if ino.Dir {
			return ErrIsDir
		}
		if ino.InlineSize > 0 {
			// Small files are served straight from NDB (§II-A3): fetch the
			// inline payload row alongside the metadata.
			table, pk := partOf(nn.ns.smallfiles, ino.ID)
			sc.gets = append(sc.gets[:0], ndb.BatchGet{Table: table, PartKey: pk, Key: smallFileKey})
			if _, err := tx.ReadBatch(sc.gets); err != nil {
				return err
			}
		}
		out = ino
		return nil
	})
	return out, err
}

// List returns a directory's children, name-sorted. The directory is
// share-locked by the resolve ("/" cannot go away and is not locked); the
// children are listed by listChildren, as one level of a subtree walk.
func (nn *NameNode) List(p *sim.Proc, path string) ([]*Inode, error) {
	var out []*Inode
	err := nn.op(p, path, opRules{children: true}, func(tx ndb.Tx, fp fsPath, sc *opScratch) error {
		chain, err := nn.resolveChain(tx, sc, fp, ndb.LockShared)
		if err != nil {
			return err
		}
		if !chain[len(chain)-1].Dir {
			return ErrNotDir
		}
		out, err = nn.listChildren(tx, sc, chain[len(chain)-1:])
		return err
	})
	if err != nil {
		return nil, err
	}
	nn.cpu.UseDeferred(p, time.Duration(len(out))*nn.ns.cfg.Costs.PerListEntry)
	return out, nil
}

// Delete removes a file or directory. Non-recursive deletes of non-empty
// directories fail with ErrNotEmpty. It returns the block ids freed so the
// caller can reclaim them in the block layer after the commit.
//
// The parent chain resolves with the parent share-locked in its batch — the
// parent must keep existing — and then the target's own delete is prepared:
// its exclusive lock is taken at its chain's head, parent before child, and
// the head answers with the pre-image. What the pre-image says — a
// directory, blocks, an inline payload, quota rows — follows in
// deleteSubtree, in the same transaction.
func (nn *NameNode) Delete(p *sim.Proc, path string, recursive bool) ([]blocks.BlockID, error) {
	var freed []blocks.BlockID
	err := nn.op(p, path, opRules{root: ErrInvalidPath}, func(tx ndb.Tx, fp fsPath, sc *opScratch) error {
		freed = freed[:0]
		chain, err := nn.resolveParentChain(tx, sc, fp)
		if err != nil {
			return err
		}
		sc.edit = inodeEdit{kind: editDelete}
		if err := nn.writeEdited(tx, sc, chain[len(chain)-1].ID, fp.name()); err != nil {
			return err
		}
		target := sc.edit.pre
		sc.unlinkedDir = target.Dir
		return nn.deleteSubtree(tx, sc, chain, target, recursive, &freed)
	})
	if err != nil {
		return nil, err
	}
	return freed, nil
}

// writeEdited writes name's inode row under parent with sc.edit — an
// update, or for editDelete the row's delete — in one batch with also, and
// answers ErrNotFound when the chain's head finds the row absent.
func (nn *NameNode) writeEdited(tx ndb.Tx, sc *opScratch, parent uint64, name string, also ...ndb.BatchWrite) error {
	w := nn.inodeDelete(sc, parent, name)
	w.Del, w.Val, w.Edit = sc.edit.kind == editDelete, &sc.edit, true
	sc.writes = append(append(sc.writes[:0], w), also...)
	err := tx.WriteBatch(sc.writes)
	if errors.Is(err, ndb.ErrRowAbsent) {
		return ErrNotFound
	}
	return err
}

// deleteSubtree removes what a delete's prepared target row leaves behind:
// the target's inline payload or quota records, and (recursively) its
// children, within the same transaction — HopsFS's atomic subtree delete.
// The tree is discovered level by level, each level's directory listings
// fetched in one batched fan-out (ScanBatch) and its children exclusively
// locked as found. Every lock is then held, so the rows of all levels —
// inode rows, inline small-file payloads, the quota records of dying quota'd
// directories — and the one aggregate negative charge to the quota'd
// ancestors execute as a single batched write: one Prepare pass per replica
// chain whatever the subtree's depth, and none when nothing is left to
// remove. ancestors is the resolved chain above target.
func (nn *NameNode) deleteSubtree(tx ndb.Tx, sc *opScratch, ancestors []*Inode, target *Inode, recursive bool, freed *[]blocks.BlockID) error {
	doomed := []*Inode{target}
	var level []*Inode
	if target.Dir {
		level = append(level, target)
	}
	top := true
	for len(level) > 0 {
		children, err := nn.listChildren(tx, sc, level)
		if err != nil {
			return err
		}
		if top && len(children) > 0 && !recursive {
			return ErrNotEmpty
		}
		var next []*Inode
		for _, child := range children {
			if _, err := nn.getInode(tx, sc, child.Parent, child.Name, ndb.LockExclusive); err != nil {
				return err
			}
			doomed = append(doomed, child)
			if child.Dir {
				next = append(next, child)
			}
		}
		top = false
		level = next
	}
	var count, bytes int64
	items := sc.writes[:0]
	for i, ino := range doomed {
		*freed = append(*freed, ino.Blocks...)
		count++
		bytes += ino.Size
		if i > 0 {
			items = append(items, nn.inodeDelete(sc, ino.Parent, ino.Name))
		}
		if ino.InlineSize > 0 {
			table, pk := partOf(nn.ns.smallfiles, ino.ID)
			items = append(items, ndb.BatchWrite{Table: table, PartKey: pk, Key: smallFileKey, Del: true})
		}
		if ino.Dir && (ino.QuotaNS != 0 || ino.QuotaSS != 0) {
			// A dying quota'd directory takes its quota records with it:
			// the authoritative row plus its accumulated usage updates.
			quotas, pk := partOf(nn.ns.quotas, ino.ID)
			items = append(items, ndb.BatchWrite{Table: quotas, PartKey: pk, Key: quotaRecordKey, Del: true})
			kvs, err := tx.ScanBatch([]ndb.BatchScan{{Table: quotas, PartKey: pk, Prefix: quotaUpdatePrefix}})
			if err != nil {
				return err
			}
			for _, kv := range kvs[0] {
				items = append(items, ndb.BatchWrite{Table: quotas, PartKey: pk, Key: kv.Key, Del: true})
			}
		}
	}
	// One aggregate negative charge for the whole subtree, keyed by the
	// delete target so repeated deletes under one quota never collide.
	sc.writes = nn.quotaCharges(items, ancestors, "d", target.ID, -count, -bytes)
	return tx.WriteBatch(sc.writes)
}

// Rename atomically moves src to dst — the operation object stores cannot
// provide (§I). It runs in the common template but brings its own lock
// phase: two rows, locked in (shard, partition, row key) order to avoid
// deadlocks between concurrent renames.
func (nn *NameNode) Rename(p *sim.Proc, src, dst string) error {
	dfp, err := splitPath(dst)
	if err != nil {
		return err
	}
	if dfp.depth() == 0 {
		return ErrInvalidPath
	}
	return nn.op(p, src, opRules{root: ErrInvalidPath, dst: dfp}, func(tx ndb.Tx, sfp fsPath, sc *opScratch) error {
		// The source resolves with its own inode, in the destination parent's
		// batch; it is read here only to fail early and is read again under
		// its lock.
		srcChain, dstChain, err := nn.resolveBoth(tx, sc, sfp, dfp.parent())
		if err != nil {
			return err
		}
		srcParent, srcName := srcChain[len(srcChain)-2], sfp.name()
		dstParent, dstName := dstChain[len(dstChain)-1], dfp.name()
		if !dstParent.Dir {
			return ErrNotDir
		}
		// Deterministic lock order over the two rows: shard first, so two
		// cross-shard renames over the same pair of shards open their
		// sub-transactions — and take their locks — in the same order; then
		// partition key, then row key.
		unlink := nn.inodeDelete(sc, srcParent.ID, srcName)
		link := nn.inodeDelete(sc, dstParent.ID, dstName)
		before := func(a, b *ndb.BatchWrite) bool {
			if sa, sb := nn.ns.inodes.Shard(a.PartKey), nn.ns.inodes.Shard(b.PartKey); sa != sb {
				return sa < sb
			}
			if a.PartKey != b.PartKey {
				return a.PartKey < b.PartKey
			}
			return a.Key < b.Key
		}
		order := [2]*ndb.BatchWrite{&unlink, &link}
		if before(&link, &unlink) {
			order = [2]*ndb.BatchWrite{&link, &unlink}
		}
		// The locked reads — one one-row batch each, so the locks are taken in
		// that order — return what the rows hold under their locks: that is
		// the re-validation, and nothing is read after it.
		for _, row := range order {
			sc.gets = append(sc.gets[:0], ndb.BatchGet{Table: row.Table, PartKey: row.PartKey, Key: row.Key, Lock: ndb.LockExclusive})
			vals, err := tx.ReadBatch(sc.gets)
			if err != nil {
				return err
			}
			row.Val = vals[0].Val
		}
		srcIno, err := nn.asInode(tx, unlink.Val)
		if err != nil {
			return err
		}
		// Cycle check: the destination's ancestor chain must not contain
		// the source inode.
		for _, anc := range dstChain {
			if anc.ID == srcIno.ID {
				return ErrCycle
			}
		}
		if link.Val != nil {
			return ErrExists
		}
		sc.unlinkedDir = srcIno.Dir
		moved := *srcIno
		moved.Parent = dstParent.ID
		moved.Name = dstName
		moved.Mtime = p.Now()
		// The unlink and the relink execute as one batched write and — when
		// both rows land on the same replica chain — prepare and commit as
		// one train.
		// An inline payload row is keyed by the file's own inode id, so it
		// moves with the file untouched. Quota usage is not migrated across
		// quota boundaries (see quota.go).
		unlink.Val = nil
		link.Val, link.Del = &moved, false
		sc.writes = append(sc.writes[:0], unlink, link)
		return tx.WriteBatch(sc.writes)
	})
}

// SetPermission updates an inode's mode bits.
func (nn *NameNode) SetPermission(p *sim.Proc, path string, perm uint16) error {
	return nn.updateInode(p, path, inodeEdit{kind: editPerm, perm: perm})
}

// SetOwner updates an inode's owner.
func (nn *NameNode) SetOwner(p *sim.Proc, path, owner string) error {
	return nn.updateInode(p, path, inodeEdit{kind: editOwner, owner: owner})
}

// AttachBlocks records the block list of a large file after the client has
// written the blocks through the block layer (the create/addBlock/complete
// protocol collapsed into one metadata update).
func (nn *NameNode) AttachBlocks(p *sim.Proc, path string, ids []blocks.BlockID, size int64) error {
	return nn.updateInode(p, path, inodeEdit{kind: editBlocks, blocks: append([]blocks.BlockID(nil), ids...), size: size})
}

// updateInode rewrites one inode: the path resolves lock-free — under Read
// Backup every row of it is read in the coordinator's AZ — and the inode row
// is written with edit, which the row's chain head applies to the committed
// inode under the exclusive lock it takes there. SetQuota's authoritative
// quota record, keyed by the resolved id the head checks, rides the same
// batched write.
func (nn *NameNode) updateInode(p *sim.Proc, path string, edit inodeEdit) error {
	return nn.op(p, path, opRules{root: ErrInvalidPath}, func(tx ndb.Tx, fp fsPath, sc *opScratch) error {
		chain, err := nn.resolveChain(tx, sc, fp, 0)
		if err != nil {
			return err
		}
		target := chain[len(chain)-1]
		sc.edit = edit
		sc.edit.id, sc.edit.mtime = target.ID, p.Now()
		if edit.kind != editQuota {
			return nn.writeEdited(tx, sc, target.Parent, target.Name)
		}
		if !target.Dir {
			return ErrNotDir
		}
		return nn.writeEdited(tx, sc, target.Parent, target.Name, nn.quotaRecordWrite(target.ID, edit.nsQuota, edit.ssQuota))
	})
}

// ContentSummary walks a subtree inside one transaction and returns its
// file count, directory count (including the root of the walk), and total
// logical bytes — HDFS's getContentSummary. Reads are read-committed; like
// HDFS, the summary is a consistent-enough snapshot, not a serialized one.
func (nn *NameNode) ContentSummary(p *sim.Proc, path string) (files, dirs int, size int64, err error) {
	err = nn.op(p, path, opRules{}, func(tx ndb.Tx, fp fsPath, sc *opScratch) error {
		files, dirs, size = 0, 0, 0
		chain, err := nn.resolveChain(tx, sc, fp, 0)
		if err != nil {
			return err
		}
		return nn.summarize(tx, sc, chain[len(chain)-1:], &files, &dirs, &size)
	})
	if err != nil {
		return 0, 0, 0, err
	}
	return files, dirs, size, nil
}

// summarize accumulates the subtree's file/dir counts and byte total,
// walking the tree level by level from the one-inode level top.
func (nn *NameNode) summarize(tx ndb.Tx, sc *opScratch, top []*Inode, files, dirs *int, size *int64) error {
	if root := top[0]; !root.Dir {
		*files++
		*size += root.Size
		return nil
	}
	for level := top; len(level) > 0; {
		*dirs += len(level)
		children, err := nn.listChildren(tx, sc, level)
		if err != nil {
			return err
		}
		var next []*Inode
		for _, child := range children {
			if child.Dir {
				next = append(next, child)
			} else {
				*files++
				*size += child.Size
			}
		}
		level = next
	}
	return nil
}

// listChildren lists the directories of one level of a subtree walk — or
// the one directory List lists — returning their children in directory
// order, each directory's name-sorted (a child's Parent names its
// directory): one batched fan-out (ScanBatch) for the whole level, so a level
// costs one parallel round instead of one round trip per directory. Only "/"
// is listed on its own — it is a level of its own, nothing else has depth 0 —
// and by table scan: its children are deliberately scattered across
// partitions (see partKeyOf). The listing is the one allocation of its own.
func (nn *NameNode) listChildren(tx ndb.Tx, sc *opScratch, dirs []*Inode) ([]*Inode, error) {
	if dirs[0].ID == RootID {
		kvs, err := tx.ScanTablePrefix(nn.ns.inodes.At(0), inodeKey(RootID, ""))
		if err != nil {
			return nil, err
		}
		return appendChildren(nil, kvs, dirs[0]), nil
	}
	sc.scans = sc.scans[:0]
	for _, dir := range dirs {
		// A directory's children share the partition "<id>" and the row-key
		// prefix "<id>/", which its hint entry holds ready-made.
		prefix := ""
		for _, e := range sc.dirs {
			if e.id == dir.ID {
				prefix = e.childPrefix
			}
		}
		if prefix == "" {
			prefix = inodeKey(dir.ID, "")
		}
		pk := prefix[:len(prefix)-1]
		sc.scans = append(sc.scans, ndb.BatchScan{Table: nn.ns.inodes.For(pk), PartKey: pk, Prefix: prefix})
	}
	results, err := tx.ScanBatch(sc.scans)
	if err != nil {
		return nil, err
	}
	rows := 0
	for _, kvs := range results {
		rows += len(kvs)
	}
	var out []*Inode
	if rows > 0 {
		out = make([]*Inode, 0, rows)
	}
	for i, kvs := range results {
		out = appendChildren(out, kvs, dirs[i])
	}
	return out, nil
}

// appendChildren appends the inodes of one directory listing to out.
func appendChildren(out []*Inode, kvs []ndb.KV, dir *Inode) []*Inode {
	for _, kv := range kvs {
		if ino, ok := kv.Val.(*Inode); ok && ino.Parent == dir.ID {
			out = append(out, ino)
		}
	}
	return out
}
