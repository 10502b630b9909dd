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
// backing its chains are carved from, and the partition key it built last
// outside the hint cache. Nothing in it is reachable after op returns: what
// an operation returns or stores is never carved from it.
type opScratch struct {
	next   *opScratch // in the NN's pool
	ids    []uint64
	dirs   []*hintEntry
	gets   []ndb.BatchGet
	vals   []ndb.BatchVal
	scans  []ndb.BatchScan
	writes []ndb.BatchWrite
	chains []*Inode
	// pk is partKey(pkDir), the partition of pkDir's children, when pk is set.
	pkDir uint64
	pk    string
	// edit is the change the operation's write asks its target row's chain
	// head to make; the write carries a pointer to it.
	edit inodeEdit
	// parentFirst is set by a mutation whose one-round attempt found its
	// parent's lock busy (a create, a delete or a rename): its retries read
	// the parent before they write (writeBesideParent).
	parentFirst bool
	// unlinkedDir is set by the body of an operation whose success removes
	// the target's name (Delete, Rename), under the target's lock, when the
	// inode it unlinks is a directory: the hints under the name (and under
	// dst) are then dropped after the commit.
	unlinkedDir bool
}

// inodeEdit is the ndb.Editor of an operation on one existing inode: the
// change its write asks the chain's head to make to the committed inode,
// under the exclusive lock taken there, so two updates of one inode never
// lose each other's change and an update that loses to a delete answers
// ErrNotFound. An update addressed by path alone (id 0: setPermission,
// setOwner) takes whichever inode holds the name under the lock; one aimed
// at an inode (id: an attach's file, SetQuota's resolved directory) answers
// ErrNotFound when another holds the name. A delete resolves only the
// parent; its edit takes any inode and returns the pre-image (pre), which
// tells the operation what else to remove. A move
// (Rename's unlink) writes a copy of the inode its resolve found (pre), so
// its edit takes that very value and no other: inode values are immutable
// and every write installs a new one, so any change since the resolve is
// caught here and the attempt is retried (errMoved); it returns nothing,
// as the rename already holds the value it confirms.
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

// editKind names the field an update sets, or a delete or a move's unlink.
type editKind uint8

const (
	editDelete editKind = iota
	editMove
	editPerm
	editOwner
	editBlocks
	editQuota
)

// Edit applies the edit to the committed inode (ndb.Editor).
func (e *inodeEdit) Edit(committed ndb.Value) (ndb.Value, error) {
	ino := committed.(*Inode)
	switch e.kind {
	case editDelete:
		e.pre = ino
		return ino, nil
	case editMove:
		if ino != e.pre {
			return nil, errMoved
		}
		return nil, nil
	}
	if (e.id != 0 && ino.ID != e.id) || (e.kind == editBlocks && ino.Dir) {
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
		return e.children
	}
	// Unresolved directory: hint with the top-level component's partition,
	// which names the shard of the whole subtree below it.
	return partKeyOf(RootID, fp.comp(0))
}

// rowOf addresses name's inode row under the directory parent, as inodeRow
// does: below the root by parent's children partition (childPart) and the
// name, a substring of the operation's path; a child of "/" by its own entry.
func (nn *NameNode) rowOf(sc *opScratch, parent uint64, name string) (*ndb.Table, string, string) {
	if parent == RootID {
		for _, e := range sc.dirs {
			if e.parent == RootID && e.name() == name {
				return nn.ns.inodes.For(e.partKey), e.partKey, e.key
			}
		}
		return nn.ns.inodeRow(parent, name)
	}
	pk := sc.childPart(parent)
	return nn.ns.inodes.For(pk), pk, name
}

// childPart is the partition key of dir's children: from dir's hint entry
// when the operation's batches were keyed from it, else built once for the
// operation's consecutive rows under dir (an update's read and write).
func (sc *opScratch) childPart(dir uint64) string {
	for _, e := range sc.dirs {
		if e.id == dir {
			return e.children
		}
	}
	if sc.pk == "" || sc.pkDir != dir {
		sc.pkDir, sc.pk = dir, partKey(dir)
	}
	return sc.pk
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
// own, so the order the two-lock operations rely on (parent before child)
// is that of their sequential calls, untouched. A
// lock taken on stale hints sits on a row the verification then rejects (or
// on the right row by luck): the serial re-walk locks the committed row in
// the same transaction, which so holds a superset of the locks it needs
// until it ends — strict two-phase locking, no retry path of its own.
func (nn *NameNode) resolveChain(tx ndb.Tx, sc *opScratch, fp fsPath, lockLast ndb.LockMode) ([]*Inode, error) {
	if fp.depth() > 1 {
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
	} else if len(ids) == fp.depth() {
		// The operated-on inode counts as touched, as it does when the
		// serial walk's getInode reads it.
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
// resolve, refreshing the hints with it. ids may hold one id more than vals:
// the parent a mutation's write was keyed by, which the last row read must
// then be. ok=false means a link failed to verify: the hints were stale and
// the values are worthless; the chain returned is then the verified part,
// whose next component's hint is the first stale one. When all links
// verify, errors are authoritative: a missing row below a verified parent is
// exactly the ErrNotFound the serial walk would have returned, and a
// non-directory interior component is ErrNotDir.
func (nn *NameNode) verifyHinted(tx ndb.Tx, sc *opScratch, fp *fsPath, ids []uint64, vals []ndb.BatchVal) ([]*Inode, bool, error) {
	obs := nn.ns.obs
	depth, rows := fp.depth(), len(vals)
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
		// A row read by its key carries that key's parent and name.
		ino := vals[i].Val.(*Inode)
		if i+1 < len(ids) && ino.ID != ids[i+1] {
			// The path component exists but is not the inode the cache
			// promised (renamed away and recreated): every row below was
			// keyed off a stale id, so the batch is worthless.
			obs.resolveFallback.Add(1)
			return chain, false, nil
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
// The source's own row is read under srcLock when that is set, the
// destination's parent under none.
func (nn *NameNode) resolveBoth(tx ndb.Tx, sc *opScratch, src, dstParent fsPath, srcLock ndb.LockMode) (srcChain, dstChain []*Inode, err error) {
	sc.ids = sc.ids[:0]
	sids, dids := nn.hintedIDs(sc, &src), nn.hintedIDs(sc, &dstParent)
	if len(dids) == 0 || len(sids) < src.depth() || len(dids) < dstParent.depth() {
		if srcChain, err = nn.resolveChain(tx, sc, src, srcLock); err == nil {
			dstChain, err = nn.resolveChain(tx, sc, dstParent, 0)
		}
		return srcChain, dstChain, err
	}
	sc.gets = nn.hintedGets(sc, nn.hintedGets(sc, sc.gets[:0], &src, sids), &dstParent, dids)
	sc.gets[len(sids)-1].Lock = srcLock
	vals, err := tx.ReadBatch(sc.gets)
	if err != nil {
		return nil, nil, err
	}
	// The values may live in the transaction until its next read, and a
	// stale source re-walks — reads — before the destination is settled:
	// keep the destination's share in the scratch.
	sc.vals = append(sc.vals[:0], vals[len(sids):]...)
	if srcChain, err = nn.settle(tx, sc, src, sids, vals[:len(sids)], srcLock); err == nil {
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

// Mkdir creates a directory and returns its inode. The parent is
// share-locked (it must keep existing), the new child row is exclusively
// locked by the insert.
func (nn *NameNode) Mkdir(p *sim.Proc, path string, perm uint16) (*Inode, error) {
	return nn.createChild(p, path, Inode{Dir: true, Perm: perm})
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
// the insert's own. The insert finds out for itself whether the name is
// free: two racing creators serialize on the row lock at the chain's head,
// and the loser's Prepare is refused there with the winner's row in place.
// When the hints reach the parent, the resolve and the insert are one round
// (mutateHinted), and a quota'd ancestor's charge follows in a write of its
// own, as it depends on the verified chain; otherwise the parent chain
// resolves first, parent before child.
func (nn *NameNode) createChild(p *sim.Proc, path string, proto Inode) (*Inode, error) {
	var created *Inode
	err := nn.op(p, path, opRules{root: ErrExists}, func(tx ndb.Tx, fp fsPath, sc *opScratch) error {
		if ids := nn.hintedParent(sc, &fp); ids != nil {
			created = nn.newChild(sc, fp, ids[len(ids)-1], &proto, tx.Now())
			chain, err := nn.mutateHinted(tx, sc, fp, ids, ndb.LockShared)
			if err != nil {
				return err
			}
			sc.writes = nn.quotaCharges(sc.writes[:0], chain, "c", created.ID, 1, created.Size)
			return tx.WriteBatch(sc.writes)
		}
		chain, err := nn.resolveParentChain(tx, sc, fp)
		if err != nil {
			return err
		}
		// The inode row, the inline small-file payload (§II-A3), and any
		// quota charges execute as one batched write — one Prepare pass and
		// one commit train per replica chain (a single-row batch is exactly
		// a plain insert).
		created = nn.newChild(sc, fp, chain[len(chain)-1].ID, &proto, tx.Now())
		sc.writes = nn.quotaCharges(sc.writes, chain, "c", created.ID, 1, created.Size)
		return refusal(tx.WriteBatch(sc.writes))
	})
	if err != nil {
		return nil, err
	}
	return created, nil
}

// newChild builds the inode a create inserts as fp's last component under
// the directory parent and loads sc.writes with its rows: the inode row,
// refused if the name is taken, and an inline small file's payload row.
func (nn *NameNode) newChild(sc *opScratch, fp fsPath, parent uint64, proto *Inode, now time.Duration) *Inode {
	// The new inode's id names the partition of its own row, so what it
	// keys — children, inline payload, quota rows — lives there too.
	table, pk, key := nn.rowOf(sc, parent, fp.name())
	ino := *proto
	ino.ID, ino.Parent, ino.Name = nn.ns.nextID(table, pk), parent, fp.name()
	ino.Owner, ino.Mtime = "hdfs", now
	if !ino.Dir && ino.Size <= smallFileThreshold {
		ino.InlineSize = ino.Size
	}
	sc.writes = append(sc.writes[:0], ndb.BatchWrite{Table: table, PartKey: pk, Key: key, Val: &ino, IfAbsent: true})
	if ino.InlineSize > 0 {
		table, pk := partOf(nn.ns.smallfiles, ino.ID)
		sc.writes = append(sc.writes, ndb.BatchWrite{Table: table, PartKey: pk, Key: smallFileKey, Val: ino.InlineSize})
	}
	return &ino
}

// hintedParent returns the cached ids that key every row of fp, the last
// its parent's id, when they reach that far, so that a mutation may key its
// write by them and send it with its resolve (mutateHinted); nil otherwise.
func (nn *NameNode) hintedParent(sc *opScratch, fp *fsPath) []uint64 {
	if fp.depth() < 2 {
		return nil
	}
	sc.ids = sc.ids[:0]
	if ids := nn.hintedIDs(sc, fp); len(ids) == fp.depth() {
		return ids
	}
	return nil
}

// mutateHinted is the one storage round of a single-name mutation whose
// hints prime its whole parent chain (hintedParent): the chain's rows — the
// parent's under lock, a create's or a delete's share lock, none for an
// update — go out with sc.writes, the mutation's prepared write keyed by the
// hinted parent id (writeBesideParent), and the chain is verified, and
// returned, when the round returns. The resolve's verdict comes first: stale
// hints — the parent not being the inode the write was keyed by included —
// drop what they got wrong and refuse the attempt (errStaleHints), to be
// retried without them; a missing or non-directory component answers as the
// resolve would have; only then does the write's refusal answer.
func (nn *NameNode) mutateHinted(tx ndb.Tx, sc *opScratch, fp fsPath, ids []uint64, lock ndb.LockMode) ([]*Inode, error) {
	parent := len(ids) - 1
	pfp := fp.parent()
	sc.gets = nn.hintedGets(sc, sc.gets[:0], &pfp, ids[:parent])
	sc.gets[parent-1].Lock = lock
	var chain []*Inode
	err := nn.writeBesideParent(tx, sc, func(vals []ndb.BatchVal) error {
		var ok bool
		var err error
		if chain, ok, err = nn.verifyHinted(tx, sc, &fp, ids, vals); !ok {
			nn.cache.invalidatePrefix(fp.prefix(len(chain)))
			return errStaleHints
		}
		if err == nil && lock != 0 {
			// The parent counts as touched, as the locked read of a
			// resolve's last component counts it.
			nn.ns.heat.TouchInode(tx.Now(), ids[parent])
		}
		return err
	})
	return chain, err
}

// writeBesideParent is the round in which a mutation writes sc.writes and
// reads sc.gets, among them its parent's row under the share lock that keeps
// the parent existing until the write commits. Both go out in one batch,
// and the locks come in no order of their own (DESIGN §9), so the batch
// never waits for the parent while it may hold a row it writes: a parent
// lock that cannot be granted at once refuses the batch (ndb.ErrLockBusy)
// and sets parentFirst, and the retry reads first — queueing for the
// parent as a resolve does — and writes after, as a mutation that resolved
// first would. check judges the gets' values; only then does the write's
// refusal answer (refusal).
func (nn *NameNode) writeBesideParent(tx ndb.Tx, sc *opScratch, check func(vals []ndb.BatchVal) error) error {
	if sc.parentFirst {
		vals, err := tx.ReadBatch(sc.gets)
		if err == nil {
			err = check(vals)
		}
		if err != nil {
			return err
		}
		return refusal(tx.WriteBatch(sc.writes))
	}
	vals, werr := tx.ReadWriteBatch(sc.gets, sc.writes)
	if vals == nil {
		sc.parentFirst = errors.Is(werr, ndb.ErrLockBusy)
		return werr
	}
	if err := check(vals); err != nil {
		return err
	}
	return refusal(werr)
}

// refusal is what a write refused at its chain's head answers: ErrExists for
// a taken name, ErrNotFound for an absent one; any other error is itself.
func refusal(err error) error {
	switch {
	case errors.Is(err, ndb.ErrRowExists):
		return ErrExists
	case errors.Is(err, ndb.ErrRowAbsent):
		return ErrNotFound
	}
	return err
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

// GetBlockLocations is the read-file metadata operation. Like Stat it is
// read committed and takes no lock (DESIGN §9.1), so under Read Backup every
// row it reads is served in the coordinator's AZ: on warm hints it is one
// round.
func (nn *NameNode) GetBlockLocations(p *sim.Proc, path string) (*Inode, error) {
	var out *Inode
	err := nn.op(p, path, opRules{root: ErrIsDir}, func(tx ndb.Tx, fp fsPath, sc *opScratch) error {
		chain, err := nn.resolveChain(tx, sc, fp, 0)
		if err != nil {
			return err
		}
		ino := chain[len(chain)-1]
		if ino.Dir {
			return ErrIsDir
		}
		if ino.InlineSize > 0 {
			// Small files are served straight from NDB (§II-A3): fetch the
			// inline payload row alongside the metadata. A payload gone by
			// then went with a delete of the file that committed in between.
			table, pk := partOf(nn.ns.smallfiles, ino.ID)
			sc.gets = append(sc.gets[:0], ndb.BatchGet{Table: table, PartKey: pk, Key: smallFileKey})
			vals, err := tx.ReadBatch(sc.gets)
			if err != nil {
				return err
			}
			if !vals[0].OK {
				return ErrNotFound
			}
		}
		out = ino
		return nil
	})
	return out, err
}

// Listing is a directory's children, name-sorted: a read-only window onto
// the directory partition's key-sorted snapshot, into which no later commit
// writes, so a listing reads the same after its directory changes. The
// root's listing, gathered by table scan, is a copy of its own.
type Listing struct{ kvs []ndb.KV }

// Len returns the number of children.
func (l Listing) Len() int { return len(l.kvs) }

// At returns the i-th child.
func (l Listing) At(i int) *Inode { return l.kvs[i].Val.(*Inode) }

// List returns a directory's children. The resolve is read committed and
// takes no lock (DESIGN §9.1); the children are listed by listChildren, as one
// level of a subtree walk, from the snapshot of the directory's partition.
func (nn *NameNode) List(p *sim.Proc, path string) (Listing, error) {
	var out Listing
	err := nn.op(p, path, opRules{children: true}, func(tx ndb.Tx, fp fsPath, sc *opScratch) error {
		chain, err := nn.resolveChain(tx, sc, fp, 0)
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
		return Listing{}, err
	}
	nn.cpu.UseDeferred(p, time.Duration(out.Len())*costPerListEntry)
	return out, nil
}

// Delete removes a file or directory. Non-recursive deletes of non-empty
// directories fail with ErrNotEmpty. It returns the block ids freed so the
// caller can reclaim them in the block layer after the commit.
//
// The parent chain resolves with the parent share-locked — the parent must
// keep existing — and the target's own delete is prepared: its exclusive
// lock is taken at its chain's head, and the head answers with the
// pre-image. When the hints reach the parent the two share one round
// (mutateHinted); otherwise the delete follows the resolve, parent before
// child. What the pre-image says — a directory, blocks, an inline payload,
// quota rows — follows in deleteSubtree, in the same transaction.
func (nn *NameNode) Delete(p *sim.Proc, path string, recursive bool) ([]blocks.BlockID, error) {
	var freed []blocks.BlockID
	err := nn.op(p, path, opRules{root: ErrInvalidPath}, func(tx ndb.Tx, fp fsPath, sc *opScratch) error {
		freed = freed[:0]
		sc.edit = inodeEdit{kind: editDelete}
		var chain []*Inode
		var err error
		if ids := nn.hintedParent(sc, &fp); ids != nil {
			sc.writes = append(sc.writes[:0], nn.editWrite(sc, ids[len(ids)-1], fp.name()))
			chain, err = nn.mutateHinted(tx, sc, fp, ids, ndb.LockShared)
		} else if chain, err = nn.resolveParentChain(tx, sc, fp); err == nil {
			err = nn.writeEdited(tx, sc, chain[len(chain)-1].ID, fp.name())
		}
		if err != nil {
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

// editWrite is the batched-write item that writes name's inode row under
// parent with sc.edit — an update, or for editDelete and editMove the row's
// delete.
func (nn *NameNode) editWrite(sc *opScratch, parent uint64, name string) ndb.BatchWrite {
	w := nn.inodeDelete(sc, parent, name)
	w.Del, w.Val, w.Edit = sc.edit.kind <= editMove, &sc.edit, true
	return w
}

// writeEdited writes editWrite in one batch with also, and answers the
// head's refusal (refusal).
func (nn *NameNode) writeEdited(tx ndb.Tx, sc *opScratch, parent uint64, name string, also ...ndb.BatchWrite) error {
	sc.writes = append(append(sc.writes[:0], nn.editWrite(sc, parent, name)), also...)
	return refusal(tx.WriteBatch(sc.writes))
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
		if top && children.Len() > 0 && !recursive {
			return ErrNotEmpty
		}
		var next []*Inode
		for i := range children.Len() {
			child, err := nn.getInode(tx, sc, children.At(i).Parent, children.At(i).Name, ndb.LockExclusive)
			if errors.Is(err, ErrNotFound) {
				continue
			}
			if err != nil {
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
// provide (§I). It resolves both paths lock-free and writes its two rows in
// one batch, each taking its exclusive lock at its chain's head in the one
// Prepare pass: the source's delete as a move, whose edit confirms the
// resolved inode is still the committed one, and the destination's insert,
// refused if the name is taken. The destination's parent must keep
// existing until the insert commits, as a create's parent must, so the same
// batch reads it under a share lock (writeBesideParent); a parent that is no
// longer the one resolved refuses the attempt (errMoved). A recursive delete
// of a common ancestor locks the source and the destination's parent in its
// walk's order (walksBefore); when the source comes first, the resolve reads
// it under its exclusive lock, so the rename never waits for its source
// while it holds the parent.
func (nn *NameNode) Rename(p *sim.Proc, src, dst string) error {
	dfp, err := splitPath(dst)
	if err != nil {
		return err
	}
	if dfp.depth() == 0 {
		return ErrInvalidPath
	}
	return nn.op(p, src, opRules{root: ErrInvalidPath, dst: dfp}, func(tx ndb.Tx, sfp fsPath, sc *opScratch) error {
		var srcLock ndb.LockMode
		if walksBefore(&sfp, dfp.parent()) {
			srcLock = ndb.LockExclusive
		}
		srcChain, dstChain, err := nn.resolveBoth(tx, sc, sfp, dfp.parent(), srcLock)
		if err != nil {
			return err
		}
		srcIno, dstParent := srcChain[len(srcChain)-1], dstChain[len(dstChain)-1]
		if !dstParent.Dir {
			return ErrNotDir
		}
		// Cycle check: the destination's ancestor chain must not contain
		// the source inode. Both read the resolve, which the move's edit
		// confirms before anything commits.
		for _, anc := range dstChain {
			if anc.ID == srcIno.ID {
				return ErrCycle
			}
		}
		sc.unlinkedDir = srcIno.Dir
		moved := *srcIno
		moved.Parent, moved.Name, moved.Mtime = dstParent.ID, dfp.name(), p.Now()
		// The unlink and the relink execute as one batched write and — when
		// both rows land on the same replica chain — prepare and commit as
		// one train. An inline payload row is keyed by the file's own inode
		// id, so it moves with the file untouched. Quota usage is not
		// migrated across quota boundaries (see quota.go).
		table, pk, key := nn.rowOf(sc, dstParent.ID, dfp.name())
		sc.edit = inodeEdit{kind: editMove, pre: srcIno}
		link := ndb.BatchWrite{Table: table, PartKey: pk, Key: key, Val: &moved, IfAbsent: true}
		if dstParent.ID == RootID {
			return nn.writeEdited(tx, sc, srcIno.Parent, srcIno.Name, link)
		}
		sc.writes = append(append(sc.writes[:0], nn.editWrite(sc, srcIno.Parent, srcIno.Name)), link)
		table, pk, key = nn.rowOf(sc, dstParent.Parent, dstParent.Name)
		sc.gets = append(sc.gets[:0], ndb.BatchGet{Table: table, PartKey: pk, Key: key, Lock: ndb.LockShared})
		return nn.writeBesideParent(tx, sc, func(vals []ndb.BatchVal) error {
			if ino, ok := vals[0].Val.(*Inode); !ok || ino.ID != dstParent.ID {
				return errMoved
			}
			return nil
		})
	})
}

// walksBefore reports whether a recursive delete of a common ancestor locks
// a before b. deleteSubtree walks level by level, each level in listing
// order — a directory's children by name, the directories in the order the
// level above listed them — so a shallower row comes first, and rows at one
// depth in the order of their first differing component.
func walksBefore(a *fsPath, b fsPath) bool {
	if a.depth() != b.depth() {
		return a.depth() < b.depth()
	}
	for i := range a.depth() {
		if x, y := a.comp(i), b.comp(i); x != y {
			return x < y
		}
	}
	return false
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
// protocol collapsed into one metadata update). It is addressed to the
// file's inode id, as HDFS's addBlock and complete carry the file id: when
// path holds another inode by then, or a directory — the file was deleted,
// or renamed away, since its create — it answers ErrNotFound.
func (nn *NameNode) AttachBlocks(p *sim.Proc, path string, id uint64, ids []blocks.BlockID, size int64) error {
	return nn.updateInode(p, path, inodeEdit{kind: editBlocks, id: id, blocks: append([]blocks.BlockID(nil), ids...), size: size})
}

// updateInode rewrites one inode: the path resolves lock-free — under Read
// Backup every row of it is read in the coordinator's AZ — and the inode row
// is written with edit, which the row's chain head applies to the committed
// inode under the exclusive lock it takes there. When the hints reach the
// parent the write goes out in the resolve's round, keyed by the hinted
// parent id (mutateHinted), and takes no other lock. SetQuota resolves its
// target first: its authoritative quota record, keyed by the resolved id the
// head checks, rides the same batched write.
func (nn *NameNode) updateInode(p *sim.Proc, path string, edit inodeEdit) error {
	return nn.op(p, path, opRules{root: ErrInvalidPath}, func(tx ndb.Tx, fp fsPath, sc *opScratch) error {
		sc.edit = edit
		if edit.kind != editQuota {
			if ids := nn.hintedParent(sc, &fp); ids != nil {
				sc.edit.mtime = p.Now()
				sc.writes = append(sc.writes[:0], nn.editWrite(sc, ids[len(ids)-1], fp.name()))
				_, err := nn.mutateHinted(tx, sc, fp, ids, 0)
				return err
			}
		}
		chain, err := nn.resolveChain(tx, sc, fp, 0)
		if err != nil {
			return err
		}
		target := chain[len(chain)-1]
		sc.edit.mtime = p.Now()
		if edit.kind != editQuota {
			return nn.writeEdited(tx, sc, target.Parent, target.Name)
		}
		if !target.Dir {
			return ErrNotDir
		}
		sc.edit.id = target.ID
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
		for i := range children.Len() {
			child := children.At(i)
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
// partitions (see partKeyOf). One directory's listing is its scan, a window
// of its partition's snapshot; a level of several is their concatenation.
func (nn *NameNode) listChildren(tx ndb.Tx, sc *opScratch, dirs []*Inode) (Listing, error) {
	if dirs[0].ID == RootID {
		kvs, err := tx.ScanTablePrefix(nn.ns.inodes.At(0), inodeKey(RootID, ""))
		return Listing{kvs}, err
	}
	sc.scans = sc.scans[:0]
	for _, dir := range dirs {
		// A directory's children are its partition's rows, all of them.
		pk := sc.childPart(dir.ID)
		sc.scans = append(sc.scans, ndb.BatchScan{Table: nn.ns.inodes.For(pk), PartKey: pk})
	}
	results, err := tx.ScanBatch(sc.scans)
	if err != nil {
		return Listing{}, err
	}
	if len(results) == 1 {
		return Listing{results[0]}, nil
	}
	return Listing{slices.Concat(results...)}, nil
}
