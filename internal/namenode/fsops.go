package namenode

import (
	"sort"
	"strconv"
	"strings"
	"time"

	"hopsfscl/internal/blocks"
	"hopsfscl/internal/ndb"
	"hopsfscl/internal/sim"
)

// splitPath validates an absolute path and returns its components.
func splitPath(path string) ([]string, error) {
	if path == "" || path[0] != '/' {
		return nil, ErrInvalidPath
	}
	if path == "/" {
		return nil, nil
	}
	parts := strings.Split(strings.Trim(path, "/"), "/")
	for _, c := range parts {
		if c == "" || c == "." || c == ".." {
			return nil, ErrInvalidPath
		}
	}
	return parts, nil
}

// hintFor computes the transaction's distribution-aware hint: the partition
// key of the target's parent directory, from the inode hint cache when
// possible (a stale hint only costs locality, never correctness).
func (nn *NameNode) hintFor(comps []string) string {
	if len(comps) == 0 {
		return partKeyOf(0, "")
	}
	if len(comps) == 1 {
		return partKeyOf(RootID, comps[0])
	}
	dir := "/" + strings.Join(comps[:len(comps)-1], "/")
	if id, ok := nn.cache.get(dir); ok {
		return partKey(id)
	}
	// Unresolved parent: hint with the top-level component's partition.
	return partKeyOf(RootID, comps[0])
}

// readInode fetches one inode row read-committed.
func (nn *NameNode) readInode(tx ndb.Tx, parent uint64, name string) (*Inode, error) {
	table, pk, key := nn.ns.inodeRow(parent, name)
	v, ok, err := tx.ReadCommitted(table, pk, key)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, ErrNotFound
	}
	ino, ok := v.(*Inode)
	if !ok {
		return nil, ErrNotFound
	}
	nn.ns.heat.TouchInode(tx.Now(), ino.ID)
	return ino, nil
}

// lockInode re-reads an inode under a row lock on the primary replica.
func (nn *NameNode) lockInode(tx ndb.Tx, parent uint64, name string, mode ndb.LockMode) (*Inode, error) {
	table, pk, key := nn.ns.inodeRow(parent, name)
	v, ok, err := tx.ReadLocked(table, pk, key, mode)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, ErrNotFound
	}
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
// not locked). When the hint cache covers a prefix of the path, the whole
// covered chain is read in one batched fan-out and verified
// (tryBatchResolve); otherwise — and whenever verification detects stale
// hints — it falls back to the serial per-component walk. Either way the
// hint cache is refreshed with what was actually read.
func (nn *NameNode) resolveChain(tx ndb.Tx, comps []string) ([]*Inode, error) {
	if !nn.ns.cfg.DisableBatchedResolve && len(comps) > 1 {
		chain, ok, err := nn.tryBatchResolve(tx, comps)
		if err != nil {
			return nil, err
		}
		if ok {
			return chain, nil
		}
	}
	chain := make([]*Inode, 1, len(comps)+1)
	chain[0] = rootInode
	return nn.walkFrom(tx, chain, comps)
}

// tryBatchResolve attempts optimistic batched resolution: it collects the
// longest contiguously cached prefix of the path, reads every covered inode
// row in a single ReadBatch, and verifies the parent/name links against
// what the cache promised. ok=false means the cache could not prime a batch
// or verification failed (stale hints) — the caller must re-walk serially;
// a stale cache only ever costs that retry, never a wrong answer. When all
// links verify, errors are authoritative: a missing row below a verified
// parent is exactly the ErrNotFound the serial walk would have returned,
// and a non-directory interior component is ErrNotDir. Any remaining
// uncovered suffix is resolved serially from the verified chain.
func (nn *NameNode) tryBatchResolve(tx ndb.Tx, comps []string) ([]*Inode, bool, error) {
	obs := nn.ns.obs
	// ids[i] is the cached inode id of the prefix comps[:i]; ids[0] is "/".
	// The prefix paths are built incrementally in one byte buffer probed
	// with byte-keyed lookups: the whole chain costs one buffer, not one
	// joined string per level.
	ids := make([]uint64, 1, len(comps)+1)
	ids[0] = RootID
	pbuf := make([]byte, 0, 96)
	for i := 1; i <= len(comps); i++ {
		pbuf = append(pbuf, '/')
		pbuf = append(pbuf, comps[i-1]...)
		id, ok := nn.cache.getBytes(pbuf)
		if !ok {
			break
		}
		ids = append(ids, id)
	}
	// Row i is keyed by (ids[i], comps[i]), so the cache primes one row
	// beyond the covered prefix. A batch of one row is just a serial read.
	rows := len(ids)
	if rows > len(comps) {
		rows = len(comps)
	}
	if rows < 2 {
		obs.miss()
		return nil, false, nil
	}
	gets := make([]ndb.BatchGet, rows)
	for i := range gets {
		g := &gets[i]
		g.Table, g.PartKey, g.Key = nn.ns.inodeRow(ids[i], comps[i])
	}
	vals, err := tx.ReadBatch(gets)
	if err != nil {
		return nil, false, err
	}
	chain := make([]*Inode, 1, len(comps)+1)
	chain[0] = rootInode
	pbuf = pbuf[:0]
	for i := 0; i < rows; i++ {
		pbuf = append(pbuf, '/')
		pbuf = append(pbuf, comps[i]...)
		if !vals[i].OK {
			// Every link above row i verified, so the parent id used to
			// key this row was the committed one: the row's absence is the
			// same ErrNotFound the serial walk would see.
			obs.hit()
			tx.Annotate("op.batched", strconv.Itoa(rows))
			return nil, true, ErrNotFound
		}
		ino, ok := vals[i].Val.(*Inode)
		if !ok || ino.Parent != ids[i] || ino.Name != comps[i] {
			// Defensive: the stored row disagrees with its own key.
			obs.fallback()
			return nil, false, nil
		}
		if i+1 < len(ids) && ino.ID != ids[i+1] {
			// The path component exists but is not the inode the cache
			// promised (renamed away and recreated): every row below was
			// keyed off a stale id, so the batch is worthless.
			obs.fallback()
			return nil, false, nil
		}
		if i < len(comps)-1 && !ino.Dir {
			obs.hit()
			tx.Annotate("op.batched", strconv.Itoa(rows))
			return nil, true, ErrNotDir
		}
		nn.cache.putBytes(pbuf, ino.ID)
		chain = append(chain, ino)
	}
	obs.hit()
	tx.Annotate("op.batched", strconv.Itoa(rows))
	chain, err = nn.walkFrom(tx, chain, comps)
	if err != nil {
		return nil, true, err
	}
	return chain, true, nil
}

// walkFrom continues serial resolution: chain already resolves
// comps[:len(chain)-1], and each further component is one read-committed
// round trip. It refreshes the hint cache as it goes.
func (nn *NameNode) walkFrom(tx ndb.Tx, chain []*Inode, comps []string) ([]*Inode, error) {
	cur := chain[len(chain)-1]
	// One buffer carries the growing prefix path for the cache refreshes.
	pbuf := make([]byte, 0, 96)
	for j := 0; j < len(chain)-1; j++ {
		pbuf = append(pbuf, '/')
		pbuf = append(pbuf, comps[j]...)
	}
	for i := len(chain) - 1; i < len(comps); i++ {
		if !cur.Dir {
			return nil, ErrNotDir
		}
		child, err := nn.readInode(tx, cur.ID, comps[i])
		if err != nil {
			return nil, err
		}
		pbuf = append(pbuf, '/')
		pbuf = append(pbuf, comps[i]...)
		nn.cache.putBytes(pbuf, child.ID)
		chain = append(chain, child)
		cur = child
	}
	return chain, nil
}

// resolveParentChain resolves everything but the last component and returns
// the full ancestor chain [root, ..., parent] plus the target's name. The
// chain (not just the parent) is what mutations need: quota charges go to
// every quota'd ancestor on the resolved path.
func (nn *NameNode) resolveParentChain(tx ndb.Tx, comps []string) ([]*Inode, string, error) {
	if len(comps) == 0 {
		return nil, "", ErrInvalidPath
	}
	chain, err := nn.resolveChain(tx, comps[:len(comps)-1])
	if err != nil {
		return nil, "", err
	}
	if !chain[len(chain)-1].Dir {
		return nil, "", ErrNotDir
	}
	return chain, comps[len(comps)-1], nil
}

// resolveParent resolves everything but the last component and returns the
// parent inode plus the target's name.
func (nn *NameNode) resolveParent(tx ndb.Tx, comps []string) (*Inode, string, error) {
	chain, name, err := nn.resolveParentChain(tx, comps)
	if err != nil {
		return nil, "", err
	}
	return chain[len(chain)-1], name, nil
}

// Mkdir creates a directory. The parent is share-locked (it must keep
// existing), the new child row is exclusively locked by the insert.
func (nn *NameNode) Mkdir(p *sim.Proc, path string, perm uint16) error {
	comps, err := splitPath(path)
	if err != nil {
		return err
	}
	if len(comps) == 0 {
		return ErrExists
	}
	nn.charge(p, len(comps))
	nn.Ops++
	nn.annotate(p, path)
	return nn.runTxn(p, nn.hintFor(comps), func(tx ndb.Tx) error {
		chain, name, err := nn.resolveParentChain(tx, comps)
		if err != nil {
			return err
		}
		parent := chain[len(chain)-1]
		if _, err := nn.lockInode(tx, parent.Parent, parent.Name, ndb.LockShared); err != nil {
			return err
		}
		// Exclusive-lock the child row first, then check existence: two
		// racing creators serialize on the lock and the loser sees the
		// winner's row.
		table, pk, key := nn.ns.inodeRow(parent.ID, name)
		if _, ok, err := tx.ReadLocked(table, pk, key, ndb.LockExclusive); err != nil {
			return err
		} else if ok {
			return ErrExists
		}
		ino := &Inode{
			ID:     nn.ns.nextID(),
			Parent: parent.ID,
			Name:   name,
			Dir:    true,
			Perm:   perm,
			Owner:  "hdfs",
			Mtime:  p.Now(),
		}
		// Subtree pinning is inherited: a directory created under a pinned
		// directory pins its own children's partition key to the same
		// shard, keeping the whole subtree together. A pin surviving an
		// aborted attempt is harmless — inode ids are never reused.
		if s, ok := nn.ns.router.Pinned(partKey(parent.ID)); ok {
			_ = nn.ns.router.Pin(partKey(ino.ID), s)
		}
		// The inode row and any quota charges ride one batched write (a
		// single-row batch stages exactly like a plain insert).
		items := []ndb.BatchWrite{{Table: table, PartKey: pk, Key: key, Val: ino}}
		items = append(items, nn.quotaCharges(chain, "c", ino.ID, 1, 0)...)
		return tx.WriteBatch(items)
	})
}

// Create creates a file of the given logical size. Sizes at or below the
// small-file threshold are recorded as stored inline in NDB (§II-A3);
// larger files get their block list attached later via AttachBlocks (the
// client writes blocks through the block layer between the two).
func (nn *NameNode) Create(p *sim.Proc, path string, size int64) (*Inode, error) {
	comps, err := splitPath(path)
	if err != nil {
		return nil, err
	}
	if len(comps) == 0 {
		return nil, ErrExists
	}
	nn.charge(p, len(comps))
	nn.Ops++
	nn.annotate(p, path)
	var created *Inode
	err = nn.runTxn(p, nn.hintFor(comps), func(tx ndb.Tx) error {
		chain, name, err := nn.resolveParentChain(tx, comps)
		if err != nil {
			return err
		}
		parent := chain[len(chain)-1]
		if _, err := nn.lockInode(tx, parent.Parent, parent.Name, ndb.LockShared); err != nil {
			return err
		}
		table, pk, key := nn.ns.inodeRow(parent.ID, name)
		if _, ok, err := tx.ReadLocked(table, pk, key, ndb.LockExclusive); err != nil {
			return err
		} else if ok {
			return ErrExists
		}
		ino := &Inode{
			ID:     nn.ns.nextID(),
			Parent: parent.ID,
			Name:   name,
			Perm:   0o644,
			Owner:  "hdfs",
			Size:   size,
			Mtime:  p.Now(),
		}
		if size <= nn.ns.cfg.SmallFileThreshold {
			ino.InlineSize = size
		}
		created = ino
		// The inode row, the inline small-file payload (§II-A3), and any
		// quota charges commit as one batched write — one staging message
		// pair per primary, coalesced commit trains where chains coincide.
		items := []ndb.BatchWrite{{Table: table, PartKey: pk, Key: key, Val: ino}}
		if ino.InlineSize > 0 {
			table, pk := partOf(nn.ns.smallfiles, ino.ID)
			items = append(items, ndb.BatchWrite{Table: table, PartKey: pk, Key: smallFileKey, Val: ino.InlineSize})
		}
		items = append(items, nn.quotaCharges(chain, "c", ino.ID, 1, size)...)
		return tx.WriteBatch(items)
	})
	if err != nil {
		return nil, err
	}
	return created, nil
}

// Stat returns a file or directory's metadata (read-committed, lock-free).
func (nn *NameNode) Stat(p *sim.Proc, path string) (*Inode, error) {
	comps, err := splitPath(path)
	if err != nil {
		return nil, err
	}
	nn.charge(p, len(comps))
	nn.Ops++
	nn.annotate(p, path)
	var out *Inode
	err = nn.runTxn(p, nn.hintFor(comps), func(tx ndb.Tx) error {
		chain, err := nn.resolveChain(tx, comps)
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
// block list (locked reads always go to the primary replica, §II-B2).
func (nn *NameNode) GetBlockLocations(p *sim.Proc, path string) (*Inode, error) {
	comps, err := splitPath(path)
	if err != nil {
		return nil, err
	}
	if len(comps) == 0 {
		return nil, ErrIsDir
	}
	nn.charge(p, len(comps))
	nn.Ops++
	nn.annotate(p, path)
	var out *Inode
	err = nn.runTxn(p, nn.hintFor(comps), func(tx ndb.Tx) error {
		parent, name, err := nn.resolveParent(tx, comps)
		if err != nil {
			return err
		}
		ino, err := nn.lockInode(tx, parent.ID, name, ndb.LockShared)
		if err != nil {
			return err
		}
		if ino.Dir {
			return ErrIsDir
		}
		if ino.InlineSize > 0 {
			// Small files are served straight from NDB (§II-A3): fetch the
			// inline payload row alongside the metadata.
			table, pk := partOf(nn.ns.smallfiles, ino.ID)
			if _, _, err := tx.ReadCommitted(table, pk, smallFileKey); err != nil {
				return err
			}
		}
		out = ino
		return nil
	})
	return out, err
}

// List returns a directory's children, name-sorted. The directory is
// share-locked; the children are one partition-pruned scan.
func (nn *NameNode) List(p *sim.Proc, path string) ([]*Inode, error) {
	comps, err := splitPath(path)
	if err != nil {
		return nil, err
	}
	nn.charge(p, len(comps))
	nn.Ops++
	nn.annotate(p, path)
	var out []*Inode
	err = nn.runTxn(p, nn.hintFor(append(comps, "")), func(tx ndb.Tx) error {
		out = out[:0]
		chain, err := nn.resolveChain(tx, comps)
		if err != nil {
			return err
		}
		dir := chain[len(chain)-1]
		if !dir.Dir {
			return ErrNotDir
		}
		if dir.ID != RootID {
			if _, err := nn.lockInode(tx, dir.Parent, dir.Name, ndb.LockShared); err != nil {
				return err
			}
		}
		var kvs []ndb.KV
		if dir.ID == RootID {
			// The root's children are deliberately scattered across
			// partitions (see partKeyOf); listing "/" is a table scan.
			kvs, err = tx.ScanTablePrefix(nn.ns.inodes.At(0), inodeKey(dir.ID, ""))
		} else {
			table, pk := partOf(nn.ns.inodes, dir.ID)
			kvs, err = tx.ScanPrefix(table, pk, inodeKey(dir.ID, ""))
		}
		if err != nil {
			return err
		}
		for _, kv := range kvs {
			if ino, ok := kv.Val.(*Inode); ok && ino.Parent == dir.ID {
				out = append(out, ino)
			}
		}
		return nil
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
func (nn *NameNode) Delete(p *sim.Proc, path string, recursive bool) ([]blocks.BlockID, error) {
	comps, err := splitPath(path)
	if err != nil {
		return nil, err
	}
	if len(comps) == 0 {
		return nil, ErrInvalidPath
	}
	nn.charge(p, len(comps))
	nn.Ops++
	nn.annotate(p, path)
	var freed []blocks.BlockID
	err = nn.runTxn(p, nn.hintFor(comps), func(tx ndb.Tx) error {
		freed = freed[:0]
		chain, name, err := nn.resolveParentChain(tx, comps)
		if err != nil {
			return err
		}
		parent := chain[len(chain)-1]
		if _, err := nn.lockInode(tx, parent.Parent, parent.Name, ndb.LockShared); err != nil {
			return err
		}
		target, err := nn.lockInode(tx, parent.ID, name, ndb.LockExclusive)
		if err != nil {
			return err
		}
		return nn.deleteSubtree(tx, chain, target, recursive, &freed)
	})
	if err != nil {
		return nil, err
	}
	// The whole subtree is gone: drop its hints so later resolutions do not
	// waste a batched attempt on rows that cannot exist.
	nn.cache.invalidatePrefix("/" + strings.Join(comps, "/"))
	return freed, nil
}

// deleteSubtree removes target and (recursively) its children within the
// same transaction — HopsFS's atomic subtree delete. The tree is discovered
// level by level, each level's directory listings fetched in one batched
// fan-out (ScanBatch) and its children exclusively locked as found; then
// every BFS level's rows — inode rows, inline small-file payloads, and the
// quota records of dying quota'd directories — are deleted as one batched
// write, so a level costs one staging message pair per primary instead of
// one round trip per row. ancestors is the resolved chain above target; the
// whole subtree is charged back to its quota'd ancestors as one aggregate
// negative update.
func (nn *NameNode) deleteSubtree(tx ndb.Tx, ancestors []*Inode, target *Inode, recursive bool, freed *[]blocks.BlockID) error {
	levels := [][]*Inode{{target}}
	var level []*Inode
	if target.Dir {
		level = append(level, target)
	}
	top := true
	for len(level) > 0 {
		results, err := tx.ScanBatch(nn.ns.childScans(level))
		if err != nil {
			return err
		}
		var next, found []*Inode
		for li, dir := range level {
			if top && len(results[li]) > 0 && !recursive {
				return ErrNotEmpty
			}
			for _, kv := range results[li] {
				child, ok := kv.Val.(*Inode)
				if !ok || child.Parent != dir.ID {
					continue
				}
				if _, err := nn.lockInode(tx, dir.ID, child.Name, ndb.LockExclusive); err != nil {
					return err
				}
				found = append(found, child)
				if child.Dir {
					next = append(next, child)
				}
			}
		}
		if len(found) > 0 {
			levels = append(levels, found)
		}
		top = false
		level = next
	}
	var count, bytes int64
	for _, lvl := range levels {
		items := make([]ndb.BatchWrite, 0, len(lvl))
		for _, ino := range lvl {
			*freed = append(*freed, ino.Blocks...)
			count++
			bytes += ino.Size
			items = append(items, nn.ns.inodeWrite(ino.Parent, ino.Name, nil))
			if ino.InlineSize > 0 {
				table, pk := partOf(nn.ns.smallfiles, ino.ID)
				items = append(items, ndb.BatchWrite{Table: table, PartKey: pk, Key: smallFileKey, Del: true})
			}
			if ino.Dir && (ino.QuotaNS != 0 || ino.QuotaSS != 0) {
				// A dying quota'd directory takes its quota records with it:
				// the authoritative row plus its accumulated usage updates.
				quotas, pk := partOf(nn.ns.quotas, ino.ID)
				items = append(items, ndb.BatchWrite{Table: quotas, PartKey: pk, Key: quotaRecordKey, Del: true})
				kvs, err := tx.ScanPrefix(quotas, pk, quotaUpdatePrefix)
				if err != nil {
					return err
				}
				for _, kv := range kvs {
					items = append(items, ndb.BatchWrite{Table: quotas, PartKey: pk, Key: kv.Key, Del: true})
				}
			}
		}
		if err := tx.WriteBatch(items); err != nil {
			return err
		}
	}
	if charges := nn.quotaCharges(ancestors, "d", target.ID, -count, -bytes); len(charges) > 0 {
		// One aggregate negative charge for the whole subtree, keyed by the
		// delete target so repeated deletes under one quota never collide.
		return tx.WriteBatch(charges)
	}
	return nil
}

// Rename atomically moves src to dst — the operation object stores cannot
// provide (§I). Lock order is by (partition, row key) to avoid deadlocks
// between concurrent renames.
func (nn *NameNode) Rename(p *sim.Proc, src, dst string) error {
	srcComps, err := splitPath(src)
	if err != nil {
		return err
	}
	dstComps, err := splitPath(dst)
	if err != nil {
		return err
	}
	if len(srcComps) == 0 || len(dstComps) == 0 {
		return ErrInvalidPath
	}
	nn.charge(p, len(srcComps)+len(dstComps))
	nn.Ops++
	nn.annotate(p, src)
	p.Span().SetAttr("dst", dst)
	err = nn.runTxn(p, nn.hintFor(srcComps), func(tx ndb.Tx) error {
		srcParent, srcName, err := nn.resolveParent(tx, srcComps)
		if err != nil {
			return err
		}
		srcIno, err := nn.readInode(tx, srcParent.ID, srcName)
		if err != nil {
			return err
		}
		dstChain, err := nn.resolveChain(tx, dstComps[:len(dstComps)-1])
		if err != nil {
			return err
		}
		dstParent := dstChain[len(dstChain)-1]
		if !dstParent.Dir {
			return ErrNotDir
		}
		dstName := dstComps[len(dstComps)-1]
		// Cycle check: the destination's ancestor chain must not contain
		// the source inode.
		for _, anc := range dstChain {
			if anc.ID == srcIno.ID {
				return ErrCycle
			}
		}
		// Deterministic lock order over the two row keys: shard first, so
		// two cross-shard renames over the same pair of shards open their
		// sub-transactions — and take their locks — in the same order.
		type lockSpec struct {
			shard   int
			pk, key string
		}
		specs := []lockSpec{
			{nn.ns.inodes.Shard(partKeyOf(srcParent.ID, srcName)), partKeyOf(srcParent.ID, srcName), inodeKey(srcParent.ID, srcName)},
			{nn.ns.inodes.Shard(partKeyOf(dstParent.ID, dstName)), partKeyOf(dstParent.ID, dstName), inodeKey(dstParent.ID, dstName)},
		}
		sort.Slice(specs, func(i, j int) bool {
			if specs[i].shard != specs[j].shard {
				return specs[i].shard < specs[j].shard
			}
			if specs[i].pk != specs[j].pk {
				return specs[i].pk < specs[j].pk
			}
			return specs[i].key < specs[j].key
		})
		for _, s := range specs {
			if _, _, err := tx.ReadLocked(nn.ns.inodes.At(s.shard), s.pk, s.key, ndb.LockExclusive); err != nil {
				return err
			}
		}
		// Re-validate under locks.
		srcIno, err = nn.readInode(tx, srcParent.ID, srcName)
		if err != nil {
			return err
		}
		if _, err := nn.readInode(tx, dstParent.ID, dstName); err == nil {
			return ErrExists
		} else if err != ErrNotFound {
			return err
		}
		moved := *srcIno
		moved.Parent = dstParent.ID
		moved.Name = dstName
		moved.Mtime = p.Now()
		// The unlink and the relink stage as one batched write and — when
		// both rows land on the same replica chain — commit as one train.
		// An inline payload row is keyed by the file's own inode id, so it
		// moves with the file untouched. Quota usage is not migrated across
		// quota boundaries (see quota.go).
		return tx.WriteBatch([]ndb.BatchWrite{
			nn.ns.inodeWrite(srcParent.ID, srcName, nil),
			nn.ns.inodeWrite(dstParent.ID, dstName, &moved),
		})
	})
	if err == nil {
		// Everything under the old path now resolves differently, and a
		// previous life of the destination path may still be cached.
		nn.cache.invalidatePrefix("/" + strings.Join(srcComps, "/"))
		nn.cache.invalidatePrefix("/" + strings.Join(dstComps, "/"))
	}
	return err
}

// SetPermission updates an inode's mode bits under an exclusive lock.
func (nn *NameNode) SetPermission(p *sim.Proc, path string, perm uint16) error {
	return nn.updateInode(p, path, func(ino *Inode) { ino.Perm = perm })
}

// SetOwner updates an inode's owner under an exclusive lock.
func (nn *NameNode) SetOwner(p *sim.Proc, path, owner string) error {
	return nn.updateInode(p, path, func(ino *Inode) { ino.Owner = owner })
}

// AttachBlocks records the block list of a large file after the client has
// written the blocks through the block layer (the create/addBlock/complete
// protocol collapsed into one metadata update).
func (nn *NameNode) AttachBlocks(p *sim.Proc, path string, ids []blocks.BlockID, size int64) error {
	return nn.updateInode(p, path, func(ino *Inode) {
		ino.Blocks = append([]blocks.BlockID(nil), ids...)
		ino.Size = size
	})
}

func (nn *NameNode) updateInode(p *sim.Proc, path string, mutate func(*Inode)) error {
	comps, err := splitPath(path)
	if err != nil {
		return err
	}
	if len(comps) == 0 {
		return ErrInvalidPath
	}
	nn.charge(p, len(comps))
	nn.Ops++
	nn.annotate(p, path)
	return nn.runTxn(p, nn.hintFor(comps), func(tx ndb.Tx) error {
		parent, name, err := nn.resolveParent(tx, comps)
		if err != nil {
			return err
		}
		ino, err := nn.lockInode(tx, parent.ID, name, ndb.LockExclusive)
		if err != nil {
			return err
		}
		updated := *ino
		mutate(&updated)
		updated.Mtime = p.Now()
		table, pk, key := nn.ns.inodeRow(parent.ID, name)
		return tx.Insert(table, pk, key, &updated)
	})
}

// ContentSummary walks a subtree inside one transaction and returns its
// file count, directory count (including the root of the walk), and total
// logical bytes — HDFS's getContentSummary. Reads are read-committed; like
// HDFS, the summary is a consistent-enough snapshot, not a serialized one.
func (nn *NameNode) ContentSummary(p *sim.Proc, path string) (files, dirs int, size int64, err error) {
	comps, err := splitPath(path)
	if err != nil {
		return 0, 0, 0, err
	}
	nn.charge(p, len(comps))
	nn.Ops++
	nn.annotate(p, path)
	err = nn.runTxn(p, nn.hintFor(comps), func(tx ndb.Tx) error {
		files, dirs, size = 0, 0, 0
		chain, cerr := nn.resolveChain(tx, comps)
		if cerr != nil {
			return cerr
		}
		return nn.summarize(tx, chain[len(chain)-1], &files, &dirs, &size)
	})
	if err != nil {
		return 0, 0, 0, err
	}
	return files, dirs, size, nil
}

// summarize accumulates the subtree's file/dir counts and byte total,
// walking the tree level by level with each level's directory listings in
// one batched fan-out. The root directory's children are deliberately
// scattered across partitions (see partKeyOf), so "/" itself still costs a
// table scan.
func (nn *NameNode) summarize(tx ndb.Tx, root *Inode, files, dirs *int, size *int64) error {
	if !root.Dir {
		*files++
		*size += root.Size
		return nil
	}
	type scanned struct {
		dir *Inode
		kvs []ndb.KV
	}
	level := []*Inode{root}
	for len(level) > 0 {
		var sets []scanned
		var batchDirs []*Inode
		for _, dir := range level {
			*dirs++
			if dir.ID == RootID {
				kvs, err := tx.ScanTablePrefix(nn.ns.inodes.At(0), inodeKey(dir.ID, ""))
				if err != nil {
					return err
				}
				sets = append(sets, scanned{dir, kvs})
			} else {
				batchDirs = append(batchDirs, dir)
			}
		}
		if len(batchDirs) > 0 {
			results, err := tx.ScanBatch(nn.ns.childScans(batchDirs))
			if err != nil {
				return err
			}
			for i, dir := range batchDirs {
				sets = append(sets, scanned{dir, results[i]})
			}
		}
		var next []*Inode
		for _, s := range sets {
			for _, kv := range s.kvs {
				child, ok := kv.Val.(*Inode)
				if !ok || child.Parent != s.dir.ID {
					continue
				}
				if child.Dir {
					next = append(next, child)
				} else {
					*files++
					*size += child.Size
				}
			}
		}
		level = next
	}
	return nil
}
