package namenode

import (
	"strings"

	"hopsfscl/internal/trace"
)

// hintCache is the per-NN inode hint cache: directory path → inode id,
// bounded LRU. Keys are normalized path prefixes ("/a/b"); callers pass
// substrings of the operation's own path (fsPath.prefix), so a probe or a
// refresh builds no string and a fresh insert keeps the caller's.
// HopsFS NNs cache resolved path prefixes so transactions can (a) start at
// the right partition (the partition-key hint) and (b) batch the whole
// chain of inode reads optimistically. Both uses need a directory's id — it
// is the partition key of its children — and neither ever needs a file's,
// which keys no row: only directories are cached (NameNode.remember).
// Entries may go stale — another NN can rename or delete the cached inode
// at any time — so every consumer must verify what it reads against the
// committed rows and fall back to the serial walk on mismatch; the cache is
// a performance hint, never an authority. A locally committed Rename or
// Delete of a directory invalidates its subtree by prefix so the common case
// stays fresh; unlinking a file has nothing to invalidate, which keeps the
// whole-map walk off the mutation hot path.
//
// Entries are carved from a slab of hintSlab and never reused: an operation
// may still hold, in its scratch, one the cache has dropped, and keys rows
// by it. A dropped entry keeps its keys and loses its links, so a slab lives
// as long as one of its entries is cached or held.
//
// The cache is not a shared structure between simulated operations in the
// way real concurrent maps are: the simulation kernel runs processes
// cooperatively, so no locking is needed.
type hintCache struct {
	cap   int
	items map[string]*hintEntry
	// lru anchors the recency list threaded through the entries: lru.next is
	// the most recently used entry, lru.prev the least.
	lru hintEntry
	// slab is what is left of the block new entries come from.
	slab []hintEntry
	// size mirrors len(items) into the metrics registry (nil-safe).
	size *trace.Gauge
}

// hintSlab is the number of entries a cache allocates at once.
const hintSlab = 64

// hintEntry is one cached directory: its path → inode-id mapping, the keys
// it implies — set when its id or parent changes, and never changed on a
// dropped entry — and its links in the recency list.
type hintEntry struct {
	path       string
	id, parent uint64
	// children is "<id>", the partition key of the directory's children. A
	// child of "/" is addressed by no other entry: partKey and key hold its
	// own row's keys (partKeyOf, inodeKey), empty below the root.
	children, partKey, key string
	prev, next             *hintEntry // more, less recently used
}

// name is the directory's name under its parent: path's last component.
func (e *hintEntry) name() string { return e.path[strings.LastIndexByte(e.path, '/')+1:] }

// newHintCache returns an empty cache bounded to capacity entries.
func newHintCache(capacity int) *hintCache {
	hc := &hintCache{cap: capacity, items: make(map[string]*hintEntry)}
	hc.lru.prev, hc.lru.next = &hc.lru, &hc.lru
	return hc
}

// setGauge attaches the registry gauge mirroring the entry count.
func (hc *hintCache) setGauge(g *trace.Gauge) {
	hc.size = g
	hc.size.Set(float64(len(hc.items)))
}

// lookup returns the entry cached for path, bumping it to most recently
// used, or nil.
func (hc *hintCache) lookup(path string) *hintEntry {
	e := hc.items[path]
	if e != nil {
		e.unlink()
		hc.pushFront(e)
	}
	return e
}

// peek is lookup leaving the recency order, and so the eviction order, alone.
func (hc *hintCache) peek(path string) *hintEntry { return hc.items[path] }

// put inserts or refreshes the mapping of the directory at path to inode id
// under parent, evicting the least recently used entry when full, and
// returns its entry. pk and key are the keys the directory's row was read
// by: a child of "/" keeps them as its own, or builds them when given none.
func (hc *hintCache) put(path string, id, parent uint64, pk, key string) *hintEntry {
	e := hc.lookup(path)
	if e == nil {
		if len(hc.slab) == 0 {
			hc.slab = make([]hintEntry, hintSlab)
		}
		e, hc.slab = &hc.slab[0], hc.slab[1:]
		e.path = path
		hc.items[path] = e
		hc.pushFront(e)
		if len(hc.items) > hc.cap {
			hc.remove(hc.lru.prev)
		}
		hc.size.Set(float64(len(hc.items)))
	}
	if e.children == "" || e.parent != parent {
		// A row's keys follow from its parent and its name alone.
		e.partKey, e.key = "", ""
		if parent == RootID {
			if pk == "" {
				pk, key = rootChildKeys(e.name())
			}
			e.partKey, e.key = pk, key
		}
	}
	if e.children == "" || e.id != id {
		e.children = partKey(id)
	}
	e.id, e.parent = id, parent
	return e
}

// drop removes the mapping for path alone, if there is one.
func (hc *hintCache) drop(path string) {
	if e := hc.items[path]; e != nil {
		hc.remove(e)
		hc.size.Set(float64(len(hc.items)))
	}
}

// invalidatePrefix drops the mapping for path and every path beneath it.
// Called after a locally executed Rename or Delete of a directory so this NN
// does not keep serving hints it just made stale. (Other NNs still can — that
// is what the verification in verifyHinted is for.) It walks the whole
// map.
func (hc *hintCache) invalidatePrefix(path string) {
	prefix := path + "/"
	for k, e := range hc.items {
		if k == path || strings.HasPrefix(k, prefix) {
			hc.remove(e)
		}
	}
	hc.size.Set(float64(len(hc.items)))
}

// len returns the current entry count.
func (hc *hintCache) len() int { return len(hc.items) }

func (hc *hintCache) pushFront(e *hintEntry) {
	e.prev, e.next = &hc.lru, hc.lru.next
	e.prev.next, e.next.prev = e, e
}

func (e *hintEntry) unlink() { e.prev.next, e.next.prev = e.next, e.prev }

// remove takes e out of the cache. Its links go with it, so that a dropped
// entry an operation still holds keeps no other entry, nor its slab, alive.
func (hc *hintCache) remove(e *hintEntry) {
	e.unlink()
	e.prev, e.next = nil, nil
	delete(hc.items, e.path)
}
