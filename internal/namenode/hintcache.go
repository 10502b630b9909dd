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
// The cache is not a shared structure between simulated operations in the
// way real concurrent maps are: the simulation kernel runs processes
// cooperatively, so no locking is needed.
type hintCache struct {
	cap   int
	items map[string]*hintEntry
	// lru anchors the recency list threaded through the entries: lru.next is
	// the most recently used entry, lru.prev the least.
	lru hintEntry
	// size mirrors len(items) into the metrics registry (nil-safe).
	size *trace.Gauge
}

// hintEntry is one cached directory: its path → inode-id mapping, the keys
// it implies — built when its id or parent changes, gone when it goes — and
// its links in the recency list.
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
// under parent, evicting the least recently used entry when full.
func (hc *hintCache) put(path string, id, parent uint64) {
	e := hc.lookup(path)
	if e == nil {
		e = &hintEntry{path: path}
		hc.items[path] = e
		hc.pushFront(e)
		if lru := hc.lru.prev; len(hc.items) > hc.cap {
			lru.unlink()
			delete(hc.items, lru.path)
		}
		hc.size.Set(float64(len(hc.items)))
	}
	if e.children == "" || e.id != id || e.parent != parent {
		e.partKey, e.key = "", ""
		if parent == RootID {
			e.partKey, e.key = partKeyOf(parent, e.name()), inodeKey(parent, e.name())
		}
		e.id, e.parent, e.children = id, parent, partKey(id)
	}
}

// drop removes the mapping for path alone, if there is one.
func (hc *hintCache) drop(path string) {
	if e := hc.items[path]; e != nil {
		e.unlink()
		delete(hc.items, path)
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
			e.unlink()
			delete(hc.items, k)
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
