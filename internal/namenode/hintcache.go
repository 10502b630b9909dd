package namenode

import (
	"container/list"
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
// is the partition key and the row-key prefix of its children — and neither
// ever needs a file's, which keys no row: only directories are cached
// (NameNode.remember). Entries may go stale — another NN can rename or
// delete the cached inode at any time — so every consumer must verify what
// it reads against the committed rows and fall back to the serial walk on
// mismatch; the cache is a performance hint, never an authority. A locally
// committed Rename or Delete of a directory invalidates its subtree by
// prefix so the common case stays fresh; unlinking a file has nothing to
// invalidate, which keeps the whole-map walk off the mutation hot path.
//
// The cache is not a shared structure between simulated operations in the
// way real concurrent maps are: the simulation kernel runs processes
// cooperatively, so no locking is needed.
type hintCache struct {
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
	// size mirrors len(items) into the metrics registry (nil-safe).
	size *trace.Gauge
}

// hintEntry is one cached path → inode-id mapping.
type hintEntry struct {
	path string
	id   uint64
}

// newHintCache returns an empty cache bounded to capacity entries.
// A non-positive capacity disables caching entirely (every get misses,
// every put is dropped) — useful for ablations.
func newHintCache(capacity int) *hintCache {
	return &hintCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
}

// setGauge attaches the registry gauge mirroring the entry count.
func (hc *hintCache) setGauge(g *trace.Gauge) {
	hc.size = g
	hc.size.Set(float64(len(hc.items)))
}

// get returns the cached inode id for path, bumping it to most recently
// used.
func (hc *hintCache) get(path string) (uint64, bool) {
	el, ok := hc.items[path]
	if !ok {
		return 0, false
	}
	hc.ll.MoveToFront(el)
	return el.Value.(*hintEntry).id, true
}

// put inserts or refreshes a mapping, evicting the least recently used
// entry when full.
func (hc *hintCache) put(path string, id uint64) {
	if hc.cap <= 0 {
		return
	}
	if el, ok := hc.items[path]; ok {
		el.Value.(*hintEntry).id = id
		hc.ll.MoveToFront(el)
		return
	}
	hc.items[path] = hc.ll.PushFront(&hintEntry{path: path, id: id})
	if hc.ll.Len() > hc.cap {
		lru := hc.ll.Back()
		hc.ll.Remove(lru)
		delete(hc.items, lru.Value.(*hintEntry).path)
	}
	hc.size.Set(float64(len(hc.items)))
}

// drop removes the mapping for path alone, if there is one.
func (hc *hintCache) drop(path string) {
	if el, ok := hc.items[path]; ok {
		hc.ll.Remove(el)
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
	for k, el := range hc.items {
		if k == path || strings.HasPrefix(k, prefix) {
			hc.ll.Remove(el)
			delete(hc.items, k)
		}
	}
	hc.size.Set(float64(len(hc.items)))
}

// len returns the current entry count.
func (hc *hintCache) len() int { return len(hc.items) }
