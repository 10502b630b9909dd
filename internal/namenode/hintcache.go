package namenode

import (
	"container/list"
	"strings"

	"hopsfscl/internal/trace"
)

// hintCache is the per-NN inode hint cache: path → inode id, bounded LRU.
// Keys are normalized path prefixes ("/a/b"); callers pass substrings of the
// operation's own path (fsPath.prefix), so a probe or a refresh builds no
// string and a fresh insert keeps the caller's.
// HopsFS NNs cache resolved path prefixes so transactions can (a) start at
// the right partition (the partition-key hint) and (b) batch the whole
// chain of inode reads optimistically. Entries may go stale — another NN
// can rename or delete the cached inode at any time — so every consumer
// must verify what it reads against the committed rows and fall back to
// the serial walk on mismatch; the cache is a performance hint, never an
// authority. Locally observed mutations (Rename, Delete) invalidate their
// subtree by prefix so the common case stays fresh.
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

// invalidatePrefix drops the mapping for path and every path beneath it.
// Called after a locally executed Rename or Delete so this NN does not keep
// serving hints it just made stale. (Other NNs still can — that is what the
// verification in tryBatchResolve is for.)
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
