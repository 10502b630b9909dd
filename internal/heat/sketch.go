// Package heat maintains deterministic top-k heavy-hitter sketches over
// the deployment's operation stream: which path subtrees, inodes, NDB
// tables, and partitions are hot right now: the answer to "which paths are
// burning the latency budget" that aggregate metrics cannot give, as
// `hopstrace hotspots` prints it.
//
// The sketch is Space-Saving (Metwally et al.): a fixed set of counters;
// a key not yet tracked replaces the minimum counter and inherits its
// count as the overestimate bound. Memory is bounded by the capacity
// regardless of key cardinality, and any key with true frequency above
// total/capacity is guaranteed to be tracked. Counts decay by halving on
// fixed virtual-time window boundaries, so rankings track the current load
// shape (a diurnal profile's morning hot set fades by evening) instead of
// accumulating forever.
//
// Everything is keyed to virtual time and uses deterministic tie-breaks,
// so a fixed-seed run produces a byte-identical ranking. Like slo, the
// package is a leaf over the standard library plus trace.
package heat

import (
	"cmp"
	"sync"
	"time"
)

// Counter is one tracked key in a sketch snapshot.
type Counter[K cmp.Ordered] struct {
	Key K
	// Count is the estimated (decayed) touch count. The true decayed count
	// lies in [Count-Err, Count].
	Count uint64
	// Err is the Space-Saving overestimate bound: the count the key
	// inherited when it displaced the previous minimum (0 for keys tracked
	// since their first touch in the current horizon).
	Err uint64
}

// entry is one live counter; entries form a min-heap ordered by
// (count asc, key asc) so the displacement victim is deterministic.
type entry[K cmp.Ordered] struct {
	key   K
	count uint64
	err   uint64
}

// TopK is a decayed Space-Saving sketch over keys of type K. All methods
// are safe for concurrent use and nil-receiver-safe, so instrumentation
// sites can call them unconditionally.
type TopK[K cmp.Ordered] struct {
	mu sync.Mutex
	// capacity bounds the tracked key set.
	capacity int
	// window is the decay half-life: on every window boundary crossing all
	// counts halve (0 disables decay).
	window time.Duration
	epoch  int64
	total  uint64
	// heap is the min-heap of live entries; index maps key -> heap slot.
	heap  []entry[K]
	index map[K]int
}

// NewTopK returns a sketch tracking at most capacity keys (default 64 for
// capacity <= 0), halving all counts every window of virtual time (0
// disables decay).
func NewTopK[K cmp.Ordered](capacity int, window time.Duration) *TopK[K] {
	if capacity <= 0 {
		capacity = 64
	}
	return &TopK[K]{
		capacity: capacity,
		window:   window,
		heap:     make([]entry[K], 0, capacity),
		index:    make(map[K]int, capacity),
	}
}

// less orders heap entries: smaller count first, smaller key breaking
// ties, so the Space-Saving victim is deterministic.
func (t *TopK[K]) less(a, b int) bool {
	if t.heap[a].count != t.heap[b].count {
		return t.heap[a].count < t.heap[b].count
	}
	return t.heap[a].key < t.heap[b].key
}

func (t *TopK[K]) swap(a, b int) {
	t.heap[a], t.heap[b] = t.heap[b], t.heap[a]
	t.index[t.heap[a].key] = a
	t.index[t.heap[b].key] = b
}

func (t *TopK[K]) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !t.less(i, parent) {
			return
		}
		t.swap(i, parent)
		i = parent
	}
}

func (t *TopK[K]) siftDown(i int) {
	n := len(t.heap)
	for {
		least := i
		if l := 2*i + 1; l < n && t.less(l, least) {
			least = l
		}
		if r := 2*i + 2; r < n && t.less(r, least) {
			least = r
		}
		if least == i {
			return
		}
		t.swap(i, least)
		i = least
	}
}

// roll applies the decay owed between the sketch's epoch and now: one
// halving per whole window crossed. Caller holds t.mu.
func (t *TopK[K]) roll(now time.Duration) {
	if t.window <= 0 {
		return
	}
	epoch := int64(now / t.window)
	if epoch <= t.epoch {
		return
	}
	steps := epoch - t.epoch
	t.epoch = epoch
	if steps >= 64 {
		// Everything decays to zero; clear without shifting.
		t.heap = t.heap[:0]
		clear(t.index)
		t.total = 0
		return
	}
	t.total >>= uint(steps)
	kept := t.heap[:0]
	for _, e := range t.heap {
		e.count >>= uint(steps)
		e.err >>= uint(steps)
		if e.count > 0 {
			kept = append(kept, e)
		}
	}
	t.heap = kept
	// Halving is monotone so the heap property survives the shift, but
	// dropped zero entries may have left holes: rebuild index and heapify.
	clear(t.index)
	for i := range t.heap {
		t.index[t.heap[i].key] = i
	}
	for i := len(t.heap)/2 - 1; i >= 0; i-- {
		t.siftDown(i)
	}
}

// Touch records weight touches of key at virtual instant now.
func (t *TopK[K]) Touch(now time.Duration, key K, weight uint64) {
	if t == nil || weight == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.roll(now)
	t.total += weight
	if i, ok := t.index[key]; ok {
		t.heap[i].count += weight
		t.siftDown(i)
		return
	}
	if len(t.heap) < t.capacity {
		t.heap = append(t.heap, entry[K]{key: key, count: weight})
		t.index[key] = len(t.heap) - 1
		t.siftUp(len(t.heap) - 1)
		return
	}
	// Space-Saving displacement: the new key takes over the minimum
	// counter, inheriting its count as the overestimate bound.
	victim := t.heap[0]
	delete(t.index, victim.key)
	t.heap[0] = entry[K]{key: key, count: victim.count + weight, err: victim.count}
	t.index[key] = 0
	t.siftDown(0)
}

// Total returns the decayed total weight observed at virtual instant now.
func (t *TopK[K]) Total(now time.Duration) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.roll(now)
	return t.total
}

// Len returns how many keys are currently tracked.
func (t *TopK[K]) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.heap)
}

// Top returns up to n tracked keys ranked by descending decayed count,
// with ascending key as the deterministic tie-break, as of virtual
// instant now.
func (t *TopK[K]) Top(now time.Duration, n int) []Counter[K] {
	if t == nil || n <= 0 {
		return nil
	}
	t.mu.Lock()
	t.roll(now)
	out := make([]Counter[K], 0, len(t.heap))
	for _, e := range t.heap {
		out = append(out, Counter[K]{Key: e.key, Count: e.count, Err: e.err})
	}
	t.mu.Unlock()
	sortCounters(out)
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// sortCounters orders by count desc, key asc — insertion sort over at most
// capacity entries keeps the package dependency-free of sort's interface
// allocations on this small fixed-size input.
func sortCounters[K cmp.Ordered](cs []Counter[K]) {
	for i := 1; i < len(cs); i++ {
		c := cs[i]
		j := i - 1
		for j >= 0 && (cs[j].Count < c.Count || (cs[j].Count == c.Count && cs[j].Key > c.Key)) {
			cs[j+1] = cs[j]
			j--
		}
		cs[j+1] = c
	}
}
