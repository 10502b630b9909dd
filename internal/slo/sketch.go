// Package slo is the live objective layer of the engine: windowed latency
// sketches per operation class, a declarative SLO spec evaluated by a
// multi-window burn-rate alerter (Google-SRE style fast-burn/slow-burn
// pairs), and a cluster health model folding layer signals (NN thread-pool
// utilization, NDB node liveness and lock contention, block
// under-replication) into per-component and cluster-wide health states.
//
// Everything is keyed to virtual time and bounded: the same seed and
// schedule always produce a byte-identical alert log, which is what lets
// the chaos engine report time-to-detect deterministically and what will
// let an autoscaler close the loop on these signals. Like trace, the
// package is a leaf over the standard library plus trace itself.
package slo

import (
	"math"
	"sync"
	"time"
)

// Bucket layout of the latency sketches: numBuckets log-spaced bucket
// boundaries starting at bucketBase with ratio bucketGrowth. The layout is
// fixed (not configurable) so every sketch in a cluster quantizes latencies
// identically and merged summaries stay exact.
const (
	numBuckets   = 64
	bucketBase   = 20 * time.Microsecond
	bucketGrowth = 1.3
)

// bucketBounds[i] is the inclusive upper latency bound of bucket i; the
// last bucket is unbounded.
var bucketBounds = func() [numBuckets]time.Duration {
	var b [numBuckets]time.Duration
	v := float64(bucketBase)
	for i := 0; i < numBuckets; i++ {
		b[i] = time.Duration(v)
		v *= bucketGrowth
	}
	b[numBuckets-1] = math.MaxInt64
	return b
}()

// bucketOf returns the index of the bucket containing d (binary search over
// the fixed bounds).
func bucketOf(d time.Duration) int {
	lo, hi := 0, numBuckets-1
	for lo < hi {
		mid := (lo + hi) / 2
		if d <= bucketBounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// slot is one fixed-width sub-window of a sketch.
type slot struct {
	index   int64 // absolute slot number (start = index * width); -1 = empty
	counts  [numBuckets]uint32
	total   int64
	errors  int64
	maxSeen time.Duration
}

func (s *slot) reset(index int64) {
	*s = slot{index: index}
}

// Sketch is a sliding-window latency sketch: a ring of fixed-width
// sub-window slots, each holding a bucketed latency histogram plus
// operation and error counts. Observations are keyed to virtual time, so
// advancing the window is driven entirely by the caller's clock — the
// sketch is deterministic and allocation-free after construction.
//
// Memory is bounded by slots*numBuckets regardless of traffic. Queries
// merge the slots covering the requested trailing window; the resolution
// of any windowed answer is one slot width.
type Sketch struct {
	mu    sync.Mutex
	width time.Duration // slot width
	slots []slot
	last  int64 // newest absolute slot index seen; -1 before first roll
}

// NewSketch returns a sketch covering a trailing window of the given
// length, divided into the given number of slots (window/slots rounds up
// to at least 1ms of slot width). Defaults: 2s window, 20 slots.
func NewSketch(window time.Duration, slots int) *Sketch {
	if window <= 0 {
		window = 2 * time.Second
	}
	if slots <= 0 {
		slots = 20
	}
	width := window / time.Duration(slots)
	if width < time.Millisecond {
		width = time.Millisecond
	}
	s := &Sketch{width: width, slots: make([]slot, slots), last: -1}
	for i := range s.slots {
		s.slots[i].index = -1
	}
	return s
}

// Span returns the maximum trailing window the sketch can answer for.
func (s *Sketch) Span() time.Duration { return s.width * time.Duration(len(s.slots)) }

// roll advances the ring so the slot containing now is current, resetting
// any slots whose previous tenants expired. Caller holds s.mu.
func (s *Sketch) roll(now time.Duration) *slot {
	idx := int64(now / s.width)
	if idx < s.last {
		// Observations never run backwards on virtual time; a stale caller
		// lands in the current slot rather than corrupting history.
		idx = s.last
	}
	sl := &s.slots[idx%int64(len(s.slots))]
	if sl.index != idx {
		sl.reset(idx)
	}
	s.last = idx
	return sl
}

// Observe records one operation completion at virtual instant now with the
// given end-to-end latency; failed marks it an error.
func (s *Sketch) Observe(now, latency time.Duration, failed bool) {
	if s == nil {
		return
	}
	if latency < 0 {
		latency = 0
	}
	s.mu.Lock()
	sl := s.roll(now)
	sl.counts[bucketOf(latency)]++
	sl.total++
	if latency > sl.maxSeen {
		sl.maxSeen = latency
	}
	if failed {
		sl.errors++
	}
	s.mu.Unlock()
}

// Summary is the merged view of a sketch over one trailing window.
type Summary struct {
	// Window is the queried window length (clamped to the sketch span).
	Window time.Duration
	// Count and Errors are completions and failures inside the window.
	Count  int64
	Errors int64
	// Max is the slowest latency inside the window.
	Max time.Duration

	counts [numBuckets]uint32
}

// Rate returns completions per second over the window.
func (m Summary) Rate() float64 {
	if m.Window <= 0 {
		return 0
	}
	return float64(m.Count) / m.Window.Seconds()
}

// ErrorFraction returns the failed share of completions (0 for an empty
// window).
func (m Summary) ErrorFraction() float64 {
	if m.Count == 0 {
		return 0
	}
	return float64(m.Errors) / float64(m.Count)
}

// Percentile returns the latency at quantile q (0 < q <= 1) by
// ceiling-nearest-rank over the merged buckets: the upper bound of the
// bucket containing the rank, clamped to the window maximum so a
// low-resolution tail bucket cannot overstate an observed latency. Empty
// windows return 0.
func (m Summary) Percentile(q float64) time.Duration {
	if m.Count == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(m.Count)))
	var seen int64
	for i := 0; i < numBuckets; i++ {
		seen += int64(m.counts[i])
		if seen >= rank {
			bound := bucketBounds[i]
			if bound > m.Max {
				bound = m.Max
			}
			return bound
		}
	}
	return m.Max
}

// OverCount returns how many completions in the window were slower than the
// target, counting whole buckets: a bucket counts as over once its upper
// bound exceeds the target, so the answer errs toward detection by at most
// one bucket ratio (30%).
func (m Summary) OverCount(target time.Duration) int64 {
	var over int64
	for i := 0; i < numBuckets; i++ {
		if bucketBounds[i] > target {
			over += int64(m.counts[i])
		}
	}
	return over
}

// Window merges the slots covering the trailing window [now-window, now]
// and returns the summary. Windows longer than the sketch span are clamped;
// expired slots contribute nothing.
func (s *Sketch) Window(now, window time.Duration) Summary {
	if s == nil {
		return Summary{}
	}
	if window <= 0 || window > s.Span() {
		window = s.Span()
	}
	out := Summary{Window: window}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := int64(now / s.width)
	if cur < s.last {
		cur = s.last
	}
	// Slots whose *start* lies in (now-window, now] are inside: the current
	// (partial) slot always is, and window/width older complete slots.
	nSlots := int64(window / s.width)
	lo := cur - nSlots
	for i := range s.slots {
		sl := &s.slots[i]
		if sl.index < 0 || sl.index > cur || sl.index <= lo {
			continue
		}
		out.Count += sl.total
		out.Errors += sl.errors
		if sl.maxSeen > out.Max {
			out.Max = sl.maxSeen
		}
		for b := 0; b < numBuckets; b++ {
			out.counts[b] += sl.counts[b]
		}
	}
	return out
}
