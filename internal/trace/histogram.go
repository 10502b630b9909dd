package trace

import (
	"math"
	"sync"
	"time"
)

// Bucket layout of every duration histogram: numBuckets log-spaced bucket
// boundaries starting at bucketBase with ratio bucketGrowth. The layout is
// fixed (not configurable) so every histogram quantizes durations
// identically and merged histograms stay exact.
const (
	numBuckets   = 64
	bucketBase   = 20 * time.Microsecond
	bucketGrowth = 1.3
)

// bucketBounds[i] is the inclusive upper bound of bucket i; the last bucket
// is unbounded.
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

// Dist is a bucketed duration distribution: observation count, sum and
// running max, plus a count per bucket of the fixed layout. It is a plain
// value (no lock, no allocation), so windows and merged views copy it.
type Dist struct {
	Count int64
	Sum   time.Duration
	Max   time.Duration

	counts [numBuckets]uint32
}

// Add records one duration; negative durations count in the first bucket.
func (h *Dist) Add(d time.Duration) {
	h.counts[bucketOf(d)]++
	h.Count++
	h.Sum += d
	if d > h.Max {
		h.Max = d
	}
}

// Merge adds every observation of o, exactly as if each had been added.
func (h *Dist) Merge(o Dist) {
	h.Count += o.Count
	h.Sum += o.Sum
	if o.Max > h.Max {
		h.Max = o.Max
	}
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
}

// Percentile returns the duration at quantile q (0 < q <= 1) by
// ceiling-nearest-rank over the buckets: the upper bound of the bucket
// containing the rank, clamped to Max so a low-resolution tail bucket
// cannot overstate an observed duration. An empty distribution returns 0.
func (h Dist) Percentile(q float64) time.Duration {
	if h.Count == 0 || q <= 0 {
		return 0
	}
	rank := int64(math.Ceil(min(q, 1) * float64(h.Count)))
	var seen int64
	for i, n := range h.counts {
		seen += int64(n)
		if seen >= rank {
			return min(bucketBounds[i], h.Max)
		}
	}
	return h.Max
}

// OverCount returns how many observations were slower than the target,
// counting whole buckets: a bucket counts as over once its upper bound
// exceeds the target, so the answer errs toward detection by at most one
// bucket ratio (30%).
func (h Dist) OverCount(target time.Duration) int64 {
	var over int64
	for i, n := range h.counts {
		if bucketBounds[i] > target {
			over += int64(n)
		}
	}
	return over
}

// Histogram is a registry handle over a Dist. Observe is nil-safe and
// mutex-guarded, so hot paths hold the handle and record unconditionally.
type Histogram struct {
	mu sync.Mutex
	d  Dist
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.d.Add(d)
	h.mu.Unlock()
}
