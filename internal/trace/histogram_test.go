package trace

import (
	"testing"
	"time"
)

func TestBucketBoundsMonotone(t *testing.T) {
	for i := 1; i < numBuckets; i++ {
		if bucketBounds[i] <= bucketBounds[i-1] {
			t.Fatalf("bucket bounds not increasing at %d: %v <= %v", i, bucketBounds[i], bucketBounds[i-1])
		}
	}
	for _, d := range []time.Duration{0, time.Microsecond, 20 * time.Microsecond, time.Millisecond, time.Second, time.Hour} {
		b := bucketOf(d)
		if d > bucketBounds[b] {
			t.Fatalf("bucketOf(%v) = %d but bound %v < value", d, b, bucketBounds[b])
		}
		if b > 0 && d <= bucketBounds[b-1] {
			t.Fatalf("bucketOf(%v) = %d but previous bound %v already covers it", d, b, bucketBounds[b-1])
		}
	}
}

// TestDistPercentile pins the percentile rule: ceiling nearest rank over
// the buckets answers the rank's bucket bound, clamped to the maximum, and
// an empty distribution answers 0.
func TestDistPercentile(t *testing.T) {
	var h Dist
	if p := h.Percentile(0.5); p != 0 {
		t.Fatalf("empty p50 = %v, want 0", p)
	}
	for i := 0; i < 99; i++ {
		h.Add(time.Millisecond)
	}
	h.Add(time.Second)
	// Rank 50 of 100 is a 1ms sample: its bucket's bound, which lies at or
	// above 1ms and below the next bound.
	b := bucketOf(time.Millisecond)
	if p := h.Percentile(0.5); p != bucketBounds[b] {
		t.Fatalf("p50 = %v, want the 1ms bucket's bound %v", p, bucketBounds[b])
	}
	if p := h.Percentile(0.99); p != bucketBounds[b] {
		t.Fatalf("p99 = %v, want %v (rank 99 is still a 1ms sample)", p, bucketBounds[b])
	}
	// Rank 100 is the 1s sample, whose bucket bound exceeds it: clamped.
	if p := h.Percentile(1); p != time.Second {
		t.Fatalf("p100 = %v, want the 1s maximum", p)
	}
	if p := h.Percentile(2); p != time.Second {
		t.Fatalf("p200 = %v, want q clamped to 1", p)
	}
	if p := h.Percentile(0); p != 0 {
		t.Fatalf("p0 = %v, want 0", p)
	}
}

// TestDistOverCount pins that OverCount counts whole buckets: a bucket
// counts once its upper bound exceeds the target, so samples just under
// the target but in its bucket count too.
func TestDistOverCount(t *testing.T) {
	var h Dist
	b := bucketOf(10 * time.Millisecond)
	h.Add(bucketBounds[b-1])                    // whole bucket below 10ms
	h.Add(bucketBounds[b-1] + time.Microsecond) // under 10ms, in its bucket
	h.Add(100 * time.Millisecond)               // far over
	if got := h.OverCount(10 * time.Millisecond); got != 2 {
		t.Fatalf("OverCount(10ms) = %d, want 2", got)
	}
	if got := h.OverCount(time.Hour); got != 0 {
		t.Fatalf("OverCount(1h) = %d, want 0", got)
	}
}

// TestDistMergeEqualsObservingOnce pins that merging two histograms equals
// adding every sample once to one histogram.
func TestDistMergeEqualsObservingOnce(t *testing.T) {
	var a, b, once Dist
	for i := 0; i < 50; i++ {
		d := time.Duration(i*i) * 37 * time.Microsecond
		if i%3 == 0 {
			a.Add(d)
		} else {
			b.Add(d)
		}
		once.Add(d)
	}
	a.Merge(b)
	if a != once {
		t.Fatalf("merged %+v, want %+v", a, once)
	}
}

// TestHistogramSnapshot pins what a registry histogram contributes to a
// snapshot: exactly count, sum and max, as counter, counter and max.
func TestHistogramSnapshot(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	h.Observe(3 * time.Millisecond)
	h.Observe(time.Millisecond)
	want := []Sample{
		{Name: "lat.count", Kind: KindCounter, Value: 2},
		{Name: "lat.max_ns", Kind: KindMax, Value: float64(3 * time.Millisecond)},
		{Name: "lat.sum_ns", Kind: KindCounter, Value: float64(4 * time.Millisecond)},
	}
	got := r.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("snapshot = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("snapshot[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}
