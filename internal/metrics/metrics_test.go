package metrics

import (
	"math"
	"strings"
	"testing"
	"time"

	"hopsfscl/internal/sim"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if got := h.Mean(); got != 50500*time.Microsecond {
		t.Fatalf("mean = %v", got)
	}
	if got := h.Percentile(0.5); got != 50*time.Millisecond {
		t.Fatalf("p50 = %v", got)
	}
	if got := h.Percentile(0.99); got != 99*time.Millisecond {
		t.Fatalf("p99 = %v", got)
	}
	if got := h.Percentile(1); got != 100*time.Millisecond {
		t.Fatalf("p100 = %v", got)
	}
}

// TestHistogramExactPastReservoir observes far more distinct latencies
// than a 64k-entry reservoir could hold, in scrambled order, and asserts
// the exact nearest-rank percentiles: with every sample kept, p50 of
// 1..n µs is ceil(n/2) µs, not an estimate near it.
func TestHistogramExactPastReservoir(t *testing.T) {
	const n = 100_000
	var h Histogram
	for i := 0; i < n; i++ {
		// 7919 is coprime to n, so i -> i*7919 mod n visits every
		// residue once.
		h.Observe(time.Duration(1+i*7919%n) * time.Microsecond)
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.50, 50_000 * time.Microsecond}, {0.90, 90_000 * time.Microsecond}, {0.99, 99_000 * time.Microsecond}} {
		if got := h.Percentile(c.q); got != c.want {
			t.Errorf("p%v = %v, want %v", c.q*100, got, c.want)
		}
	}
}

// TestHistogramPercentileNearestRank pins the ceiling nearest-rank
// definition: Percentile(q) is the smallest sample with at least a q
// fraction of the sample at or below it. Truncating the rank instead
// biases small-sample tails low — p99 of 10 samples must be the 10th
// value, not the 9th.
func TestHistogramPercentileNearestRank(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	cases := []struct {
		name    string
		samples []time.Duration
		q       float64
		want    time.Duration
	}{
		{"1-sample p50", []time.Duration{ms(7)}, 0.5, ms(7)},
		{"1-sample p99", []time.Duration{ms(7)}, 0.99, ms(7)},
		{"1-sample p100", []time.Duration{ms(7)}, 1.0, ms(7)},
		{"2-sample p50", []time.Duration{ms(1), ms(2)}, 0.5, ms(1)},
		{"2-sample p51", []time.Duration{ms(1), ms(2)}, 0.51, ms(2)},
		{"2-sample p99", []time.Duration{ms(1), ms(2)}, 0.99, ms(2)},
		{"10-sample p10", []time.Duration{ms(1), ms(2), ms(3), ms(4), ms(5), ms(6), ms(7), ms(8), ms(9), ms(10)}, 0.10, ms(1)},
		{"10-sample p50", []time.Duration{ms(1), ms(2), ms(3), ms(4), ms(5), ms(6), ms(7), ms(8), ms(9), ms(10)}, 0.50, ms(5)},
		{"10-sample p90", []time.Duration{ms(1), ms(2), ms(3), ms(4), ms(5), ms(6), ms(7), ms(8), ms(9), ms(10)}, 0.90, ms(9)},
		{"10-sample p99", []time.Duration{ms(1), ms(2), ms(3), ms(4), ms(5), ms(6), ms(7), ms(8), ms(9), ms(10)}, 0.99, ms(10)},
		{"10-sample p100", []time.Duration{ms(1), ms(2), ms(3), ms(4), ms(5), ms(6), ms(7), ms(8), ms(9), ms(10)}, 1.0, ms(10)},
	}
	for _, tc := range cases {
		var h Histogram
		for _, d := range tc.samples {
			h.Observe(d)
		}
		if got := h.Percentile(tc.q); got != tc.want {
			t.Errorf("%s: Percentile(%v) = %v, want %v", tc.name, tc.q, got, tc.want)
		}
	}
}

func TestHistogramPercentileCacheInvalidation(t *testing.T) {
	var h Histogram
	for i := 1; i <= 10; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if got := h.Percentile(1.0); got != 10*time.Millisecond {
		t.Fatalf("p100 = %v, want 10ms", got)
	}
	// A later observation must be visible to the next query even though a
	// sorted view was already cached.
	h.Observe(time.Second)
	if got := h.Percentile(1.0); got != time.Second {
		t.Fatalf("p100 after new max = %v, want 1s", got)
	}
	// 11 samples now: the median is the 6th smallest (ceiling nearest
	// rank), not the 5th.
	if got := h.Percentile(0.5); got != 6*time.Millisecond {
		t.Fatalf("p50 = %v, want 6ms", got)
	}
}

func TestUtilWindow(t *testing.T) {
	env := sim.New(1)
	defer env.Close()
	res := sim.NewResource(env, "cpu", 2)
	env.Spawn("w", func(p *sim.Proc) {
		p.Sleep(10 * time.Millisecond) // outside window activity later
		res.Acquire(p, 2)
		p.Sleep(10 * time.Millisecond)
		res.Release(2)
	})
	u := NewUtilWindow(res)
	env.RunFor(10 * time.Millisecond)
	u.Mark(env.Now())
	env.RunFor(10 * time.Millisecond)
	got := u.Report(env.Now())
	if got < 0.99 || got > 1.01 {
		t.Fatalf("window util = %f, want 1.0", got)
	}
	// Next window: idle.
	u.Mark(env.Now())
	env.RunFor(10 * time.Millisecond)
	if got := u.Report(env.Now()); got != 0 {
		t.Fatalf("idle window util = %f", got)
	}
}

func TestRateFormatting(t *testing.T) {
	tests := []struct {
		rate float64
		want string
	}{
		{1_660_000, "1.66M"},
		{770_000, "770K"},
		{950, "950"},
	}
	for _, tt := range tests {
		if got := FormatOps(tt.rate); got != tt.want {
			t.Errorf("FormatOps(%f) = %q, want %q", tt.rate, got, tt.want)
		}
	}
	if got := OpsPerSec(100, time.Second); got != 100 {
		t.Errorf("OpsPerSec = %f", got)
	}
	if got := OpsPerSec(100, 0); got != 0 {
		t.Errorf("OpsPerSec zero window = %f", got)
	}
}

func TestTableRendersAligned(t *testing.T) {
	tbl := NewTable("setup", "ops/sec")
	tbl.AddRow("HopsFS (2,1)", "1.62M")
	tbl.AddRow("CephFS", "770K")
	out := tbl.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "setup") || !strings.Contains(lines[2], "1.62M") {
		t.Fatalf("unexpected table:\n%s", out)
	}
}

func TestZeroWindowAndEmptyGuards(t *testing.T) {
	// Rates over an empty or inverted window must not divide by zero.
	cases := []struct {
		ops    int64
		window time.Duration
	}{
		{0, 0}, {100, 0}, {100, -time.Second}, {0, time.Second},
	}
	for _, c := range cases {
		if got := OpsPerSec(c.ops, c.window); got != 0 && c.window <= 0 {
			t.Errorf("OpsPerSec(%d, %v) = %v, want 0", c.ops, c.window, got)
		}
		s := Rate(c.ops, c.window)
		if strings.Contains(s, "NaN") || strings.Contains(s, "Inf") {
			t.Errorf("Rate(%d, %v) = %q", c.ops, c.window, s)
		}
	}

	// An untouched histogram reports zeros, not NaN.
	var h Histogram
	if h.Mean() != 0 {
		t.Fatalf("empty histogram: mean=%v", h.Mean())
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Percentile(q); got != 0 {
			t.Fatalf("empty Percentile(%v) = %v", q, got)
		}
	}
}

func TestFormatOpsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := FormatOps(v); got != "0" {
			t.Errorf("FormatOps(%v) = %q, want \"0\"", v, got)
		}
	}
	if got := FormatOps(1.66e6); got != "1.66M" {
		t.Errorf("FormatOps(1.66e6) = %q", got)
	}
}
