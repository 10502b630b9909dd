// Package metrics provides the measurement plumbing for the experiment
// harness: latency histograms with percentile queries, windowed resource
// utilization from the simulation kernel's busy-time integrals, and byte
// counter snapshots.
package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"hopsfscl/internal/sim"
)

// Histogram collects latency samples with deterministic reservoir sampling
// so memory stays bounded for arbitrarily long runs.
type Histogram struct {
	samples []time.Duration
	count   int64
	sum     time.Duration
	max     time.Duration
	cap     int
	seed    int64
	rng     *rand.Rand

	// sorted caches the sorted view for repeated percentile queries
	// (harnesses ask for p50/p90/p99 back to back); Observe invalidates it.
	sorted      []time.Duration
	sortedValid bool
}

// NewHistogram returns a histogram keeping at most capSamples samples
// (reservoir-sampled beyond that). A zero capSamples defaults to 64k.
func NewHistogram(capSamples int, seed int64) *Histogram {
	if capSamples <= 0 {
		capSamples = 64 << 10
	}
	return &Histogram{
		cap:  capSamples,
		seed: seed,
		rng:  rand.New(rand.NewSource(seed)),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(d time.Duration) {
	h.count++
	h.sum += d
	h.sortedValid = false
	if d > h.max {
		h.max = d
	}
	if len(h.samples) < h.cap {
		h.samples = append(h.samples, d)
		return
	}
	// Vitter's algorithm R.
	if idx := h.rng.Int63n(h.count); idx < int64(h.cap) {
		h.samples[idx] = d
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Mean returns the average of all observations.
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Max returns the largest observation.
func (h *Histogram) Max() time.Duration { return h.max }

// Percentile returns the q-quantile (0 < q <= 1) from the retained sample.
func (h *Histogram) Percentile(q float64) time.Duration {
	if len(h.samples) == 0 {
		return 0
	}
	if !h.sortedValid {
		h.sorted = append(h.sorted[:0], h.samples...)
		sort.Slice(h.sorted, func(i, j int) bool { return h.sorted[i] < h.sorted[j] })
		h.sortedValid = true
	}
	s := h.sorted
	// Ceiling nearest-rank: the smallest sample with at least a q fraction
	// of the sample at or below it. Truncating here biases small-sample
	// tails low (p99 of 10 samples would return the 9th value, not the
	// 10th).
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// Reset clears all state, including the sampling RNG: a reset histogram
// behaves identically to a freshly constructed one, so reset-and-reuse
// runs stay reproducible.
func (h *Histogram) Reset() {
	h.samples = h.samples[:0]
	h.count = 0
	h.sum = 0
	h.max = 0
	h.sortedValid = false
	h.rng = rand.New(rand.NewSource(h.seed))
}

// UtilWindow measures average utilization of a set of resources over a
// window: Mark at window start, Report at window end.
type UtilWindow struct {
	res []*sim.Resource
	win []sim.UtilWindow
}

// NewUtilWindow tracks the given resources.
func NewUtilWindow(res ...*sim.Resource) *UtilWindow {
	return &UtilWindow{res: res, win: make([]sim.UtilWindow, len(res))}
}

// Mark snapshots the window start at the current virtual time.
func (u *UtilWindow) Mark(now time.Duration) {
	for i, r := range u.res {
		u.win[i].Mark(r, now)
	}
}

// Report returns the average utilization (0..1) across all tracked
// resources since Mark.
func (u *UtilWindow) Report(now time.Duration) float64 {
	if len(u.res) == 0 {
		return 0
	}
	var total float64
	for i, r := range u.res {
		total += u.win[i].Read(r, now)
	}
	return total / float64(len(u.res))
}

// Rate formats ops over a window as a human-readable ops/sec string.
func Rate(ops int64, window time.Duration) string {
	return FormatOps(OpsPerSec(ops, window))
}

// OpsPerSec converts a count over a window to a rate.
func OpsPerSec(ops int64, window time.Duration) float64 {
	if window <= 0 {
		return 0
	}
	return float64(ops) / window.Seconds()
}

// FormatOps renders a rate as e.g. "1.66M", "800K", "950". Non-finite
// rates (a zero-duration window divided through, an empty measurement)
// render as "0" rather than leaking NaN/Inf into report tables.
func FormatOps(rate float64) string {
	switch {
	case math.IsNaN(rate) || math.IsInf(rate, 0):
		return "0"
	case rate >= 1e6:
		return fmt.Sprintf("%.2fM", rate/1e6)
	case rate >= 1e3:
		return fmt.Sprintf("%.0fK", rate/1e3)
	default:
		return fmt.Sprintf("%.0f", rate)
	}
}

// Table is a minimal fixed-width table printer for experiment output.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row (stringified cells).
func (t *Table) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
