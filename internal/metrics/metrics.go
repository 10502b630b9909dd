// Package metrics provides the measurement plumbing for the experiment
// harness: latency histograms with percentile queries, windowed resource
// utilization from the simulation kernel's busy-time integrals, and byte
// counter snapshots.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"hopsfscl/internal/sim"
)

// Histogram keeps every latency sample, so its percentiles are exact. The
// zero value is ready to use.
type Histogram struct {
	samples []time.Duration
	sum     time.Duration
	// sorted says samples is in ascending order: harnesses ask for
	// p50/p90/p99 back to back, so only the first query sorts; Observe
	// clears it.
	sorted bool
}

// Observe records one sample.
func (h *Histogram) Observe(d time.Duration) {
	h.samples = append(h.samples, d)
	h.sum += d
	h.sorted = false
}

// Mean returns the average of all observations.
func (h *Histogram) Mean() time.Duration {
	if len(h.samples) == 0 {
		return 0
	}
	return h.sum / time.Duration(len(h.samples))
}

// Percentile returns the q-quantile (0 < q <= 1) of all observations.
func (h *Histogram) Percentile(q float64) time.Duration {
	if len(h.samples) == 0 {
		return 0
	}
	if !h.sorted {
		slices.Sort(h.samples)
		h.sorted = true
	}
	s := h.samples
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

// Markdown renders the table as a markdown table.
func (t *Table) Markdown() string {
	s := "| " + strings.Join(t.header, " | ") + " |\n" + strings.Repeat("|---", len(t.header)) + "|\n"
	for _, row := range t.rows {
		s += "| " + strings.Join(row, " | ") + " |\n"
	}
	return s
}
