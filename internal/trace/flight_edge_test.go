package trace

import (
	"strings"
	"testing"
	"time"
)

// checkCSVWellFormed parses a flight CSV and asserts rectangular shape
// and finite cells: every row has the header's column count and no cell
// renders as NaN or a signed infinity.
func checkCSVWellFormed(t *testing.T, csv string) {
	t.Helper()
	lines := strings.Split(strings.TrimRight(csv, "\n"), "\n")
	if len(lines) == 0 || !strings.HasPrefix(lines[0], "t_ms") {
		t.Fatalf("csv header missing t_ms:\n%s", csv)
	}
	width := len(strings.Split(lines[0], ","))
	for i, line := range lines {
		if got := len(strings.Split(line, ",")); got != width {
			t.Fatalf("row %d has %d cells, header has %d:\n%s", i, got, width, csv)
		}
		for _, bad := range []string{"NaN", "Inf", "inf", "nan"} {
			if strings.Contains(line, bad) {
				t.Fatalf("row %d contains %s:\n%s", i, bad, csv)
			}
		}
	}
}

// TestFlightCSVEmptyWindow checks that a recorder that never captured a
// frame still writes a well-formed (header-only) CSV.
func TestFlightCSVEmptyWindow(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("op.stat.count").Add(5)
	fr := NewFlightRecorder(reg, 8)

	var b strings.Builder
	if err := fr.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	csv := b.String()
	if csv != "t_ms\n" {
		t.Fatalf("empty-window csv = %q, want header-only \"t_ms\\n\"", csv)
	}
	checkCSVWellFormed(t, csv)
}

// TestFlightCSVSingleSnapshot checks the one-frame case: counters delta
// against an implicit zero baseline, gauges keep point values, and every
// cell is finite.
func TestFlightCSVSingleSnapshot(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("op.stat.count").Add(7)
	reg.Gauge("op.stat.p99_ms").Set(2.5)
	reg.Gauge("op.stat.idle").Set(0)
	fr := NewFlightRecorder(reg, 8)
	fr.Record(10 * time.Millisecond)

	var b strings.Builder
	if err := fr.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	csv := b.String()
	checkCSVWellFormed(t, csv)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 2 {
		t.Fatalf("single snapshot produced %d lines, want header + 1 row:\n%s", len(lines), csv)
	}
	// First delta of a counter is its absolute value.
	if !strings.HasPrefix(lines[1], "10,") || !strings.Contains(lines[1], "7") || !strings.Contains(lines[1], "2.5") {
		t.Fatalf("row = %q, want t=10 with counter 7 and gauge 2.5", lines[1])
	}
}

// TestFlightCSVZeroMatchFilter checks a Keep prefix matching no series:
// frames are captured (probes still run), but only probe columns appear,
// and with no probes the rows are timestamps only.
func TestFlightCSVZeroMatchFilter(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("op.stat.count").Add(3)
	fr := NewFlightRecorder(reg, 8)
	fr.Keep("heat.nonexistent.")
	fr.Record(10 * time.Millisecond)
	fr.Record(20 * time.Millisecond)

	var b strings.Builder
	if err := fr.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	csv := b.String()
	checkCSVWellFormed(t, csv)
	if csv != "t_ms\n10\n20\n" {
		t.Fatalf("zero-match csv = %q, want timestamp-only rows", csv)
	}
}
