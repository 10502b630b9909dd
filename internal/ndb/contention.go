package ndb

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"hopsfscl/internal/metrics"
)

// This file is the contention ledger: when a transaction blocks on a row
// lock, the cluster records who waited on whom — (table, lock mode, waiter
// operation type, holder operation type, wait duration) — into a bounded,
// deterministic aggregate. The paper attributes HopsFS's behavior under
// load to hierarchical lock contention (§V-C/V-E); the ledger turns the
// existing txn.lock_wait total into "which op blocked which op on which
// table".
//
// The kernel runs one process at a time, so the ledger needs no locking
// (the same discipline as Cluster.Stats). The bound is deterministic:
// overflow never depends on map iteration.

// lockModeLabel names a lock mode for reports and metric labels.
func lockModeLabel(m LockMode) string {
	switch m {
	case LockShared:
		return "S"
	case LockExclusive:
		return "X"
	default:
		return "?"
	}
}

// contKey aggregates blocking events by everything the report groups on.
type contKey struct {
	table  string
	holder string
	waiter string
	mode   LockMode
}

// ContentionEntry is the aggregate for one (table, holder op, waiter op,
// lock mode) combination.
type ContentionEntry struct {
	Table    string
	Holder   string
	Waiter   string
	Mode     LockMode
	Count    int64
	Timeouts int64
	Total    time.Duration
	Max      time.Duration
}

// ContentionLedger is the bounded record of lock blocking in one cluster.
type ContentionLedger struct {
	capKeys     int
	entries     map[contKey]*ContentionEntry
	droppedKeys int64
	events      int64
}

// ledger sizing: generous enough that real runs never overflow (tables ×
// op-type pairs is small), bounded so a pathological workload cannot grow
// without limit.
const contCapKeys = 1024

func newContentionLedger() *ContentionLedger {
	return &ContentionLedger{
		capKeys: contCapKeys,
		entries: make(map[contKey]*ContentionEntry),
	}
}

// record folds one resolved blocking event into the ledger.
func (l *ContentionLedger) record(table, holder, waiter string, mode LockMode, wait time.Duration, timedOut bool) {
	if l == nil {
		return
	}
	l.events++
	key := contKey{table: table, holder: holder, waiter: waiter, mode: mode}
	e := l.entries[key]
	if e == nil {
		if len(l.entries) >= l.capKeys {
			// Bounded: overflow folds into a catch-all bucket so totals
			// stay exact even when the key space is exhausted.
			l.droppedKeys++
			key = contKey{table: "(other)", holder: "(other)", waiter: "(other)"}
			if e = l.entries[key]; e == nil {
				e = &ContentionEntry{Table: key.table, Holder: key.holder, Waiter: key.waiter}
				l.entries[key] = e
			}
		} else {
			e = &ContentionEntry{Table: table, Holder: holder, Waiter: waiter, Mode: mode}
			l.entries[key] = e
		}
	}
	e.Count++
	e.Total += wait
	if wait > e.Max {
		e.Max = wait
	}
	if timedOut {
		e.Timeouts++
	}
}

// Events returns how many blocking events the ledger has seen.
func (l *ContentionLedger) Events() int64 {
	if l == nil {
		return 0
	}
	return l.events
}

// Entries returns the aggregated blocking entries ordered by total wait
// descending, with (table, holder, waiter, mode) as the deterministic
// tie-break.
func (l *ContentionLedger) Entries() []ContentionEntry {
	if l == nil {
		return nil
	}
	out := make([]ContentionEntry, 0, len(l.entries))
	for _, e := range l.entries {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Total != b.Total {
			return a.Total > b.Total
		}
		if a.Table != b.Table {
			return a.Table < b.Table
		}
		if a.Holder != b.Holder {
			return a.Holder < b.Holder
		}
		if a.Waiter != b.Waiter {
			return a.Waiter < b.Waiter
		}
		return a.Mode < b.Mode
	})
	return out
}

// TableContention is the per-table rollup of the ledger.
type TableContention struct {
	Table    string
	Count    int64
	Timeouts int64
	Total    time.Duration
	Max      time.Duration
}

// TopTables returns up to n tables by total blocked time descending (table
// name breaks ties).
func (l *ContentionLedger) TopTables(n int) []TableContention {
	if l == nil {
		return nil
	}
	agg := make(map[string]*TableContention)
	for _, e := range l.entries {
		t := agg[e.Table]
		if t == nil {
			t = &TableContention{Table: e.Table}
			agg[e.Table] = t
		}
		t.Count += e.Count
		t.Timeouts += e.Timeouts
		t.Total += e.Total
		if e.Max > t.Max {
			t.Max = e.Max
		}
	}
	out := make([]TableContention, 0, len(agg))
	for _, t := range agg {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Table < out[j].Table
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Render formats the ledger as the two tables operators ask for: top
// contended tables and top blocking op pairs, each limited to n rows.
func (l *ContentionLedger) Render(n int) string {
	if l == nil || l.events == 0 {
		return "(no lock contention recorded)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "top contended tables (%d blocking events", l.events)
	if l.droppedKeys > 0 {
		fmt.Fprintf(&b, ", %d folded into (other)", l.droppedKeys)
	}
	b.WriteString("):\n")
	tt := metrics.NewTable("table", "blocks", "timeouts", "total wait", "max wait")
	for _, t := range l.TopTables(n) {
		tt.AddRow(t.Table,
			fmt.Sprintf("%d", t.Count),
			fmt.Sprintf("%d", t.Timeouts),
			fmt.Sprintf("%.3fms", float64(t.Total)/1e6),
			fmt.Sprintf("%.3fms", float64(t.Max)/1e6))
	}
	b.WriteString(tt.String())

	b.WriteString("\ntop blocking op pairs (holder -> waiter):\n")
	pt := metrics.NewTable("holder", "waiter", "table", "mode", "blocks", "total wait", "mean wait")
	entries := l.Entries()
	if n > 0 && len(entries) > n {
		entries = entries[:n]
	}
	for _, e := range entries {
		mean := time.Duration(0)
		if e.Count > 0 {
			mean = e.Total / time.Duration(e.Count)
		}
		pt.AddRow(e.Holder, e.Waiter, e.Table, lockModeLabel(e.Mode),
			fmt.Sprintf("%d", e.Count),
			fmt.Sprintf("%.3fms", float64(e.Total)/1e6),
			fmt.Sprintf("%.3fms", float64(mean)/1e6))
	}
	b.WriteString(pt.String())
	return b.String()
}
