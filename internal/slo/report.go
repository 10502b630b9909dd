package slo

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// OpReport is one op class's rolling summary at report time.
type OpReport struct {
	Op      string
	Summary Summary
}

// Report is an immutable end-of-run snapshot of an Engine: the full event
// log, the final alert/health state, and the closing window summaries.
type Report struct {
	// End is the virtual instant the report was taken.
	End time.Duration
	// Spec is the evaluated (defaulted) SLO spec.
	Spec Spec
	// Events is the full deterministic event log.
	Events []Event
	// Firing counts burn-rate alerts still firing at End.
	Firing int
	// Cluster and Levels are the closing health states.
	Cluster Level
	Levels  map[string]Level
	// Ops are the closing per-op window summaries (sorted by op); All is
	// their merge.
	Ops []OpReport
	All Summary
}

// Pages and Tickets count fired alerts of each severity.
func (r *Report) Pages() int   { return r.countFires(SevPage) }
func (r *Report) Tickets() int { return r.countFires(SevTicket) }

func (r *Report) countFires(sev Severity) int {
	n := 0
	for _, e := range r.Events {
		if e.Kind == EventAlertFire && e.Severity == sev {
			n++
		}
	}
	return n
}

// FirstDetection returns the first degrading event at or after the given
// virtual instant — the signal a fault injected then was detected — and
// whether one exists.
func (r *Report) FirstDetection(after time.Duration) (Event, bool) {
	for _, e := range r.Events {
		if e.Degrading && e.At >= after {
			return e, true
		}
	}
	return Event{}, false
}

// Render writes the report as a deterministic text timeline: closing op
// summaries, health states, then the event log.
func (r *Report) Render() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "SLO report @ %s  availability %g%%  alerts firing: %d  cluster: %s\n",
		fmtDur(r.End), availability*100, r.Firing, r.Cluster)

	fmt.Fprintf(&b, "\n%-10s %10s %10s %10s %10s %10s %10s\n",
		"op", "count", "err%", "rate/s", "p50", "p95", "p99")
	row := func(name string, m Summary) {
		fmt.Fprintf(&b, "%-10s %10d %9.2f%% %10.1f %10s %10s %10s\n",
			name, m.Count, m.ErrorFraction()*100, m.Rate(),
			fmtDur(m.Percentile(0.50)), fmtDur(m.Percentile(0.95)), fmtDur(m.Percentile(0.99)))
	}
	for _, o := range r.Ops {
		row(o.Op, o.Summary)
	}
	row("(all)", r.All)

	if len(r.Levels) > 0 {
		names := make([]string, 0, len(r.Levels))
		for n := range r.Levels {
			names = append(names, n)
		}
		sort.Strings(names)
		b.WriteString("\nhealth:")
		for _, n := range names {
			fmt.Fprintf(&b, "  %s=%s", n, r.Levels[n])
		}
		b.WriteByte('\n')
	}

	fmt.Fprintf(&b, "\nevents (%d):\n", len(r.Events))
	if len(r.Events) == 0 {
		b.WriteString("  (none)\n")
	}
	for _, e := range r.Events {
		b.WriteString("  " + e.String() + "\n")
	}
	return b.String()
}
