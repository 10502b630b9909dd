// Package profile turns captured span trees into answers: for every traced
// operation it extracts the critical path — the chain of spans that actually
// gated completion, in the style of Canopy's blocked-time analysis — and
// attributes each nanosecond of it to a category: lock wait, a 2PC phase,
// a network hop class, or metadata-server compute. Aggregated per operation
// type, the result is a "where the time went" table; per span stack, it is
// folded-stack flamegraph input.
//
// Everything here is deterministic: given the same spans, every report is
// byte-identical. Ordering never depends on map iteration; ties break on
// span ID or name.
package profile

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"hopsfscl/internal/metrics"
	"hopsfscl/internal/trace"
)

// Category is one bucket of critical-path time.
type Category int

// Categories, in report column order.
const (
	// CatLockWait is time parked on a contended row lock.
	CatLockWait Category = iota
	// CatPrepare, CatCommit and CatComplete are the 2PC passes of §II-B2,
	// excluding the network time within them (attributed to hop classes).
	CatPrepare
	CatCommit
	CatComplete
	// CatHopLocal..CatHopCrossAZ are network wire time by endpoint
	// proximity (queueing + transmission + propagation).
	CatHopLocal
	CatHopSameHost
	CatHopSameZone
	CatHopCrossAZ
	// CatCompute is everything else on the critical path: CPU charged on
	// metadata servers and storage threads, and instrumentation-free gaps.
	CatCompute

	NumCategories
)

// String returns the category's report label.
func (c Category) String() string {
	switch c {
	case CatLockWait:
		return "lock_wait"
	case CatPrepare:
		return "2pc.prepare"
	case CatCommit:
		return "2pc.commit"
	case CatComplete:
		return "2pc.complete"
	case CatHopLocal:
		return "net.local"
	case CatHopSameHost:
		return "net.same_host"
	case CatHopSameZone:
		return "net.same_zone"
	case CatHopCrossAZ:
		return "net.cross_az"
	case CatCompute:
		return "compute"
	default:
		return "?"
	}
}

// hopCategory maps a trace hop class to its attribution category.
var hopCategory = [trace.NumHopClasses]Category{
	trace.HopLocal:     CatHopLocal,
	trace.HopSameHost:  CatHopSameHost,
	trace.HopSameZone:  CatHopSameZone,
	trace.HopCrossZone: CatHopCrossAZ,
}

// spanCategory is the bucket a span's non-network critical self time lands
// in, keyed by the span names the instrumentation uses (ndb's 2PC
// phase children, lockRowOn's lock_wait child).
func spanCategory(name string) Category {
	switch name {
	case "lock_wait":
		return CatLockWait
	case "prepare":
		return CatPrepare
	case "commit":
		return CatCommit
	case "complete":
		return CatComplete
	default:
		return CatCompute
	}
}

// OpProfile is the aggregated critical-path attribution for one operation
// type.
type OpProfile struct {
	Op     string
	Count  int64
	Errors int64
	// Total is the summed root duration — by construction also the summed
	// critical-path time, since the critical path tiles the root exactly.
	Total time.Duration
	// ByCat splits Total across attribution categories.
	ByCat [NumCategories]time.Duration
}

// Mean returns the mean critical-path (= end-to-end) time per operation.
func (o *OpProfile) Mean() time.Duration {
	if o.Count == 0 {
		return 0
	}
	return o.Total / time.Duration(o.Count)
}

// Report is the full attribution analysis of a span set.
type Report struct {
	// Ops holds per-operation-type profiles, ordered by total critical-path
	// time descending (op name breaks ties).
	Ops []*OpProfile
	// Spans is how many root spans the report covers.
	Spans int
}

// spanStat is the per-span working state of one root analysis.
type spanStat struct {
	span   *trace.Span
	parent *spanStat
	// actualSelf is the span's wall time not covered by children (the
	// union of child intervals subtracted from the span's own extent).
	actualSelf time.Duration
	// critSelf is how much of the root's critical path this span's self
	// time contributes.
	critSelf time.Duration
	// hopTime is the span's own wire time per class: for the root, the
	// tree total minus every descendant's share (hops are recorded on both
	// the root and the active child).
	hopTime [trace.NumHopClasses]time.Duration
}

// Analyze extracts and attributes the critical path of every root span.
// Non-root spans in the input are ignored; a nil or empty input yields an
// empty report.
func Analyze(spans []*trace.Span) *Report {
	byOp := make(map[string]*OpProfile)
	n := 0
	for _, root := range spans {
		if root == nil || root.Root() != root {
			continue
		}
		n++
		op := byOp[root.Name]
		if op == nil {
			op = &OpProfile{Op: root.Name}
			byOp[root.Name] = op
		}
		op.Count++
		if root.Err {
			op.Errors++
		}
		op.Total += root.Duration()
		var cats [NumCategories]time.Duration
		analyzeRoot(root, &cats)
		for c := range cats {
			op.ByCat[c] += cats[c]
		}
	}
	rep := &Report{Spans: n}
	for _, op := range byOp {
		rep.Ops = append(rep.Ops, op)
	}
	sort.Slice(rep.Ops, func(i, j int) bool {
		if rep.Ops[i].Total != rep.Ops[j].Total {
			return rep.Ops[i].Total > rep.Ops[j].Total
		}
		return rep.Ops[i].Op < rep.Ops[j].Op
	})
	return rep
}

// analyzeRoot attributes one root's critical path into cats.
func analyzeRoot(root *trace.Span, cats *[NumCategories]time.Duration) {
	stats := buildStats(root)
	walkCritical(root, root.Start, root.End, func(s *trace.Span, d time.Duration) {
		stats[s].critSelf += d
	})
	for _, st := range orderedStats(stats) {
		attributeSpan(st, func(c Category, d time.Duration) {
			cats[c] += d
		})
	}
}

// attributeSpan splits one span's critical self time between its hop
// classes and its own category. Hop time is scaled by the fraction of the
// span's actual self time that sits on the critical path; the remainder is
// the span's own category (compute, lock wait, or a 2PC phase).
func attributeSpan(st *spanStat, emit func(Category, time.Duration)) {
	if st.critSelf <= 0 {
		return
	}
	scale := 1.0
	if st.actualSelf > 0 {
		scale = float64(st.critSelf) / float64(st.actualSelf)
		if scale > 1 {
			scale = 1
		}
	} else {
		scale = 0
	}
	var hopTotal time.Duration
	var hopShare [trace.NumHopClasses]time.Duration
	for c := range st.hopTime {
		hopShare[c] = time.Duration(float64(st.hopTime[c]) * scale)
		hopTotal += hopShare[c]
	}
	if hopTotal > st.critSelf {
		// Rounding (or hops recorded past the span's measured extent) can
		// push the scaled shares over the budget; squeeze proportionally.
		f := float64(st.critSelf) / float64(hopTotal)
		hopTotal = 0
		for c := range hopShare {
			hopShare[c] = time.Duration(float64(hopShare[c]) * f)
			hopTotal += hopShare[c]
		}
	}
	for c := range hopShare {
		if hopShare[c] > 0 {
			emit(hopCategory[c], hopShare[c])
		}
	}
	if rest := st.critSelf - hopTotal; rest > 0 {
		emit(spanCategory(st.span.Name), rest)
	}
}

// buildStats walks the tree computing per-span actual self time and own hop
// time (root hop totals minus all descendants' shares).
func buildStats(root *trace.Span) map[*trace.Span]*spanStat {
	stats := make(map[*trace.Span]*spanStat)
	var walk func(s *trace.Span, parent *spanStat)
	walk = func(s *trace.Span, parent *spanStat) {
		st := &spanStat{span: s, parent: parent, actualSelf: selfTime(s), hopTime: s.HopTime}
		stats[s] = st
		for _, c := range s.Children {
			walk(c, st)
		}
	}
	walk(root, nil)
	rootStat := stats[root]
	for _, st := range stats {
		if st == rootStat {
			continue
		}
		for c := range st.hopTime {
			rootStat.hopTime[c] -= st.hopTime[c]
		}
	}
	for c := range rootStat.hopTime {
		if rootStat.hopTime[c] < 0 {
			rootStat.hopTime[c] = 0
		}
	}
	return stats
}

// orderedStats returns stats values in deterministic order (span ID, with
// start time then name as the fallback for aggregate-mode zero IDs).
func orderedStats(stats map[*trace.Span]*spanStat) []*spanStat {
	out := make([]*spanStat, 0, len(stats))
	for _, st := range stats {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].span, out[j].span
		if a.ID != b.ID {
			return a.ID < b.ID
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Name < b.Name
	})
	return out
}

// selfTime returns the span's wall time not covered by its children: its
// extent minus the union of child intervals (children may overlap — the
// commit chain's parallel fan-outs — and may spill past the parent's end).
func selfTime(s *trace.Span) time.Duration {
	if len(s.Children) == 0 {
		return s.Duration()
	}
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(s.Children))
	for _, c := range s.Children {
		lo, hi := c.Start, c.End
		if lo < s.Start {
			lo = s.Start
		}
		if hi > s.End {
			hi = s.End
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered := time.Duration(0)
	var curLo, curHi time.Duration
	started := false
	for _, v := range ivs {
		if !started || v.lo > curHi {
			if started {
				covered += curHi - curLo
			}
			curLo, curHi = v.lo, v.hi
			started = true
			continue
		}
		if v.hi > curHi {
			curHi = v.hi
		}
	}
	if started {
		covered += curHi - curLo
	}
	return s.Duration() - covered
}

// walkCritical walks the critical path of s within [lo, hi], emitting one
// self segment per blocking stretch. The algorithm is the classic
// last-finishing-child walk: scanning children by descending end time, the
// child that finishes last is what the parent was waiting on; the gap after
// it is the parent's own blocking time, and the walk recurses into the
// child for the interval it owned. Segments tile [lo, hi] exactly.
func walkCritical(s *trace.Span, lo, hi time.Duration, emit func(*trace.Span, time.Duration)) {
	t := hi
	if len(s.Children) > 0 {
		kids := make([]*trace.Span, len(s.Children))
		copy(kids, s.Children)
		sort.Slice(kids, func(i, j int) bool {
			if kids[i].End != kids[j].End {
				return kids[i].End > kids[j].End
			}
			return kids[i].ID > kids[j].ID
		})
		for _, c := range kids {
			if t <= lo {
				break
			}
			cEnd, cStart := c.End, c.Start
			if cEnd > t {
				cEnd = t
			}
			if cStart < lo {
				cStart = lo
			}
			if cEnd <= cStart {
				continue
			}
			if cEnd < t {
				emit(s, t-cEnd)
			}
			walkCritical(c, cStart, cEnd, emit)
			t = cStart
		}
	}
	if t > lo {
		emit(s, t-lo)
	}
}

// Table renders the report as a fixed-width attribution table: one row per
// op type, with the share of critical-path time per category. A nil or
// empty report renders a placeholder line.
func (r *Report) Table() string {
	if r == nil || len(r.Ops) == 0 {
		return "(no traced operations)\n"
	}
	header := []string{"op", "ops", "err", "mean"}
	for c := Category(0); c < NumCategories; c++ {
		header = append(header, c.String())
	}
	tbl := metrics.NewTable(header...)
	addRow := func(label string, count, errs int64, mean time.Duration, byCat [NumCategories]time.Duration, total time.Duration) {
		row := []string{
			label,
			fmt.Sprintf("%d", count),
			fmt.Sprintf("%d", errs),
			fmt.Sprintf("%.3fms", float64(mean)/1e6),
		}
		for c := Category(0); c < NumCategories; c++ {
			row = append(row, pct(byCat[c], total))
		}
		tbl.AddRow(row...)
	}
	var all OpProfile
	for _, o := range r.Ops {
		addRow(o.Op, o.Count, o.Errors, o.Mean(), o.ByCat, o.Total)
		all.Count += o.Count
		all.Errors += o.Errors
		all.Total += o.Total
		for c := range o.ByCat {
			all.ByCat[c] += o.ByCat[c]
		}
	}
	if len(r.Ops) > 1 {
		addRow("TOTAL", all.Count, all.Errors, all.Mean(), all.ByCat, all.Total)
	}
	return tbl.String()
}

// Totals returns the report's whole-run attribution — summed per-category
// time and the grand total — for callers building cross-configuration
// comparison tables.
func (r *Report) Totals() (byCat [NumCategories]time.Duration, total time.Duration) {
	if r == nil {
		return
	}
	for _, o := range r.Ops {
		total += o.Total
		for c := range o.ByCat {
			byCat[c] += o.ByCat[c]
		}
	}
	return
}

// PctCell renders part/total as a percentage table cell ("-" below 0.05%),
// matching Table's formatting.
func PctCell(part, total time.Duration) string { return pct(part, total) }

// pct renders part/total as a percentage cell ("-" below 0.05%).
func pct(part, total time.Duration) string {
	if total <= 0 || part <= 0 {
		return "-"
	}
	p := float64(part) / float64(total) * 100
	if p < 0.05 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", p)
}

// FoldedStacks renders spans in the folded-stack format flamegraph tools
// consume: "root;child;leaf <nanoseconds>" per line, with the critical-path
// self time of each span under its name stack and its attributed network
// time under a "net.<class>" pseudo-leaf. Lines are sorted; identical
// stacks aggregate.
func FoldedStacks(spans []*trace.Span) string {
	folded := make(map[string]time.Duration)
	for _, root := range spans {
		if root == nil || root.Root() != root {
			continue
		}
		stats := buildStats(root)
		walkCritical(root, root.Start, root.End, func(s *trace.Span, d time.Duration) {
			stats[s].critSelf += d
		})
		for _, st := range orderedStats(stats) {
			stack := stackOf(st)
			attributeSpan(st, func(c Category, d time.Duration) {
				key := stack
				switch c {
				case CatHopLocal, CatHopSameHost, CatHopSameZone, CatHopCrossAZ:
					key = stack + ";" + c.String()
				}
				folded[key] += d
			})
		}
	}
	keys := make([]string, 0, len(folded))
	for k := range folded {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %d\n", k, folded[k].Nanoseconds())
	}
	return b.String()
}

// stackOf renders the semicolon-joined name chain from root to st.
func stackOf(st *spanStat) string {
	var names []string
	for s := st; s != nil; s = s.parent {
		names = append(names, s.span.Name)
	}
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	return strings.Join(names, ";")
}
