package slo

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"hopsfscl/internal/trace"
)

// Reason is the bitmask of why an exemplar was pinned.
type Reason uint8

const (
	// ReasonBreach marks an op that finished over its latency objective's
	// target (the op's own objective, falling back to the "*" aggregate).
	ReasonBreach Reason = 1 << iota
	// ReasonBurn marks an op that completed while at least one burn-rate
	// alert was firing.
	ReasonBurn
	// ReasonSlowest marks the slowest op of its capture window.
	ReasonSlowest
)

func (r Reason) String() string {
	if r == 0 {
		return "none"
	}
	var parts []string
	if r&ReasonBreach != 0 {
		parts = append(parts, "p99-breach")
	}
	if r&ReasonBurn != 0 {
		parts = append(parts, "burn-firing")
	}
	if r&ReasonSlowest != 0 {
		parts = append(parts, "window-slowest")
	}
	return strings.Join(parts, "+")
}

// Exemplar is one pinned operation: its full detailed span tree plus why
// it was kept. The root span renders through the critical-path profiler
// (profile.Analyze) for a per-exemplar "where the time went" breakdown.
type Exemplar struct {
	Op string
	// At is the op's virtual end instant; Latency its end-to-end time.
	At      time.Duration
	Latency time.Duration
	// Target is the latency objective the op was judged against (0 when
	// the spec has no applicable objective).
	Target time.Duration
	Reason Reason
	Root   *trace.Span
}

// ExemplarConfig bounds the store.
type ExemplarConfig struct {
	// PerOp is the max pinned exemplars per op class (default 4). The
	// slowest qualifying ops win: rank by latency desc, then earlier end
	// instant, then span ID, so a fixed seed pins a byte-identical set.
	PerOp int
	// Window is the slowest-op capture window: every Window of virtual
	// time, the slowest completed op is pinned even when nothing breaches
	// (default 1s), so quiet runs still yield exemplars.
	Window time.Duration
}

func (c ExemplarConfig) withDefaults() ExemplarConfig {
	if c.PerOp <= 0 {
		c.PerOp = 4
	}
	if c.Window <= 0 {
		c.Window = time.Second
	}
	return c
}

// Exemplars is a bounded deterministic store of outlier span trees,
// subscribed to the tracer's finished detailed roots. It pins ops that
// breach their latency objective, ops that complete while a burn alert is
// firing, and the slowest op of every capture window — the retrieval half
// of tail-based sampling: aggregates say that p99 degraded, exemplars say
// which op, on which path, spent the time where.
type Exemplars struct {
	cfg ExemplarConfig

	mu  sync.Mutex // guards everything below
	eng *Engine
	// targets maps op class -> objective target; fallback is the "*" row.
	targets  map[string]time.Duration
	fallback time.Duration
	// perOp holds each class's pinned exemplars, ordered best-first by
	// (latency desc, At asc, ID asc).
	perOp map[string][]*Exemplar
	// slot is the current capture window index; slotBest the slowest root
	// seen in it so far.
	slot     int64
	slotBest *Exemplar
	seen     int64
}

// NewExemplars builds a store judging ops against eng's spec (eng may be
// nil: no objectives, no burn gating — only window-slowest pinning).
func NewExemplars(eng *Engine, cfg ExemplarConfig) *Exemplars {
	x := &Exemplars{cfg: cfg.withDefaults(), perOp: make(map[string][]*Exemplar)}
	x.SetEngine(eng)
	return x
}

// SetEngine rebinds the store to eng: from now on ops are judged against
// eng's latency objectives and burn gating follows eng's alerter. A
// deployment calls it when the SLO engine is attached after the store, so
// the two can be enabled in either order. Nil stores ignore the call.
func (x *Exemplars) SetEngine(eng *Engine) {
	if x == nil {
		return
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	x.eng = eng
	x.targets = make(map[string]time.Duration)
	x.fallback = 0
	if eng == nil {
		return
	}
	for _, o := range eng.Spec().Latency {
		if o.Op == "*" {
			x.fallback = o.Target
		} else {
			x.targets[o.Op] = o.Target
		}
	}
}

// target returns the objective target judged against op (0 if none).
// Caller holds x.mu.
func (x *Exemplars) target(op string) time.Duration {
	if t, ok := x.targets[op]; ok {
		return t
	}
	return x.fallback
}

// Observe judges one finished detailed root span; it is the store's
// trace.SpanObserver. Nil stores and non-root spans are ignored.
func (x *Exemplars) Observe(root *trace.Span) {
	if x == nil || root == nil {
		return
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	lat := root.End - root.Start
	target := x.target(root.Name)
	var reason Reason
	if target > 0 && lat > target {
		reason |= ReasonBreach
	}
	if x.eng.Firing() > 0 {
		reason |= ReasonBurn
	}
	x.seen++
	ex := &Exemplar{Op: root.Name, At: root.End, Latency: lat, Target: target, Reason: reason, Root: root}

	// Window-slowest tracking: when the op's end crosses into a new
	// window, commit the previous window's slowest.
	slot := int64(root.End / x.cfg.Window)
	if slot > x.slot {
		x.commitSlotLocked()
		x.slot = slot
	}
	if slot == x.slot && better(ex, x.slotBest) {
		x.slotBest = ex
	}

	if reason != 0 {
		x.pinLocked(ex)
	}
}

// better orders exemplars best-first: latency desc, At asc, ID asc.
func better(a, b *Exemplar) bool {
	if b == nil {
		return true
	}
	if a.Latency != b.Latency {
		return a.Latency > b.Latency
	}
	if a.At != b.At {
		return a.At < b.At
	}
	return a.Root.ID < b.Root.ID
}

// commitSlotLocked pins the pending window's slowest op. Caller holds x.mu.
func (x *Exemplars) commitSlotLocked() {
	if x.slotBest == nil {
		return
	}
	x.slotBest.Reason |= ReasonSlowest
	x.pinLocked(x.slotBest)
	x.slotBest = nil
}

// pinLocked inserts ex into its class's bounded best-first list (dedup by
// root span ID, merging reasons). Caller holds x.mu.
func (x *Exemplars) pinLocked(ex *Exemplar) {
	list := x.perOp[ex.Op]
	for _, e := range list {
		if e.Root == ex.Root {
			e.Reason |= ex.Reason
			return
		}
	}
	i := sort.Search(len(list), func(i int) bool { return !better(list[i], ex) })
	if i >= x.cfg.PerOp {
		return // ranks below every kept exemplar of a full class
	}
	list = append(list, nil)
	copy(list[i+1:], list[i:])
	list[i] = ex
	if len(list) > x.cfg.PerOp {
		list = list[:x.cfg.PerOp]
	}
	x.perOp[ex.Op] = list
}

// ExemplarClass is one op class's pinned exemplars, best-first.
type ExemplarClass struct {
	Op string
	// Target is the latency objective the class was judged against.
	Target    time.Duration
	Exemplars []*Exemplar
}

// ExemplarReport is an immutable snapshot of the store.
type ExemplarReport struct {
	At time.Duration
	// Seen counts every judged root; Pinned the exemplars retained.
	Seen, Pinned int64
	Classes      []ExemplarClass
}

// Report snapshots the store at virtual instant now, committing the
// in-flight capture window first so a run's last window is not lost.
func (x *Exemplars) Report(now time.Duration) *ExemplarReport {
	if x == nil {
		return nil
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	x.commitSlotLocked()
	r := &ExemplarReport{At: now, Seen: x.seen}
	ops := make([]string, 0, len(x.perOp))
	for op := range x.perOp {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		list := x.perOp[op]
		if len(list) == 0 {
			continue
		}
		r.Classes = append(r.Classes, ExemplarClass{
			Op:        op,
			Target:    x.target(op),
			Exemplars: append([]*Exemplar(nil), list...),
		})
		r.Pinned += int64(len(list))
	}
	return r
}

// Class returns the report's class for op, or nil.
func (r *ExemplarReport) Class(op string) *ExemplarClass {
	if r == nil {
		return nil
	}
	for i := range r.Classes {
		if r.Classes[i].Op == op {
			return &r.Classes[i]
		}
	}
	return nil
}

// Render formats the pinned set as deterministic text, one block per op
// class. The per-exemplar critical-path breakdown is rendered by callers
// holding the profiler (see bench and cmd/hopstrace): slo stays a leaf
// over trace.
func (r *ExemplarReport) Render() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "exemplars: %d pinned of %d ops judged\n", r.Pinned, r.Seen)
	for _, c := range r.Classes {
		target := "none"
		if c.Target > 0 {
			target = c.Target.String()
		}
		fmt.Fprintf(&b, "op %s (objective target %s):\n", c.Op, target)
		for i, ex := range c.Exemplars {
			fmt.Fprintf(&b, "  #%d span=%d end=%s latency=%s reason=%s\n",
				i+1, ex.Root.ID, ex.At, ex.Latency, ex.Reason)
		}
	}
	return b.String()
}
