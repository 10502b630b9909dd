package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// SpanID identifies a span within one Tracer. IDs are assigned from a
// deterministic sequence, so a fixed-seed simulation produces identical IDs.
type SpanID uint64

// HopClass classifies a network message by the proximity of its endpoints.
type HopClass uint8

// Hop classes, from cheapest to most expensive.
const (
	HopLocal     HopClass = iota // same simulated node (loopback)
	HopSameHost                  // distinct nodes co-located on one host
	HopSameZone                  // same availability zone, different hosts
	HopCrossZone                 // crosses an availability-zone boundary

	NumHopClasses = 4
)

// String returns the class's label as used in registry metric names.
func (h HopClass) String() string {
	switch h {
	case HopLocal:
		return "local"
	case HopSameHost:
		return "same_host"
	case HopSameZone:
		return "same_zone"
	case HopCrossZone:
		return "cross_az"
	default:
		return "?"
	}
}

// Attr is one key/value annotation on a span.
type Attr struct{ Key, Value string }

// Span is one timed region of an operation: the root span covers a whole
// client operation, child spans cover transaction attempts, 2PC phases and
// lock waits. Network hops are attributed to the root of the enclosing
// span tree regardless of which child was active.
//
// All methods are nil-safe: instrumentation sites call them unconditionally
// and pay only a nil check when tracing is off.
type Span struct {
	ID     SpanID
	Parent SpanID
	Name   string
	// Start and End are virtual-time offsets since simulation start.
	Start time.Duration
	End   time.Duration
	Err   bool
	// Benign marks an error as an expected application outcome (a stat of
	// an absent path, a create of an existing one). Benign errors still
	// count in op.<name>.errors but are not availability failures: the
	// operation observer reports them as successes, the way an HTTP SLO
	// counts 5xx but not 4xx against the error budget.
	Benign bool

	Attrs    []Attr
	Children []*Span

	// HopCount and HopBytes tally network messages by proximity class.
	// On the root span they cover the whole tree; on detailed children
	// they cover just that child's extent. HopTime accumulates the
	// virtual time those messages spent in flight (queueing, transmission
	// and propagation), the raw material of critical-path attribution.
	HopCount [NumHopClasses]int64
	HopBytes [NumHopClasses]int64
	HopTime  [NumHopClasses]time.Duration

	tracer   *Tracer
	root     *Span
	detailed bool
}

// Duration returns the span's elapsed virtual time.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	return s.End - s.Start
}

// Child opens a child span. Children exist only in detailed mode (sink
// enabled); otherwise Child returns nil, and the nil span swallows all
// further calls.
func (s *Span) Child(name string, now time.Duration) *Span {
	if s == nil || !s.detailed {
		return nil
	}
	t := s.root.tracer
	c := &Span{ID: SpanID(t.seq.Add(1)), Parent: s.ID, Name: name, Start: now, root: s.root, detailed: true}
	s.Children = append(s.Children, c)
	return c
}

// SetAttr annotates the span. Attributes exist only in detailed mode.
func (s *Span) SetAttr(key, value string) {
	if s == nil || !s.detailed {
		return
	}
	// Replace, don't append: a key set twice on one span (e.g. op.batched
	// when a rename batch-resolves both of its paths) keeps the last value.
	for i := range s.Attrs {
		if s.Attrs[i].Key == key {
			s.Attrs[i].Value = value
			return
		}
	}
	s.Attrs = append(s.Attrs, Attr{key, value})
}

// SetError marks the whole operation failed.
func (s *Span) SetError() {
	if s == nil {
		return
	}
	s.root.Err = true
}

// SetBenign marks the operation's error as an expected application
// outcome rather than a system failure (see Span.Benign).
func (s *Span) SetBenign() {
	if s == nil {
		return
	}
	s.root.Benign = true
}

// RecordHop attributes one network message of the given wire time to the
// span's operation. The root accumulates regardless of mode; the active
// child also accumulates in detailed mode, so flame output and the
// critical-path profiler can localize traffic per phase.
func (s *Span) RecordHop(class HopClass, bytes int, d time.Duration) {
	if s == nil {
		return
	}
	r := s.root
	r.HopCount[class]++
	r.HopBytes[class] += int64(bytes)
	r.HopTime[class] += d
	if s != r && s.detailed {
		s.HopCount[class]++
		s.HopBytes[class] += int64(bytes)
		s.HopTime[class] += d
	}
}

// Root returns the root span of the tree this span belongs to (itself for
// a root span, nil for a nil span).
func (s *Span) Root() *Span {
	if s == nil {
		return nil
	}
	return s.root
}

// OpName returns the operation name of the span's root, or "" on nil: the
// op type an instrumented subsystem is currently serving.
func (s *Span) OpName() string {
	if s == nil {
		return ""
	}
	return s.root.Name
}

// Finish closes the span. Finishing a root span flushes its aggregates
// (latency, error, per-class hop bytes) into the registry under
// op.<name>.* and, in detailed mode, retains the tree in the sink.
func (s *Span) Finish(now time.Duration) {
	if s == nil {
		return
	}
	s.End = now
	if s.root != s {
		return
	}
	t := s.tracer
	if t == nil {
		return
	}
	st := t.opStats(s.Name)
	st.lat.Observe(s.End - s.Start)
	if s.Err {
		st.errs.Add(1)
	}
	if obs := t.obs.Load(); obs != nil {
		for _, f := range *obs {
			f(s.Name, s.End, s.End-s.Start, s.Err && !s.Benign)
		}
	}
	for c := HopClass(0); c < NumHopClasses; c++ {
		if s.HopBytes[c] != 0 {
			st.hopBytes[c].Add(s.HopBytes[c])
		}
	}
	if s.detailed {
		if so := t.spanObs.Load(); so != nil {
			for _, f := range *so {
				f(s)
			}
		}
		if sink := t.Sink(); sink != nil {
			sink.Add(s)
		}
	}
}

// opStats caches the registry handles for one operation type so finishing
// a span does at most one map lookup, never a registration.
type opStats struct {
	lat      *Timing
	errs     *Counter
	hopBytes [NumHopClasses]*Counter
}

// Tracer creates spans and routes finished root spans to the registry,
// its subscribers and (when enabled) the sink. A nil Tracer is valid and
// inert. The sink pointer, subscriber lists and span-ID sequence are read
// lock-free: StartOp and Finish sit on the hot path of every client
// operation. The subscriber lists are append-only and copied on write, so
// a finishing span iterates an immutable slice; with no subscriber each
// list is a nil pointer and costs one atomic load.
type Tracer struct {
	reg     *Registry
	sink    atomic.Pointer[Sink]
	obs     atomic.Pointer[[]OpObserver]
	spanObs atomic.Pointer[[]SpanObserver]
	seq     atomic.Uint64
	mu      sync.Mutex // guards ops and appends to obs/spanObs
	ops     map[string]*opStats
}

// OpObserver receives every finished root operation: op name, the virtual
// end instant, end-to-end latency, and whether the operation failed.
// Benign errors (expected application outcomes, see Span.SetBenign)
// report failed=false. The SLO engine and the heat collector subscribe
// this way without the tracer depending on them.
type OpObserver func(op string, end, latency time.Duration, failed bool)

// OnOp subscribes obs to every finished root operation. Subscribers are
// called in subscription order and are never removed. An op subscriber is
// a live consumer: it keeps span creation on even when the registry is
// disabled (see off). The observer must be safe for concurrent calls.
func (t *Tracer) OnOp(obs OpObserver) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	subscribe(&t.obs, obs)
}

// SpanObserver receives every finished detailed root span, after its
// aggregates flush and before the sink retains it. The span tree is
// complete and must be treated as immutable. Detailed mode exists only
// while a sink is enabled, so the observer never fires in aggregate mode.
// The exemplar store subscribes this way to pin outlier traces without
// the tracer depending on it.
type SpanObserver func(root *Span)

// OnSpan subscribes obs to every finished detailed root span, in
// subscription order. The observer must be safe for concurrent calls.
func (t *Tracer) OnSpan(obs SpanObserver) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	subscribe(&t.spanObs, obs)
}

// subscribe publishes a copy of the list with obs appended; readers keep
// iterating the slice they loaded. Caller holds the tracer's mutex.
func subscribe[T any](list *atomic.Pointer[[]T], obs T) {
	var next []T
	if cur := list.Load(); cur != nil {
		next = append(next, *cur...)
	}
	next = append(next, obs)
	list.Store(&next)
}

// NewTracer returns a tracer feeding aggregates into reg (which may be nil
// for a registry-less tracer; spans then only reach the sink).
func NewTracer(reg *Registry) *Tracer {
	return &Tracer{reg: reg, ops: make(map[string]*opStats)}
}

// Registry returns the tracer's registry.
func (t *Tracer) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// EnableSink switches the tracer to detailed mode: subsequently started
// root spans carry children and attributes, and completed trees are
// retained in a fresh bounded ring sink of the given capacity, which is
// returned.
func (t *Tracer) EnableSink(capacity int) *Sink {
	if t == nil {
		return nil
	}
	s := NewSink(capacity)
	s.evictions = t.reg.Counter("trace.sink.dropped")
	t.sink.Store(s)
	return s
}

// Sink returns the current sink, or nil when disabled.
func (t *Tracer) Sink() *Sink {
	if t == nil {
		return nil
	}
	return t.sink.Load()
}

// off reports whether span creation can be skipped entirely: the tracer has
// no registry, no sink retains trees, and no subscriber consumes finished
// operations. A span started in this state would flush into nil handles and
// then be discarded, so StartOp hands back a nil span instead and every
// downstream call (Child, SetAttr, RecordHop, Finish) collapses to a nil
// check.
func (t *Tracer) off() bool {
	return t.reg == nil && t.sink.Load() == nil && t.obs.Load() == nil
}

// StartOp opens a root span for one client operation. Returns nil on a nil
// tracer, and on a tracer whose every output is disabled (see off).
func (t *Tracer) StartOp(name string, now time.Duration) *Span {
	if t == nil || t.off() {
		return nil
	}
	s := &Span{Name: name, Start: now, tracer: t}
	t.initRoot(s)
	return s
}

// StartOpInto is StartOp without the per-operation allocation: in aggregate
// mode (no sink) it reinitializes buf — callers running one operation at a
// time keep a reusable span buffer. In detailed mode buf is ignored and a
// fresh span is returned, since the sink retains finished trees.
func (t *Tracer) StartOpInto(buf *Span, name string, now time.Duration) *Span {
	if t == nil || t.off() {
		return nil
	}
	if t.sink.Load() != nil {
		return t.StartOp(name, now)
	}
	*buf = Span{Name: name, Start: now, tracer: t}
	buf.root = buf
	return buf
}

func (t *Tracer) initRoot(s *Span) {
	if t.sink.Load() != nil {
		s.detailed = true
		s.ID = SpanID(t.seq.Add(1))
	}
	s.root = s
}

// opStats returns (creating on first use) the cached handles for op name.
func (t *Tracer) opStats(name string) *opStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.ops[name]
	if !ok {
		st = &opStats{
			lat:  t.reg.Timing("op." + name + ".latency"),
			errs: t.reg.Counter("op." + name + ".errors"),
		}
		for c := HopClass(0); c < NumHopClasses; c++ {
			st.hopBytes[c] = t.reg.Counter("op."+name+".net.bytes", "class", c.String())
		}
		t.ops[name] = st
	}
	return st
}

// Sink is a bounded ring buffer of completed root spans: the newest
// Capacity trees are retained, older ones are evicted in FIFO order.
// Evictions are counted, so reports built from the ring can say whether
// they saw the whole run or a truncated tail.
type Sink struct {
	mu      sync.Mutex
	cap     int
	buf     []*Span
	next    int
	total   int64
	dropped int64
	// evictions mirrors dropped into the registry (trace.sink.dropped);
	// nil for sinks constructed outside a tracer.
	evictions *Counter
}

// NewSink returns a sink retaining at most capacity spans (default 4096
// for capacity <= 0).
func NewSink(capacity int) *Sink {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Sink{cap: capacity, buf: make([]*Span, 0, capacity)}
}

// Add retains a completed root span, evicting the oldest if full.
func (k *Sink) Add(s *Span) {
	if k == nil {
		return
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	k.total++
	if len(k.buf) < k.cap {
		k.buf = append(k.buf, s)
		return
	}
	k.dropped++
	k.evictions.Add(1)
	k.buf[k.next] = s
	k.next = (k.next + 1) % k.cap
}

// Spans returns the retained spans, oldest first.
func (k *Sink) Spans() []*Span {
	if k == nil {
		return nil
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]*Span, 0, len(k.buf))
	out = append(out, k.buf[k.next:]...)
	out = append(out, k.buf[:k.next]...)
	return out
}

// Total returns how many spans were ever added (retained + evicted).
func (k *Sink) Total() int64 {
	if k == nil {
		return 0
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.total
}

// Dropped returns how many spans were evicted to make room — the count by
// which any report built from the ring is truncated.
func (k *Sink) Dropped() int64 {
	if k == nil {
		return 0
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.dropped
}

// Reset discards all retained spans and the total count.
func (k *Sink) Reset() {
	if k == nil {
		return
	}
	k.mu.Lock()
	k.buf = k.buf[:0]
	k.next = 0
	k.total = 0
	k.dropped = 0
	k.mu.Unlock()
}

// Slowest returns up to n retained spans ordered by descending duration,
// with span ID as the deterministic tie-break.
func (k *Sink) Slowest(n int) []*Span {
	spans := k.Spans()
	sort.Slice(spans, func(i, j int) bool {
		di, dj := spans[i].Duration(), spans[j].Duration()
		if di != dj {
			return di > dj
		}
		return spans[i].ID < spans[j].ID
	})
	if n < len(spans) {
		spans = spans[:n]
	}
	return spans
}

// barWidth is the character width of the flame bars in Render.
const barWidth = 32

// Render formats the span tree as an indented flame-style breakdown: one
// line per span showing its duration and a bar marking its extent within
// the root's duration, plus attributes and cross-AZ bytes when present.
func (s *Span) Render() string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	renderInto(&b, s, s.root, 0)
	return b.String()
}

func renderInto(b *strings.Builder, s, root *Span, depth int) {
	rootDur := root.Duration()
	lo, hi := 0, barWidth
	if rootDur > 0 {
		lo = int(float64(s.Start-root.Start) / float64(rootDur) * barWidth)
		hi = int(float64(s.End-root.Start) / float64(rootDur) * barWidth)
	}
	if lo < 0 {
		lo = 0
	}
	if hi > barWidth {
		hi = barWidth
	}
	if hi <= lo {
		hi = lo + 1
		if hi > barWidth {
			lo, hi = barWidth-1, barWidth
		}
	}
	bar := strings.Repeat("·", lo) + strings.Repeat("█", hi-lo) + strings.Repeat("·", barWidth-hi)

	label := strings.Repeat("  ", depth) + s.Name
	fmt.Fprintf(b, "%-28s %9.3fms  |%s|", label, float64(s.Duration())/1e6, bar)
	if xaz := s.HopBytes[HopCrossZone]; xaz > 0 {
		fmt.Fprintf(b, "  xAZ=%dB", xaz)
	}
	for _, a := range s.Attrs {
		fmt.Fprintf(b, "  %s=%s", a.Key, a.Value)
	}
	if s.Err {
		b.WriteString("  ERR")
	}
	b.WriteByte('\n')
	for _, c := range s.Children {
		renderInto(b, c, root, depth+1)
	}
}
