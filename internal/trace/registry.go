// Package trace provides end-to-end operation tracing and a cluster-wide
// metrics registry for simulated deployments.
//
// It is a leaf package: it depends only on the standard library so that the
// simulation kernel (internal/sim) can carry a typed span slot on every
// process without an import cycle. All timestamps are virtual-time offsets
// (time.Duration since simulation start), supplied by the caller — typically
// sim.Proc.EffNow, which includes deferred fluid-model delay.
//
// Two tiers of cost:
//
//   - The Registry (named counters, gauges and duration histograms) is
//     always on. Hot paths hold pre-registered handles, so recording is an
//     atomic add or an uncontended mutex — cheap enough to leave enabled
//     during benchmarks.
//   - The Sink (full span trees with children and attributes) is opt-in via
//     Tracer.EnableSink. With the sink disabled, child spans and attributes
//     are never allocated; only root-span aggregates reach the registry.
package trace

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind classifies a snapshot sample for windowed differencing.
type Kind uint8

const (
	// KindCounter samples increase monotonically; Diff subtracts before
	// from after, yielding the delta over the window.
	KindCounter Kind = iota
	// KindGauge samples are point-in-time values; Diff keeps the after
	// value.
	KindGauge
	// KindMax samples are running maxima; Diff keeps the after value.
	KindMax
)

// Sample is one named value in a registry snapshot.
type Sample struct {
	Name  string
	Kind  Kind
	Value float64
}

// Counter is a monotonically increasing integer metric. All methods are
// nil-safe so uninstrumented deployments pay only a nil check.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a point-in-time float metric.
type Gauge struct{ bits atomic.Uint64 }

// Set stores the gauge's current value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the gauge's current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Name renders a hierarchical metric name with labels baked in:
// Name("net.bytes", "class", "cross_az") == "net.bytes{class=cross_az}".
// Labels are alternating key/value pairs, sorted by key so the same label
// set always yields the same name.
func Name(name string, labels ...string) string {
	if len(labels) == 0 {
		return name
	}
	if len(labels)%2 != 0 {
		panic("trace: labels must be alternating key/value pairs")
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteByte('=')
		b.WriteString(p.v)
	}
	b.WriteByte('}')
	return b.String()
}

// Registry is a cluster-wide hierarchical registry of named metrics.
// Metric names use dotted hierarchies ("op.stat.latency", "txn.phase.prepare")
// with optional {key=value} labels appended by Name. Registration is
// idempotent: the same name always returns the same handle, so hot paths
// register once and keep the pointer.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns (registering on first use) the counter with the given
// name and labels. Nil-safe: a nil registry returns a nil handle, whose
// methods are no-ops.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	full := Name(name, labels...)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[full]
	if !ok {
		c = &Counter{}
		r.counters[full] = c
	}
	return c
}

// Gauge returns (registering on first use) the gauge with the given name
// and labels.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	full := Name(name, labels...)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[full]
	if !ok {
		g = &Gauge{}
		r.gauges[full] = g
	}
	return g
}

// Histogram returns (registering on first use) the duration histogram with
// the given name and labels.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	full := Name(name, labels...)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[full]
	if !ok {
		h = &Histogram{}
		r.hists[full] = h
	}
	return h
}

// Snapshot returns every metric as a flat, name-sorted sample list.
// Histograms expand to three samples: <name>.count, <name>.sum_ns and <name>.max_ns.
// The output is deterministic for identical registry contents.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Sample, 0, len(r.counters)+len(r.gauges)+3*len(r.hists))
	for name, c := range r.counters {
		out = append(out, Sample{Name: name, Kind: KindCounter, Value: float64(c.Value())})
	}
	for name, g := range r.gauges {
		out = append(out, Sample{Name: name, Kind: KindGauge, Value: g.Value()})
	}
	for name, h := range r.hists {
		h.mu.Lock()
		count, sum, max := h.d.Count, h.d.Sum, h.d.Max
		h.mu.Unlock()
		out = append(out,
			Sample{Name: name + ".count", Kind: KindCounter, Value: float64(count)},
			Sample{Name: name + ".sum_ns", Kind: KindCounter, Value: float64(sum)},
			Sample{Name: name + ".max_ns", Kind: KindMax, Value: float64(max)},
		)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Diff computes the change from the before snapshot to the after snapshot:
// counters subtract (delta over the window), gauges and maxima keep their
// after value. Samples absent from before are treated as zero.
func Diff(before, after []Sample) []Sample {
	base := make(map[string]float64, len(before))
	for _, s := range before {
		base[s.Name] = s.Value
	}
	out := make([]Sample, 0, len(after))
	for _, s := range after {
		d := s
		if s.Kind == KindCounter {
			d.Value = s.Value - base[s.Name]
		}
		out = append(out, d)
	}
	return out
}

// Lookup finds a sample by exact name in a snapshot (or diff) and reports
// whether it was present.
func Lookup(samples []Sample, name string) (float64, bool) {
	for _, s := range samples {
		if s.Name == name {
			return s.Value, true
		}
	}
	return 0, false
}
