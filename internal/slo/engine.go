package slo

import (
	"sort"
	"sync"
	"time"

	"hopsfscl/internal/trace"
)

// opGauges caches the registry gauge handles published for one op class.
type opGauges struct {
	p50, p95, p99, rate *trace.Gauge
}

// Engine is the live SLO evaluator of a deployment: it maintains one
// windowed latency sketch per operation class (plus an aggregate), and on
// every Tick publishes rolling percentiles and throughput as registry
// gauges, evaluates the burn-rate alerter over the spec's objectives, and
// folds registered component probes into the cluster health model. All
// state transitions append to a deterministic event log on virtual time.
//
// ObserveOp is safe for concurrent use (it is called from every finishing
// root span); Tick and RegisterComponent are expected from the single
// evaluation process.
type Engine struct {
	spec   Spec
	reg    *trace.Registry
	alerts *alerter
	health *healthModel

	mu      sync.Mutex
	sketch  map[string]*Sketch // per op class
	ops     []string           // sorted keys of sketch
	all     *Sketch            // aggregate across classes
	gauges  map[string]*opGauges
	events  []Event
	lastNow time.Duration
}

// NewEngine builds an engine for the spec (zero fields fall back to
// DefaultSpec) publishing gauges into reg. reg may be nil; gauges are then
// skipped but evaluation still runs.
func NewEngine(spec Spec, reg *trace.Registry) *Engine {
	spec = spec.withDefaults()
	return &Engine{
		spec:   spec,
		reg:    reg,
		alerts: newAlerter(spec),
		health: &healthModel{},
		sketch: make(map[string]*Sketch),
		all:    NewSketch(spec.Window, spec.Slots),
		gauges: make(map[string]*opGauges),
	}
}

// Spec returns the engine's effective (defaulted) spec.
func (e *Engine) Spec() Spec { return e.spec }

// ObserveOp records one operation completion: op class, the virtual end
// instant, end-to-end latency, and whether it failed. Nil engines ignore
// the call so callers can wire the hook unconditionally.
func (e *Engine) ObserveOp(op string, now, latency time.Duration, failed bool) {
	if e == nil {
		return
	}
	e.mu.Lock()
	sk := e.sketch[op]
	if sk == nil {
		sk = NewSketch(e.spec.Window, e.spec.Slots)
		e.sketch[op] = sk
		e.ops = append(e.ops, op)
		sort.Strings(e.ops)
	}
	e.mu.Unlock()
	sk.Observe(now, latency, failed)
	e.all.Observe(now, latency, failed)
}

// RegisterComponent adds a health probe evaluated on every tick. Component
// names are sorted internally, so wiring order does not affect the log.
func (e *Engine) RegisterComponent(name string, probe Probe) {
	if e == nil {
		return
	}
	e.health.register(name, probe)
}

// sketchFor resolves an objective's op class to its sketch; "*" is the
// aggregate. Caller holds e.mu.
func (e *Engine) sketchFor(op string) *Sketch {
	if op == "*" {
		return e.all
	}
	return e.sketch[op]
}

// Tick evaluates the engine at virtual instant now: refresh the live
// gauges, run the burn-rate alerter and the health model, and append any
// emitted events to the log. Returns the events emitted by this tick.
func (e *Engine) Tick(now time.Duration) []Event {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.lastNow = now
	e.publishGauges(now)
	events := e.alerts.evaluate(now, e.sketchFor)
	events = append(events, e.health.evaluate(now)...)
	e.events = append(e.events, events...)
	return events
}

// publishGauges refreshes the per-op rolling gauges over the full sketch
// window: slo.op.<op>.p50_ms/p95_ms/p99_ms/rate. Caller holds e.mu.
func (e *Engine) publishGauges(now time.Duration) {
	if e.reg == nil {
		return
	}
	for _, op := range e.ops {
		g := e.gauges[op]
		if g == nil {
			g = &opGauges{
				p50:  e.reg.Gauge("slo.op." + op + ".p50_ms"),
				p95:  e.reg.Gauge("slo.op." + op + ".p95_ms"),
				p99:  e.reg.Gauge("slo.op." + op + ".p99_ms"),
				rate: e.reg.Gauge("slo.op." + op + ".rate"),
			}
			e.gauges[op] = g
		}
		m := e.sketch[op].Window(now, 0)
		g.p50.Set(ms(m.Percentile(0.50)))
		g.p95.Set(ms(m.Percentile(0.95)))
		g.p99.Set(ms(m.Percentile(0.99)))
		g.rate.Set(m.Rate())
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Firing returns how many burn-rate alerts are currently firing.
func (e *Engine) Firing() int {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.alerts.Firing()
}

// OpSummary returns the rolling window summary for one op class ("*" for
// the aggregate) over the trailing window w (0 = full sketch span).
func (e *Engine) OpSummary(op string, now, w time.Duration) Summary {
	if e == nil {
		return Summary{}
	}
	e.mu.Lock()
	sk := e.sketchFor(op)
	e.mu.Unlock()
	return sk.Window(now, w)
}

// Report snapshots the engine into an immutable end-of-run report at
// virtual instant now.
func (e *Engine) Report(now time.Duration) *Report {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	r := &Report{
		End:     now,
		Spec:    e.spec,
		Events:  append([]Event(nil), e.events...),
		Firing:  e.alerts.Firing(),
		Cluster: e.health.Cluster(),
		Levels:  e.health.Levels(),
		Ops:     make([]OpReport, 0, len(e.ops)),
	}
	for _, op := range e.ops {
		m := e.sketch[op].Window(now, 0)
		r.Ops = append(r.Ops, OpReport{Op: op, Summary: m})
	}
	r.All = e.all.Window(now, 0)
	return r
}
