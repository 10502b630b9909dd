package slo

import (
	"sort"
	"sync"
	"time"
)

// Engine is the live SLO evaluator of a deployment: it maintains one
// windowed latency sketch per operation class, and on every Tick evaluates
// the burn-rate alerter over the spec's objectives and folds registered
// component probes into the cluster health model. The "*" class is the
// merge of every class's window, so each completion is observed once. All
// state transitions append to a deterministic event log on virtual time.
//
// ObserveOp is safe for concurrent use (it is called from every finishing
// root span); Tick and RegisterComponent are expected from the single
// evaluation process.
type Engine struct {
	spec   Spec
	alerts *alerter
	health *healthModel

	mu     sync.Mutex
	sketch map[string]*Sketch // per op class
	ops    []string           // sorted keys of sketch
	events []Event
}

// NewEngine builds an engine for the spec (zero fields fall back to
// DefaultSpec).
func NewEngine(spec Spec) *Engine {
	spec = spec.withDefaults()
	return &Engine{
		spec:   spec,
		alerts: newAlerter(spec),
		health: &healthModel{},
		sketch: make(map[string]*Sketch),
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
}

// RegisterComponent adds a health probe evaluated on every tick. Component
// names are sorted internally, so wiring order does not affect the log.
func (e *Engine) RegisterComponent(name string, probe Probe) {
	if e == nil {
		return
	}
	e.health.register(name, probe)
}

// summary merges op's sketch over the trailing window w at now; "*" merges
// every class's. A class with no traffic yet summarizes empty. Caller holds
// e.mu.
func (e *Engine) summary(op string, now, w time.Duration) Summary {
	if op != "*" {
		return e.sketch[op].Window(now, w)
	}
	var all Summary
	for _, op := range e.ops {
		m := e.sketch[op].Window(now, w)
		all.Window = m.Window
		all.Merge(m.Dist)
		all.Errors += m.Errors
	}
	return all
}

// Tick evaluates the engine at virtual instant now: run the burn-rate
// alerter and the health model, and append any emitted events to the log.
// Returns the events emitted by this tick.
func (e *Engine) Tick(now time.Duration) []Event {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	events := e.alerts.evaluate(now, e.summary)
	events = append(events, e.health.evaluate(now)...)
	e.events = append(e.events, events...)
	return events
}

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
// the merge of every class) over the trailing window w (0 = full sketch span).
func (e *Engine) OpSummary(op string, now, w time.Duration) Summary {
	if e == nil {
		return Summary{}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.summary(op, now, w)
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
	r.All = e.summary("*", now, 0)
	return r
}
