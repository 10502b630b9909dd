package slo

import (
	"fmt"
	"time"
)

// objective is one evaluatable SLO: it knows which sketch to read and what
// fraction of a window's completions violated it.
type objective struct {
	name   string
	op     string // sketch key; "*" = the aggregate sketch
	budget float64
	// bad returns how many completions in the summary violated the
	// objective (errors for availability, over-target for latency).
	bad func(Summary) int64
}

// availabilityObjective builds the error-rate objective.
func availabilityObjective() objective {
	return objective{
		name:   fmt.Sprintf("availability:%g", availability*100),
		op:     "*",
		budget: 1 - availability,
		bad:    func(m Summary) int64 { return m.Errors },
	}
}

// latencyObjectiveFor builds the over-target objective for one latency SLO.
func latencyObjectiveFor(o LatencyObjective) objective {
	target := o.Target
	return objective{
		name:   o.Name(),
		op:     o.Op,
		budget: o.Budget(),
		bad:    func(m Summary) int64 { return m.OverCount(target) },
	}
}

// alertState tracks one (objective, burn pair) alert.
type alertState struct {
	firing  bool
	firedAt time.Duration
}

// alerter evaluates every objective against every burn pair on each tick
// and emits fire/resolve events on transitions.
type alerter struct {
	objectives []objective
	pairs      []BurnPair
	// states[i*len(pairs)+j] is objective i under pair j.
	states []alertState
	firing int
}

func newAlerter(spec Spec) *alerter {
	a := &alerter{pairs: spec.Burns}
	a.objectives = append(a.objectives, availabilityObjective())
	for _, o := range spec.Latency {
		a.objectives = append(a.objectives, latencyObjectiveFor(o))
	}
	a.states = make([]alertState, len(a.objectives)*len(a.pairs))
	return a
}

// burnRate returns the budget burn rate of an objective over one window
// summary: observed bad fraction divided by the error budget. An empty
// window burns nothing.
func (o objective) burnRate(m Summary) float64 {
	if m.Count == 0 || o.budget <= 0 {
		return 0
	}
	return float64(o.bad(m)) / float64(m.Count) / o.budget
}

// evaluate runs one tick: sketchFor resolves an op class to its sketch
// (nil when the class has no traffic yet). Returned events are appended in
// (objective, pair) declaration order, which is fixed, so logs are
// deterministic.
func (a *alerter) evaluate(now time.Duration, sketchFor func(op string) *Sketch) []Event {
	var events []Event
	for i, o := range a.objectives {
		sk := sketchFor(o.op)
		for j, p := range a.pairs {
			st := &a.states[i*len(a.pairs)+j]
			var short, long Summary
			if sk != nil {
				short = sk.Window(now, p.Short)
				long = sk.Window(now, p.Long)
			}
			bs, bl := o.burnRate(short), o.burnRate(long)
			switch {
			case !st.firing && bs >= p.Rate && bl >= p.Rate:
				st.firing = true
				st.firedAt = now
				a.firing++
				events = append(events, Event{
					At: now, Kind: EventAlertFire, Severity: p.Severity,
					Subject:   o.name + " [" + p.Name + "]",
					Detail:    fmt.Sprintf("burn %.1fx/%.1fx over %v/%v (threshold %gx)", bs, bl, p.Short, p.Long, p.Rate),
					Degrading: true,
				})
			case st.firing && bl < p.Rate:
				st.firing = false
				a.firing--
				events = append(events, Event{
					At: now, Kind: EventAlertResolve, Severity: SevInfo,
					Subject: o.name + " [" + p.Name + "]",
					Detail:  fmt.Sprintf("burn %.1fx/%.1fx below %gx after %v", bs, bl, p.Rate, now-st.firedAt),
				})
			}
		}
	}
	return events
}

// Firing returns how many (objective, pair) alerts are currently firing.
func (a *alerter) Firing() int { return a.firing }
