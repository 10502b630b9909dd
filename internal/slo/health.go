package slo

import (
	"fmt"
	"sort"
	"time"
)

// Level is a health state, ordered from best to worst.
type Level uint8

// Health levels.
const (
	Healthy Level = iota
	Degraded
	Critical
	Down
)

// String returns the log label of the level.
func (l Level) String() string {
	switch l {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Critical:
		return "critical"
	default:
		return "down"
	}
}

// ComponentStats is the instantaneous signal a component probe reports.
// Liveness is structural (how many members are up vs expected); Util and
// Pressure are load signals judged against the health thresholds.
type ComponentStats struct {
	// Live and Expected count component members (NN replicas, NDB data
	// nodes, datanodes). Expected 0 means liveness does not apply.
	Live, Expected int
	// Quorum is the minimum live count for the component to function
	// (e.g. NDB arbitration majority). 0 means any live member suffices.
	Quorum int
	// Util is the mean busy fraction of the component's worker pool over a
	// recent window (0..1).
	Util float64
	// Pressure is the component's backlog signal: the under-replicated
	// block count for the block layer. NDB and the namenodes report none:
	// their health is liveness + utilisation (NDB's fluid thread pools do
	// not separate queue wait from service).
	Pressure float64
}

// The health thresholds: when a component's utilization or pressure signal
// degrades its health (liveness rules are structural: losing nodes degrades,
// losing quorum is critical, losing all is down).
const (
	// utilDegraded and utilCritical bound the mean thread-pool/CPU
	// utilization (0..1).
	utilDegraded, utilCritical = 0.85, 0.97
	// pressureDegraded and pressureCritical bound the component's pressure
	// signal (under-replicated blocks for the block layer).
	pressureDegraded, pressureCritical = 1, 8
)

// level folds one component's stats into a health level: structural
// liveness rules first (no live member ⇒ down, below quorum ⇒ critical,
// any member lost ⇒ at least degraded), then utilization and pressure
// thresholds, taking the worst verdict.
func (st ComponentStats) level() Level {
	lvl := Healthy
	if st.Expected > 0 {
		switch {
		case st.Live <= 0:
			return Down
		case st.Live < st.Quorum:
			lvl = Critical
		case st.Live < st.Expected:
			lvl = Degraded
		}
	}
	raise := func(l Level) {
		if l > lvl {
			lvl = l
		}
	}
	if st.Util >= utilCritical {
		raise(Critical)
	} else if st.Util >= utilDegraded {
		raise(Degraded)
	}
	if st.Pressure >= pressureCritical {
		raise(Critical)
	} else if st.Pressure >= pressureDegraded {
		raise(Degraded)
	}
	return lvl
}

// cause renders the dominant reason for a non-healthy verdict, for event
// detail lines.
func (st ComponentStats) cause() string {
	if st.Expected > 0 && st.Live < st.Expected {
		return fmt.Sprintf("%d/%d live (quorum %d)", st.Live, st.Expected, st.Quorum)
	}
	if st.Util >= utilDegraded {
		return fmt.Sprintf("util %.0f%%", st.Util*100)
	}
	if st.Pressure >= pressureDegraded {
		return fmt.Sprintf("pressure %.1f", st.Pressure)
	}
	return fmt.Sprintf("%d/%d live, util %.0f%%, pressure %.1f", st.Live, st.Expected, st.Util*100, st.Pressure)
}

// Probe reports a component's instantaneous stats at virtual instant now.
type Probe func(now time.Duration) ComponentStats

// component is one registered probe plus its last known level.
type component struct {
	name  string
	probe Probe
	level Level
}

// healthModel folds per-component probes into component and cluster-wide
// health states, emitting transition events.
type healthModel struct {
	components []component // sorted by name; evaluation order is fixed
	cluster    Level
}

// register adds (or replaces) a component probe, keeping evaluation order
// sorted by name so event logs are deterministic regardless of wiring order.
func (h *healthModel) register(name string, probe Probe) {
	for i := range h.components {
		if h.components[i].name == name {
			h.components[i].probe = probe
			return
		}
	}
	h.components = append(h.components, component{name: name, probe: probe})
	sort.Slice(h.components, func(i, j int) bool { return h.components[i].name < h.components[j].name })
}

// evaluate probes every component, emits transition events for components
// that changed level, and folds the cluster level as the worst component.
func (h *healthModel) evaluate(now time.Duration) []Event {
	var events []Event
	worst := Healthy
	for i := range h.components {
		c := &h.components[i]
		st := c.probe(now)
		lvl := st.level()
		if lvl > worst {
			worst = lvl
		}
		if lvl != c.level {
			events = append(events, Event{
				At: now, Kind: EventHealth, Severity: healthSeverity(lvl),
				Subject:   c.name + ": " + c.level.String() + " -> " + lvl.String(),
				Detail:    st.cause(),
				Degrading: lvl > c.level,
			})
			c.level = lvl
		}
	}
	if len(h.components) > 0 && worst != h.cluster {
		events = append(events, Event{
			At: now, Kind: EventHealth, Severity: healthSeverity(worst),
			Subject:   "cluster: " + h.cluster.String() + " -> " + worst.String(),
			Detail:    fmt.Sprintf("worst of %d components", len(h.components)),
			Degrading: worst > h.cluster,
		})
		h.cluster = worst
	}
	return events
}

// healthSeverity maps a health level to an event severity: entering
// critical/down pages, degraded tickets, recovery to healthy is info.
func healthSeverity(l Level) Severity {
	switch l {
	case Down, Critical:
		return SevPage
	case Degraded:
		return SevTicket
	default:
		return SevInfo
	}
}

// Cluster returns the current cluster-wide level.
func (h *healthModel) Cluster() Level { return h.cluster }

// Levels returns the current per-component levels keyed by name.
func (h *healthModel) Levels() map[string]Level {
	out := make(map[string]Level, len(h.components))
	for _, c := range h.components {
		out[c.name] = c.level
	}
	return out
}
