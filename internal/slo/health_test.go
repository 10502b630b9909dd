package slo

import (
	"testing"
	"time"
)

func TestComponentLevelStructural(t *testing.T) {
	cases := []struct {
		st   ComponentStats
		want Level
	}{
		{ComponentStats{Live: 3, Expected: 3, Quorum: 2}, Healthy},
		{ComponentStats{Live: 2, Expected: 3, Quorum: 2}, Degraded},
		{ComponentStats{Live: 1, Expected: 3, Quorum: 2}, Critical},
		{ComponentStats{Live: 0, Expected: 3, Quorum: 2}, Down},
		// Down wins even with idle load signals; quorum 0 means any member
		// suffices.
		{ComponentStats{Live: 1, Expected: 3, Quorum: 0}, Degraded},
		// Expected 0: liveness does not apply, load signals rule.
		{ComponentStats{Live: 0, Expected: 0}, Healthy},
	}
	for _, c := range cases {
		if got := c.st.level(); got != c.want {
			t.Errorf("level(%+v) = %v, want %v", c.st, got, c.want)
		}
	}
}

func TestComponentLevelLoadSignals(t *testing.T) {
	cases := []struct {
		st   ComponentStats
		want Level
	}{
		{ComponentStats{Live: 3, Expected: 3, Util: 0.90}, Degraded},
		{ComponentStats{Live: 3, Expected: 3, Util: 0.98}, Critical},
		{ComponentStats{Live: 3, Expected: 3, Pressure: 2}, Degraded},
		{ComponentStats{Live: 3, Expected: 3, Pressure: 9}, Critical},
		// Worst signal wins: one lost member plus critical pressure.
		{ComponentStats{Live: 2, Expected: 3, Pressure: 9}, Critical},
	}
	for _, c := range cases {
		if got := c.st.level(); got != c.want {
			t.Errorf("level(%+v) = %v, want %v", c.st, got, c.want)
		}
	}
}

func TestHealthModelTransitions(t *testing.T) {
	h := &healthModel{}
	stats := map[string]ComponentStats{
		"ndb":      {Live: 6, Expected: 6, Quorum: 4},
		"namenode": {Live: 3, Expected: 3, Quorum: 1},
	}
	for name := range stats {
		n := name
		h.register(n, func(time.Duration) ComponentStats { return stats[n] })
	}

	if ev := h.evaluate(time.Second); len(ev) != 0 {
		t.Fatalf("healthy cluster raised events: %v", ev)
	}
	if h.Cluster() != Healthy {
		t.Fatalf("cluster = %v", h.Cluster())
	}

	// Lose two NDB nodes below quorum: ndb critical + cluster critical.
	stats["ndb"] = ComponentStats{Live: 3, Expected: 6, Quorum: 4}
	ev := h.evaluate(2 * time.Second)
	if len(ev) != 2 {
		t.Fatalf("want 2 transition events, got %v", ev)
	}
	if ev[0].Subject != "ndb: healthy -> critical" || !ev[0].Degrading || ev[0].Severity != SevPage {
		t.Fatalf("component event = %+v", ev[0])
	}
	if ev[1].Subject != "cluster: healthy -> critical" {
		t.Fatalf("cluster event = %+v", ev[1])
	}

	// Same state: no repeated events.
	if ev := h.evaluate(3 * time.Second); len(ev) != 0 {
		t.Fatalf("steady state raised events: %v", ev)
	}

	// Recovery emits info-severity non-degrading transitions.
	stats["ndb"] = ComponentStats{Live: 6, Expected: 6, Quorum: 4}
	ev = h.evaluate(4 * time.Second)
	if len(ev) != 2 || ev[0].Degrading || ev[0].Severity != SevInfo {
		t.Fatalf("recovery events = %v", ev)
	}
	if h.Cluster() != Healthy {
		t.Fatalf("cluster after recovery = %v", h.Cluster())
	}
}

// TestHealthModelOrderIndependent pins determinism: the event order depends
// on component names, not registration order.
func TestHealthModelOrderIndependent(t *testing.T) {
	run := func(names []string) string {
		h := &healthModel{}
		for _, n := range names {
			h.register(n, func(time.Duration) ComponentStats {
				return ComponentStats{Live: 1, Expected: 2, Quorum: 1}
			})
		}
		var out string
		for _, ev := range h.evaluate(time.Second) {
			out += ev.String() + "\n"
		}
		return out
	}
	a := run([]string{"ndb", "blocks", "namenode"})
	b := run([]string{"namenode", "ndb", "blocks"})
	if a != b {
		t.Fatalf("event log depends on registration order:\n%s\nvs\n%s", a, b)
	}
}
