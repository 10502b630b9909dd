package slo

import (
	"math/rand"
	"strings"
	"testing"
	"time"
)

// driveEngine feeds a seeded synthetic workload with a mid-run error storm
// and latency regression into an engine, ticking every 250ms for 20s, and
// returns the rendered event log.
func driveEngine(seed int64) string {
	eng := NewEngine(Spec{})
	live := 6
	eng.RegisterComponent("ndb", func(time.Duration) ComponentStats {
		return ComponentStats{Live: live, Expected: 6, Quorum: 4}
	})
	rng := rand.New(rand.NewSource(seed))
	var events []Event
	for ms := 0; ms <= 20_000; ms += 10 {
		now := time.Duration(ms) * time.Millisecond
		bad := ms >= 8_000 && ms < 12_000
		if ms == 8_000 {
			live = 5
		}
		if ms == 12_000 {
			live = 6
		}
		lat := time.Duration(1+rng.Intn(3)) * time.Millisecond
		failed := false
		if bad {
			lat = 50 * time.Millisecond
			failed = rng.Intn(4) == 0
		}
		eng.ObserveOp("stat", now, lat, failed)
		if ms%250 == 0 {
			events = append(events, eng.Tick(now)...)
		}
	}
	var b strings.Builder
	for _, ev := range events {
		b.WriteString(ev.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestEngineDeterministicEventLog is the headline determinism guarantee:
// the same seed produces a byte-identical alert log.
func TestEngineDeterministicEventLog(t *testing.T) {
	a, b := driveEngine(7), driveEngine(7)
	if a != b {
		t.Fatalf("same seed, different logs:\n%s\nvs\n%s", a, b)
	}
	if a == "" {
		t.Fatal("drive produced no events")
	}
	// The storm must both alert (latency or availability) and degrade
	// health, and both must clear.
	for _, want := range []string{"ALERT", "RESOLVE", "ndb: healthy -> degraded", "ndb: degraded -> healthy"} {
		if !strings.Contains(a, want) {
			t.Fatalf("log missing %q:\n%s", want, a)
		}
	}
}

// TestEngineAllMergesClasses drives two op classes and one late
// observation: the "*" view is exactly the merge of the per-class windows,
// a late observation lands in its own class's newest slot, and a "*"
// latency objective burns on both classes' traffic together.
func TestEngineAllMergesClasses(t *testing.T) {
	star := LatencyObjective{Op: "*", Quantile: 0.99, Target: 10 * time.Millisecond}
	eng := NewEngine(Spec{
		Window:  10 * time.Second,
		Slots:   40, // 250ms slots
		Latency: []LatencyObjective{star},
		Burns:   []BurnPair{{Name: "fast", Short: time.Second, Long: 4 * time.Second, Rate: 10, Severity: SevPage}},
	})
	var events []Event
	for ms := 0; ms <= 4_000; ms += 10 {
		now := time.Duration(ms) * time.Millisecond
		eng.ObserveOp("stat", now, time.Millisecond, false)
		if ms <= 3_000 {
			eng.ObserveOp("create", now, 50*time.Millisecond, ms == 2_000)
		}
		if ms%250 == 0 {
			events = append(events, eng.Tick(now)...)
		}
	}
	// Half of all completions are slow: a burn of 0.5/0.01 = 50x, which
	// neither class alone shows (stat 0x, create 100x).
	if len(events) != 1 || events[0].Subject != star.Name()+" [fast]" ||
		!strings.HasPrefix(events[0].Detail, "burn 50.0x/50.0x") {
		t.Fatalf("want one %q fire at 50x, got %v", star.Name(), events)
	}

	// create last completed at 3s; a late completion stamped 2s lands in
	// create's newest slot, not in the newest slot of any other class.
	end := 4 * time.Second
	eng.ObserveOp("create", 2*time.Second, 50*time.Millisecond, false)
	if m := eng.OpSummary("create", end, 1250*time.Millisecond); m.Count != 2 {
		t.Fatalf("create over [3s, 4s] = %d completions, want 2 (3s and the late one)", m.Count)
	}
	if m := eng.OpSummary("*", end, 250*time.Millisecond); m.Count != 1 {
		t.Fatalf("* over the newest slot = %d completions, want 1 (stat at 4s)", m.Count)
	}

	rep := eng.Report(end)
	var merged Summary
	for _, o := range rep.Ops {
		merged.Window = o.Summary.Window
		merged.Merge(o.Summary.Dist)
		merged.Errors += o.Summary.Errors
	}
	if merged.Count != 401+301+1 || merged.Errors != 1 || merged.Max != 50*time.Millisecond {
		t.Fatalf("merged per-op windows = %+v", merged)
	}
	if rep.All != merged {
		t.Fatalf("Report.All = %+v, want the merge of the per-op windows %+v", rep.All, merged)
	}
	if all := eng.OpSummary("*", end, 0); all != merged {
		t.Fatalf(`OpSummary("*") = %+v, want the merge of the per-op windows %+v`, all, merged)
	}
}

func TestEngineReport(t *testing.T) {
	eng := NewEngine(Spec{})
	eng.RegisterComponent("ndb", func(time.Duration) ComponentStats {
		return ComponentStats{Live: 0, Expected: 6, Quorum: 4}
	})
	eng.ObserveOp("stat", time.Second, time.Millisecond, false)
	eng.ObserveOp("create", time.Second, 5*time.Millisecond, true)
	eng.Tick(time.Second)

	rep := eng.Report(time.Second)
	if rep.Cluster != Down {
		t.Fatalf("cluster = %v, want down", rep.Cluster)
	}
	if len(rep.Ops) != 2 || rep.Ops[0].Op != "create" || rep.Ops[1].Op != "stat" {
		t.Fatalf("op reports not sorted: %+v", rep.Ops)
	}
	if rep.All.Count != 2 || rep.All.Errors != 1 {
		t.Fatalf("aggregate = %+v", rep.All)
	}
	if det, ok := rep.FirstDetection(0); !ok || !det.Degrading {
		t.Fatalf("no degrading event in report: %+v", rep.Events)
	}
	if det, ok := rep.FirstDetection(2 * time.Second); ok {
		t.Fatalf("detection before injection window: %+v", det)
	}
	out := rep.Render()
	for _, want := range []string{"SLO report", "cluster: down", "ndb: healthy -> down", "(all)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// Rendering is pure: same report, same bytes.
	if rep.Render() != out {
		t.Fatal("render not deterministic")
	}
}

func TestNilEngineIsSafe(t *testing.T) {
	var eng *Engine
	eng.ObserveOp("stat", 0, time.Millisecond, false)
	eng.RegisterComponent("x", nil)
	if ev := eng.Tick(time.Second); ev != nil {
		t.Fatal("nil engine ticked")
	}
	if eng.Report(0) != nil {
		t.Fatal("nil engine reported")
	}
	if eng.Firing() != 0 {
		t.Fatal("nil engine state")
	}
}
