package slo

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"hopsfscl/internal/trace"
)

// driveEngine feeds a seeded synthetic workload with a mid-run error storm
// and latency regression into an engine, ticking every 250ms for 20s, and
// returns the rendered event log.
func driveEngine(seed int64) string {
	eng := NewEngine(Spec{}, nil)
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

func TestEngineTickPublishesGauges(t *testing.T) {
	reg := trace.NewRegistry()
	eng := NewEngine(Spec{}, reg)
	for ms := 0; ms <= 1_000; ms += 10 {
		eng.ObserveOp("stat", time.Duration(ms)*time.Millisecond, 2*time.Millisecond, false)
	}
	eng.Tick(time.Second)
	snap := reg.Snapshot()
	p99, ok := trace.Lookup(snap, "slo.op.stat.p99_ms")
	if !ok || p99 <= 0 {
		t.Fatalf("p99 gauge = %v (ok=%v)", p99, ok)
	}
	rate, ok := trace.Lookup(snap, "slo.op.stat.rate")
	if !ok || rate <= 0 {
		t.Fatalf("rate gauge = %v (ok=%v)", rate, ok)
	}
}

func TestEngineReport(t *testing.T) {
	eng := NewEngine(Spec{}, nil)
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
