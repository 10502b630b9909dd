package core

import (
	"testing"
	"time"

	"hopsfscl/internal/sim"
	"hopsfscl/internal/slo"
	"hopsfscl/internal/workload"
)

// attachAndDrive builds a small HopsFS-CL deployment, lets attach enable
// consumers on it, and drives a fixed workload through it.
func attachAndDrive(t *testing.T, attach func(d *Deployment)) *Deployment {
	t.Helper()
	d, err := Build(smallOptions(PaperSetups[5]))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	attach(d)
	gen := workload.NewGenerator(d.Namespace, workload.SpotifyMix, 3)
	d.Env.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < 400; i++ {
			_, _ = gen.Step(p, d.Clients[i%len(d.Clients)])
		}
	})
	d.Env.RunFor(5 * time.Second) // well inside the SLO sketch window
	return d
}

// tightSpec sets every latency objective far below a healthy cross-AZ
// operation, so ordinary ops breach and the exemplar store has something
// to pin for ReasonBreach.
func tightSpec() slo.Spec {
	spec := slo.DefaultSpec()
	spec.Latency = []slo.LatencyObjective{{Op: "*", Quantile: 0.99, Target: 100 * time.Microsecond}}
	return spec
}

// TestExemplarsAndSLOAttachInEitherOrder pins order independence: an
// exemplar store enabled before the SLO engine judges against the same
// objectives, and pins the same breach exemplars, as one enabled after.
func TestExemplarsAndSLOAttachInEitherOrder(t *testing.T) {
	render := func(attach func(d *Deployment)) (string, int) {
		d := attachAndDrive(t, attach)
		rep := d.Exemplars.Report(d.Env.Now())
		breaches := 0
		for _, c := range rep.Classes {
			for _, ex := range c.Exemplars {
				if ex.Reason&slo.ReasonBreach != 0 {
					breaches++
				}
			}
		}
		return rep.Render(), breaches
	}
	sloFirst, n := render(func(d *Deployment) {
		d.EnableTracing(0)
		d.EnableSLO(tightSpec())
		d.EnableExemplars(slo.ExemplarConfig{})
	})
	if n == 0 {
		t.Fatalf("no breach exemplar pinned under a 100us objective:\n%s", sloFirst)
	}
	exemplarsFirst, m := render(func(d *Deployment) {
		d.EnableTracing(0)
		d.EnableExemplars(slo.ExemplarConfig{})
		d.EnableSLO(tightSpec())
	})
	if m != n || exemplarsFirst != sloFirst {
		t.Fatalf("attach order changed the pinned set (%d vs %d breach exemplars):\n%s\nvs\n%s", n, m, sloFirst, exemplarsFirst)
	}
}

// TestExemplarsAttachTheirPrerequisites checks the rule that lives in
// EnableExemplars: a deployment with neither sink nor SLO engine gets both,
// so the store sees spans and has objectives to judge them by.
func TestExemplarsAttachTheirPrerequisites(t *testing.T) {
	d := attachAndDrive(t, func(d *Deployment) { d.EnableExemplars(slo.ExemplarConfig{}) })
	if d.Tracer.Sink() == nil || d.SLO == nil {
		t.Fatalf("EnableExemplars left sink=%v slo=%v unattached", d.Tracer.Sink(), d.SLO)
	}
	rep := d.Exemplars.Report(d.Env.Now())
	if rep.Seen == 0 {
		t.Fatal("exemplar store judged no spans")
	}
	if len(rep.Classes) == 0 {
		t.Fatal("nothing pinned, not even a window-slowest op")
	}
	for _, c := range rep.Classes {
		if c.Target == 0 {
			t.Fatalf("class %s judged against no objective; DefaultSpec covers every op", c.Op)
		}
	}
}

// TestHeatAndSLOAttachInEitherOrder checks that the two op subscribers
// coexist: whichever is enabled second, both see every operation.
func TestHeatAndSLOAttachInEitherOrder(t *testing.T) {
	counts := func(attach func(d *Deployment)) (sloOps int64, heatOps uint64) {
		d := attachAndDrive(t, attach)
		now := d.Env.Now()
		sloOps = d.SLO.Report(now).All.Count
		for _, f := range d.Heat.Snapshot(now).Families {
			if f.Name == "op" {
				heatOps = f.Total
			}
		}
		return sloOps, heatOps
	}
	s1, h1 := counts(func(d *Deployment) { d.EnableHeat(); d.EnableSLO(slo.Spec{}) })
	s2, h2 := counts(func(d *Deployment) { d.EnableSLO(slo.Spec{}); d.EnableHeat() })
	if s1 == 0 || h1 == 0 {
		t.Fatalf("a consumer was starved: slo saw %d ops, heat %d", s1, h1)
	}
	if s1 != s2 || h1 != h2 {
		t.Fatalf("attach order changed what the consumers saw: slo %d vs %d, heat %d vs %d", s1, s2, h1, h2)
	}
}

// TestStopBackgroundQuiescesEveryTicker attaches every consumer — the
// clocked ones are a bare Every ticker and the SLO engine (twice over: the
// exemplars' default engine and an explicit one) — and checks that one
// StopBackground lets Env.Run return, after which the ticker stays silent.
func TestStopBackgroundQuiescesEveryTicker(t *testing.T) {
	ticks := 0
	d := attachAndDrive(t, func(d *Deployment) {
		d.Every("ticker", 10*time.Millisecond, func(time.Duration) { ticks++ })
		d.EnableHeat()
		d.EnableExemplars(slo.ExemplarConfig{})
		d.EnableSLO(tightSpec())
	})
	if ticks == 0 {
		t.Fatal("the Every ticker never ticked")
	}
	before := ticks
	d.StopBackground()
	done := make(chan struct{})
	go func() {
		d.Env.Run()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Env.Run did not quiesce after StopBackground")
	}
	if ticks != before {
		t.Fatalf("the Every ticker ticked %d more times after StopBackground", ticks-before)
	}
}
