package bench

import (
	"testing"
	"time"

	"hopsfscl/internal/autoscale"
	"hopsfscl/internal/loadshape"
)

// smokeElasticOptions shrinks the recorded experiment to a 3-day week so the
// CI smoke run costs well under a second of wall clock while still crossing
// the mid-week flash crowd (burst day 2).
func smokeElasticOptions(seed int64) ElasticOptions {
	o := DefaultElasticOptions(seed)
	o.Profile.Days = 3
	return o
}

// TestElasticSmoke runs the autoscaled mode over a compressed 3-day profile
// and asserts the controller actually worked the tier: multiple scale-ups,
// at least one drain, every audit checkpoint clean, every quiesce drained.
func TestElasticSmoke(t *testing.T) {
	r, err := RunElastic(ModeElastic, smokeElasticOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if r.ScaleUps < 2 {
		t.Errorf("scale-ups = %d, want >= 2\n%s", r.ScaleUps, renderEvents(r))
	}
	if r.ScaleDowns < 1 {
		t.Errorf("scale-downs = %d, want >= 1\n%s", r.ScaleDowns, renderEvents(r))
	}
	if len(r.Violations) != 0 {
		t.Errorf("audit violations: %v", r.Violations)
	}
	if r.FailedQuiesces != 0 {
		t.Errorf("%d quiesce(s) failed to drain", r.FailedQuiesces)
	}
	if r.Checkpoints == 0 {
		t.Error("no audit checkpoints ran")
	}
	if r.Ops == 0 {
		t.Error("no operations completed")
	}
	if r.MaxServing > 6 || r.MinServing < 2 {
		t.Errorf("serving range %d..%d escaped the 2..6 bounds", r.MinServing, r.MaxServing)
	}
	if len(r.Timeline) == 0 {
		t.Error("the timeline captured no frames")
	}
}

// TestElasticStaticModesAudit runs both static baselines briefly and asserts
// their single settled audit is clean (the elastic comparison is only fair
// when the baselines hold the same invariants).
func TestElasticStaticModesAudit(t *testing.T) {
	o := smokeElasticOptions(1)
	o.Profile.Days = 1
	o.Profile.Bursts = nil // the flash crowd sits on day 2
	for _, m := range []ElasticMode{ModeStaticMin, ModeStaticPeak} {
		r, err := RunElastic(m, o)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if len(r.Violations) != 0 {
			t.Errorf("%s: audit violations: %v", m, r.Violations)
		}
		if got := r.ScaleUps + r.ScaleDowns; got != 0 {
			t.Errorf("%s: static mode recorded %d scale events", m, got)
		}
	}
}

// TestElasticDeterminism is the regression for the ISSUE's reproducibility
// requirement: the same seed must replay a byte-identical scale-event log
// and identical op counts across runs.
func TestElasticDeterminism(t *testing.T) {
	run := func() (string, int64, time.Duration) {
		r, err := RunElastic(ModeElastic, smokeElasticOptions(7))
		if err != nil {
			t.Fatal(err)
		}
		return renderEvents(r), r.Ops, r.OverSLO
	}
	ev1, ops1, over1 := run()
	ev2, ops2, over2 := run()
	if ev1 != ev2 {
		t.Errorf("scale-event logs differ across runs of seed 7:\n%s\nvs\n%s", ev1, ev2)
	}
	if ops1 != ops2 || over1 != over2 {
		t.Errorf("run stats differ: ops %d vs %d, over-SLO %v vs %v", ops1, ops2, over1, over2)
	}
	if ev1 == "" {
		t.Error("no scale events at all; the determinism check is vacuous")
	}
}

// TestElasticOptionValidation covers the config rejections.
func TestElasticOptionValidation(t *testing.T) {
	o := DefaultElasticOptions(1)
	o.Clients = 0
	if _, err := RunElastic(ModeElastic, o); err == nil {
		t.Error("zero clients accepted")
	}
	o = DefaultElasticOptions(1)
	o.Clients = 7 // not divisible by Min=2
	if _, err := RunElastic(ModeElastic, o); err == nil {
		t.Error("indivisible client count accepted")
	}
	o = DefaultElasticOptions(1)
	o.Profile = loadshape.Profile{}
	if _, err := RunElastic(ModeElastic, o); err == nil {
		t.Error("zero profile accepted")
	}
}

func renderEvents(r *ElasticResult) string {
	return autoscale.RenderEvents(r.Events)
}
