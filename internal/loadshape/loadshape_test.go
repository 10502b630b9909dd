package loadshape

import (
	"math"
	"strings"
	"testing"
	"time"
)

func almost(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s = %g, want %g (+/- %g)", what, got, want, tol)
	}
}

func TestSinusoidCurve(t *testing.T) {
	pr := Profile{Day: time.Second, Days: 2, Base: 0.2, Peak: 1.0, PeakFrac: 0.5, RatePerClient: 100}
	if err := pr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Peak at the configured time of day, trough half a day away.
	almost(t, pr.Multiplier(500*time.Millisecond), 1.0, 1e-9, "peak multiplier")
	almost(t, pr.Multiplier(0), 0.2, 1e-9, "trough multiplier")
	// Second day repeats the curve.
	almost(t, pr.Multiplier(1500*time.Millisecond), 1.0, 1e-9, "day-2 peak")
	// Midway between trough and peak sits at the curve midpoint.
	almost(t, pr.Multiplier(250*time.Millisecond), 0.6, 1e-9, "quarter-day multiplier")
}

func TestWeeklyFactor(t *testing.T) {
	pr := Profile{
		Day: time.Second, Days: 7, Base: 1, Peak: 1, RatePerClient: 100,
		Week: []float64{1, 1, 1, 1, 1, 0.5, 0.25},
	}
	almost(t, pr.Multiplier(100*time.Millisecond), 1.0, 1e-9, "weekday")
	almost(t, pr.Multiplier(5*time.Second+100*time.Millisecond), 0.5, 1e-9, "saturday")
	almost(t, pr.Multiplier(6*time.Second+100*time.Millisecond), 0.25, 1e-9, "sunday")
}

func TestBurstEnvelope(t *testing.T) {
	pr := Profile{
		Day: time.Second, Days: 2, Base: 0.5, Peak: 0.5, RatePerClient: 100,
		Bursts: []Burst{{Day: 1, Frac: 0.5, Mult: 3,
			Ramp: 100 * time.Millisecond, Dwell: 200 * time.Millisecond, Decay: 100 * time.Millisecond}},
	}
	start := 1500 * time.Millisecond
	almost(t, pr.Multiplier(start-time.Millisecond), 0.5, 1e-9, "before burst")
	almost(t, pr.Multiplier(start+50*time.Millisecond), 0.5*2, 1e-9, "mid ramp")
	almost(t, pr.Multiplier(start+150*time.Millisecond), 0.5*3, 1e-9, "dwell plateau")
	almost(t, pr.Multiplier(start+350*time.Millisecond), 0.5*2, 1e-9, "mid decay")
	almost(t, pr.Multiplier(start+400*time.Millisecond), 0.5, 1e-9, "after burst")
}

func TestGapTracksRate(t *testing.T) {
	pr := Profile{Day: time.Second, Days: 1, Base: 0.5, Peak: 0.5, RatePerClient: 200}
	// Multiplier 0.5 at 200 ops/s peak -> 100 ops/s -> 10ms gaps.
	if got := pr.Gap(0); got != 10*time.Millisecond {
		t.Fatalf("Gap = %v, want 10ms", got)
	}
}

func TestSpanCompression(t *testing.T) {
	pr := DefaultProfile()
	if got, want := pr.Span(), 7*pr.Day; got != want {
		t.Fatalf("Span = %v, want %v", got, want)
	}
}

func TestMultiplierFloor(t *testing.T) {
	pr := Profile{Day: time.Second, Days: 1, Base: 0.011, Peak: 0.011, RatePerClient: 100,
		Week: []float64{0.001}}
	if got := pr.Multiplier(0); got != minMult {
		t.Fatalf("floored multiplier = %g, want %g", got, minMult)
	}
}

func TestDefaultProfileValid(t *testing.T) {
	if err := DefaultProfile().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestValidateRefuses: the zero profile and the shapes the sinusoid and
// burst checks exist for are refused, each with its reason.
func TestValidateRefuses(t *testing.T) {
	burst := Burst{Day: 4, Frac: 0.5, Mult: 2, Ramp: time.Millisecond}
	for _, c := range []struct {
		mutate  func(*Profile)
		wantSub string
	}{
		{func(pr *Profile) { *pr = Profile{} }, "positive day length"},
		{func(pr *Profile) { pr.RatePerClient = 0 }, "per-client rate"},
		{func(pr *Profile) { pr.Base, pr.Peak = 2, 1 }, "base <= peak"},
		{func(pr *Profile) { pr.PeakFrac = 1 }, "peak time"},
		{func(pr *Profile) { pr.Week = []float64{1, 0} }, "week factor"},
		{func(pr *Profile) { pr.Days, pr.Bursts = 1, []Burst{burst} }, "outside the 1-day span"},
	} {
		pr := DefaultProfile()
		c.mutate(&pr)
		if err := pr.Validate(); err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Validate(%+v) = %v, want an error containing %q", pr, err, c.wantSub)
		}
	}
}
