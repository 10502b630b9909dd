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

func TestPiecewiseCurveWraps(t *testing.T) {
	pr := Profile{
		Day: time.Second, Days: 1, RatePerClient: 100,
		Points: []Point{{Frac: 0.25, Mult: 1.0}, {Frac: 0.75, Mult: 0.2}},
	}
	if err := pr.Validate(); err != nil {
		t.Fatal(err)
	}
	almost(t, pr.Multiplier(250*time.Millisecond), 1.0, 1e-9, "at first point")
	almost(t, pr.Multiplier(750*time.Millisecond), 0.2, 1e-9, "at second point")
	almost(t, pr.Multiplier(500*time.Millisecond), 0.6, 1e-9, "interpolated midpoint")
	// The segment from 0.75 wraps through midnight back to 0.25: at frac 0
	// we are halfway along it.
	almost(t, pr.Multiplier(0), 0.6, 1e-9, "wrapped midnight value")
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

func TestParseRoundTrip(t *testing.T) {
	text := `
# a compressed week
day 2s x 7
rate 300
curve sinusoid base 0.2 peak 1 at 15:00
week 1 1 1 1 1 0.7 0.5
burst day 3 at 20:00 ramp 100ms dwell 200ms decay 150ms x 2.5
`
	pr, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Day != 2*time.Second || pr.Days != 7 || pr.RatePerClient != 300 {
		t.Fatalf("geometry: %+v", pr)
	}
	if len(pr.Bursts) != 1 || pr.Bursts[0].Day != 3 || pr.Bursts[0].Mult != 2.5 {
		t.Fatalf("bursts: %+v", pr.Bursts)
	}
	almost(t, pr.PeakFrac, 15.0/24, 1e-9, "peak frac")
	// Render -> Parse is the identity on the multiplier function.
	rt, err := Parse(pr.Render())
	if err != nil {
		t.Fatalf("re-parse rendered profile: %v", err)
	}
	for _, at := range []time.Duration{0, 500 * time.Millisecond, 3 * time.Second, 7 * time.Second, 13 * time.Second} {
		a, b := pr.Multiplier(at), rt.Multiplier(at)
		almost(t, b, a, 1e-6, "round-trip multiplier at "+at.String())
	}
}

func TestParsePiecewise(t *testing.T) {
	pr, err := Parse("day 1s x 1\npoint 06:00 0.3\npoint 12:00 1\npoint 18:00 0.5\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Points) != 3 {
		t.Fatalf("points: %+v", pr.Points)
	}
	almost(t, pr.Multiplier(time.Second/2), 1.0, 1e-9, "noon multiplier")
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ text, wantSub string }{
		{"frob 1", "line 1"},
		{"frob 1", "unknown directive"},
		{"day nope", "line 1"},
		{"burst day 0 at 12:00 ramp 1ms dwell 1ms decay 1ms", "x <multiplier>"},
		{"point 25:00 1", "outside 00:00..23:59"},
		{"curve sinusoid base 0.2 peak 1\npoint 06:00 1", "conflicts"},
		{"point 06:00 1\ncurve sinusoid base 0.2 peak 1", "conflicts"},
		{"day 1s x 1\nburst day 4 at 12:00 ramp 1ms dwell 1ms decay 1ms x 2", "outside the 1-day span"},
		{"curve sinusoid base 2 peak 1", "base <= peak"},
		{"rate NaN", "line 1"},
		{"rate NaN", "finite"},
		{"rate 100\nrate +Inf", "line 2"},
		{"curve sinusoid base NaN peak 1", "finite"},
		{"curve sinusoid base 0.2 peak Inf", "finite"},
		{"point 06:00 NaN", "finite"},
		{"week 1 1 -Inf", "finite"},
		{"burst day 0 at 12:00 ramp 1ms dwell 1ms decay 1ms x NaN", "finite"},
	}
	for _, c := range cases {
		if _, err := Parse(c.text); err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Parse(%q) error = %v, want containing %q", c.text, err, c.wantSub)
		}
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

// FuzzParse checks that Parse never panics and that every profile it
// accepts survives Render → Parse → Render unchanged.
func FuzzParse(f *testing.F) {
	f.Add(DefaultProfile().Render())
	f.Add("# a compressed week\nday 2s x 7\nrate 300\ncurve sinusoid base 0.2 peak 1 at 15:00\nweek 1 1 1 1 1 0.7 0.5\nburst day 3 at 20:00 ramp 100ms dwell 200ms decay 150ms x 2.5\n")
	f.Add("day 1s x 1\npoint 18:00 0.5\npoint 06:00 0.3\npoint 12:00 1\n")
	for _, bad := range []string{
		"frob 1", "day nope", "point 25:00 1", "curve sinusoid base 2 peak 1",
		"burst day 0 at 12:00 ramp 1ms dwell 1ms decay 1ms",
		"curve sinusoid base 0.2 peak 1\npoint 06:00 1",
		"rate NaN", "rate +Inf", "curve sinusoid base NaN peak 1", "curve sinusoid base 0.2 peak Inf",
		"point 06:00 NaN", "week 1 1 -Inf", "burst day 0 at 12:00 ramp 1ms dwell 1ms decay 1ms x NaN",
	} {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, text string) {
		pr, err := Parse(text)
		if err != nil {
			return
		}
		rendered := pr.Render()
		again, err := Parse(rendered)
		if err != nil {
			t.Fatalf("rendered profile does not parse: %v\n%s", err, rendered)
		}
		if got := again.Render(); got != rendered {
			t.Fatalf("render is not a fixed point:\n%s\nvs\n%s", rendered, got)
		}
	})
}
