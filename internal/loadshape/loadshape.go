// Package loadshape turns the steady-state benchmark workload into the
// traffic a metadata cluster actually serves: a declarative load profile
// with a time-of-day curve (sinusoid day/night or piecewise-linear
// breakpoints), weekly structure (weekend dips), and flash-crowd burst
// events with ramp/dwell/decay envelopes. A time-compression factor maps
// virtual days onto a bounded simulation run, so "replay a week of traffic"
// costs seconds of virtual time.
//
// A profile is purely a function from virtual time to a load multiplier:
// evaluation allocates nothing and draws no randomness, so two runs with
// the same seed replay byte-identical offered-load curves. The only
// randomness in a paced run is the per-client arrival jitter, drawn from
// the simulation's per-process RNG streams — deterministic per seed like
// everything else on the virtual clock.
package loadshape

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"hopsfscl/internal/sim"
	"hopsfscl/internal/workload"
)

// minMult floors the curve so pacing gaps stay finite: an idle valley is
// quiet, not silent (real clusters never see literally zero traffic).
const minMult = 0.01

// Point is one breakpoint of a piecewise-linear day curve: the load
// multiplier at a time-of-day fraction in [0,1). The curve interpolates
// linearly between consecutive points and wraps around midnight.
type Point struct {
	Frac float64 // time of day as a fraction of the (compressed) day
	Mult float64 // load multiplier at that instant
}

// Burst is one flash-crowd event: starting at time-of-day Frac on day Day,
// the load multiplier ramps linearly from 1 to Mult over Ramp, holds for
// Dwell, and decays linearly back over Decay. Bursts multiply the diurnal
// curve (a crowd arriving at peak hurts more than one at night), and
// overlapping bursts compound.
type Burst struct {
	Day  int     // 0-based virtual day index
	Frac float64 // time-of-day fraction of the ramp start
	Mult float64 // multiplier at the plateau (> 1 for a spike)

	// Ramp, Dwell, Decay are in compressed (simulation) time, like every
	// duration in a profile.
	Ramp, Dwell, Decay time.Duration
}

// Profile is a declarative load shape over a run of Days compressed
// virtual days, each Day long in simulation time. The zero Profile is not
// runnable; start from DefaultProfile or Parse.
type Profile struct {
	// Day is the compressed length of one virtual day; Days is how many
	// the profile spans.
	Day  time.Duration
	Days int

	// Base and Peak bound the sinusoid day/night curve (Base at the
	// trough); PeakFrac is the time-of-day fraction of the peak. Points,
	// when set, replaces the sinusoid with a piecewise-linear curve and
	// Base/Peak/PeakFrac are ignored.
	Base, Peak float64
	PeakFrac   float64
	Points     []Point

	// Week scales whole days: day d uses Week[d mod len(Week)]. Empty
	// means no weekly structure.
	Week []float64

	// Bursts lists the flash-crowd events.
	Bursts []Burst

	// RatePerClient is the offered operation rate of one paced client at
	// multiplier 1.0, in ops/second.
	RatePerClient float64
}

// DefaultProfile returns a week of diurnal traffic compressed to 3s days:
// a sinusoid swinging 0.15..1.0 peaking mid-afternoon, a weekend dip, and
// one evening flash crowd mid-week.
func DefaultProfile() Profile {
	return Profile{
		Day:           3 * time.Second,
		Days:          7,
		Base:          0.15,
		Peak:          1.0,
		PeakFrac:      14.0 / 24,
		Week:          []float64{1, 1, 1, 1, 1, 0.7, 0.55},
		RatePerClient: 250,
		Bursts: []Burst{
			{Day: 2, Frac: 19.5 / 24, Mult: 2.0,
				Ramp: 120 * time.Millisecond, Dwell: 250 * time.Millisecond, Decay: 250 * time.Millisecond},
		},
	}
}

// withDefaults fills unset geometry from DefaultProfile so a sparse parsed
// profile is runnable.
func (pr Profile) withDefaults() Profile {
	d := DefaultProfile()
	if pr.Day <= 0 {
		pr.Day = d.Day
	}
	if pr.Days <= 0 {
		pr.Days = d.Days
	}
	if len(pr.Points) == 0 {
		if pr.Peak <= 0 {
			pr.Base, pr.Peak, pr.PeakFrac = d.Base, d.Peak, d.PeakFrac
		}
		if pr.Base <= 0 {
			pr.Base = minMult
		}
	}
	if pr.RatePerClient <= 0 {
		pr.RatePerClient = d.RatePerClient
	}
	return pr
}

// Validate reports the first structural problem of a profile.
func (pr Profile) Validate() error {
	if pr.Day <= 0 || pr.Days <= 0 {
		return fmt.Errorf("loadshape: need a positive day length and day count")
	}
	if pr.RatePerClient <= 0 {
		return fmt.Errorf("loadshape: need a positive per-client rate")
	}
	if len(pr.Points) > 0 {
		for _, p := range pr.Points {
			if p.Frac < 0 || p.Frac >= 1 {
				return fmt.Errorf("loadshape: point time %.3f outside [0,1)", p.Frac)
			}
			if p.Mult <= 0 {
				return fmt.Errorf("loadshape: point multiplier %g must be positive", p.Mult)
			}
		}
	} else {
		if pr.Base <= 0 || pr.Peak < pr.Base {
			return fmt.Errorf("loadshape: need 0 < base <= peak (got base %g peak %g)", pr.Base, pr.Peak)
		}
		if pr.PeakFrac < 0 || pr.PeakFrac >= 1 {
			return fmt.Errorf("loadshape: peak time %.3f outside [0,1)", pr.PeakFrac)
		}
	}
	for _, w := range pr.Week {
		if w <= 0 {
			return fmt.Errorf("loadshape: week factor %g must be positive", w)
		}
	}
	for i, b := range pr.Bursts {
		if b.Day < 0 || b.Day >= pr.Days {
			return fmt.Errorf("loadshape: burst %d on day %d outside the %d-day span", i, b.Day, pr.Days)
		}
		if b.Frac < 0 || b.Frac >= 1 {
			return fmt.Errorf("loadshape: burst %d time %.3f outside [0,1)", i, b.Frac)
		}
		if b.Mult <= 0 {
			return fmt.Errorf("loadshape: burst %d multiplier %g must be positive", i, b.Mult)
		}
		if b.Ramp < 0 || b.Dwell < 0 || b.Decay < 0 || b.Ramp+b.Dwell+b.Decay <= 0 {
			return fmt.Errorf("loadshape: burst %d needs a positive envelope", i)
		}
	}
	return nil
}

// Span is the profile's total compressed run length.
func (pr Profile) Span() time.Duration { return time.Duration(pr.Days) * pr.Day }

// dayCurve evaluates the time-of-day curve at day fraction frac.
func (pr Profile) dayCurve(frac float64) float64 {
	if len(pr.Points) == 0 {
		// Cosine peaking at PeakFrac: Base at the opposite side of the day.
		c := 0.5 + 0.5*math.Cos(2*math.Pi*(frac-pr.PeakFrac))
		return pr.Base + (pr.Peak-pr.Base)*c
	}
	pts := pr.Points // sorted by Parse / normalizePoints
	// Find the segment containing frac, wrapping around midnight.
	i := sort.Search(len(pts), func(i int) bool { return pts[i].Frac > frac }) - 1
	a := pts[(i+len(pts))%len(pts)]
	b := pts[(i+1)%len(pts)]
	af, bf := a.Frac, b.Frac
	if af > frac { // frac before the first point: previous segment wraps back
		af -= 1
	}
	if bf <= af {
		bf += 1
	}
	if bf == af {
		return a.Mult
	}
	t := (frac - af) / (bf - af)
	return a.Mult + (b.Mult-a.Mult)*t
}

// burstEnvelope evaluates one burst's multiplier at absolute compressed
// time t (1 outside the envelope).
func (pr Profile) burstEnvelope(b Burst, t time.Duration) float64 {
	start := time.Duration(b.Day)*pr.Day + time.Duration(b.Frac*float64(pr.Day))
	dt := t - start
	switch {
	case dt < 0 || dt >= b.Ramp+b.Dwell+b.Decay:
		return 1
	case dt < b.Ramp:
		return 1 + (b.Mult-1)*float64(dt)/float64(b.Ramp)
	case dt < b.Ramp+b.Dwell:
		return b.Mult
	default:
		rem := float64(dt-b.Ramp-b.Dwell) / float64(b.Decay)
		return b.Mult + (1-b.Mult)*rem
	}
}

// Multiplier evaluates the load multiplier at compressed time t since the
// profile start: day curve x weekly factor x burst envelopes, floored at
// a small positive minimum. Past the span it holds the final day's curve
// (callers normally stop at Span).
func (pr Profile) Multiplier(t time.Duration) float64 {
	if t < 0 {
		t = 0
	}
	day := int(t / pr.Day)
	if day >= pr.Days {
		day = pr.Days - 1
	}
	frac := float64(t-time.Duration(day)*pr.Day) / float64(pr.Day)
	if frac < 0 {
		frac = 0
	} else if frac >= 1 {
		frac = math.Nextafter(1, 0)
	}
	m := pr.dayCurve(frac)
	if len(pr.Week) > 0 {
		m *= pr.Week[day%len(pr.Week)]
	}
	for _, b := range pr.Bursts {
		m *= pr.burstEnvelope(b, t)
	}
	if m < minMult {
		m = minMult
	}
	return m
}

// Gap returns the target inter-arrival gap of one paced client at
// compressed time t: 1/(RatePerClient x Multiplier(t)).
func (pr Profile) Gap(t time.Duration) time.Duration {
	r := pr.RatePerClient * pr.Multiplier(t)
	return time.Duration(float64(time.Second) / r)
}

// PaceControl steers a set of paced clients from outside the simulation.
// Pause parks clients between operations (audit quiesce); Stop ends them.
type PaceControl struct {
	Stop  bool
	Pause bool
	// Ops and Errors tally completions across every client on the control
	// (the simulation schedules clients cooperatively, so plain counters
	// are safe).
	Ops    int64
	Errors int64
}

// Pace runs one paced client process: operations drawn from gen execute
// against fs at the profile's offered rate. Arrivals are open-loop — when
// an operation finishes before its gap the client sleeps the remainder
// (with seeded jitter to avoid phase lock), and when the system is slower
// than the offered rate the client degrades to closed-loop, which is what
// saturates an underprovisioned cluster. Returns when the profile span
// ends or ctl.Stop is set.
func (pr Profile) Pace(p *sim.Proc, start time.Duration, gen *workload.Generator, fs workload.FS, ctl *PaceControl) {
	span := pr.Span()
	parked := false
	for !ctl.Stop {
		if ctl.Pause {
			parked = true
			p.Sleep(500 * time.Microsecond)
			continue
		}
		t := p.Now() - start
		if t >= span {
			return
		}
		gap := pr.Gap(t)
		if parked {
			// Every client notices an unpause within one polling tick, so
			// resuming in lockstep would slam the cluster with a synthetic
			// herd no real workload produces. Re-spread over one gap first.
			parked = false
			p.Sleep(time.Duration(p.Rand().Float64() * float64(gap)))
			continue
		}
		t0 := p.Now()
		_, err := gen.Step(p, fs)
		if !errors.Is(err, workload.ErrNoTarget) {
			ctl.Ops++
			if err != nil {
				ctl.Errors++
			}
		}
		if el := p.Now() - t0; el < gap {
			// Jitter the idle remainder +/-50% so clients spread over the
			// gap instead of phase-locking on profile edges; the mean stays
			// at the offered rate.
			rest := gap - el
			j := time.Duration((0.5 + p.Rand().Float64()) * float64(rest))
			p.Sleep(j)
		}
	}
}
