package loadshape

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Render writes the profile in the line syntax Parse reads.
func (pr Profile) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "day %v x %d\n", pr.Day, pr.Days)
	fmt.Fprintf(&b, "rate %g\n", pr.RatePerClient)
	if len(pr.Points) > 0 {
		for _, p := range pr.Points {
			fmt.Fprintf(&b, "point %s %g\n", fmtTOD(p.Frac), p.Mult)
		}
	} else {
		fmt.Fprintf(&b, "curve sinusoid base %g peak %g at %s\n", pr.Base, pr.Peak, fmtTOD(pr.PeakFrac))
	}
	if len(pr.Week) > 0 {
		parts := make([]string, len(pr.Week))
		for i, w := range pr.Week {
			parts[i] = strconv.FormatFloat(w, 'g', -1, 64)
		}
		fmt.Fprintf(&b, "week %s\n", strings.Join(parts, " "))
	}
	for _, bu := range pr.Bursts {
		fmt.Fprintf(&b, "burst day %d at %s ramp %v dwell %v decay %v x %g\n",
			bu.Day, fmtTOD(bu.Frac), bu.Ramp, bu.Dwell, bu.Decay, bu.Mult)
	}
	return b.String()
}

// fmtTOD renders a day fraction as HH:MM virtual time of day (rounded to
// the minute, which is all the syntax can express).
func fmtTOD(frac float64) string {
	mins := int(frac*24*60 + 0.5)
	return fmt.Sprintf("%02d:%02d", (mins/60)%24, mins%60)
}

// parseTOD parses an HH:MM virtual time of day into a day fraction.
func parseTOD(s string) (float64, error) {
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return 0, fmt.Errorf("want HH:MM, got %q", s)
	}
	h, err := strconv.Atoi(parts[0])
	if err != nil {
		return 0, fmt.Errorf("bad hour in %q: %w", s, err)
	}
	m, err := strconv.Atoi(parts[1])
	if err != nil {
		return 0, fmt.Errorf("bad minute in %q: %w", s, err)
	}
	if h < 0 || h > 23 || m < 0 || m > 59 {
		return 0, fmt.Errorf("time %q outside 00:00..23:59", s)
	}
	return (float64(h) + float64(m)/60) / 24, nil
}

// parseFinite parses a rate or multiplier. NaN and the infinities parse as
// floats, and Validate's bounds stop neither NaN (every comparison with it
// is false) nor +Inf, so they are rejected here.
func parseFinite(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		err = fmt.Errorf("want a finite number, got %q", s)
	}
	return v, err
}

// Parse reads a declarative load profile in a line-oriented syntax:
//
//	# a week of diurnal traffic, 3s per virtual day
//	day 3s x 7
//	rate 250                                  # ops/s per client at multiplier 1
//	curve sinusoid base 0.15 peak 1.0 at 14:00
//	week 1 1 1 1 1 0.7 0.55                   # weekend dip
//	burst day 2 at 19:30 ramp 120ms dwell 250ms decay 250ms x 2
//
// A piecewise-linear day replaces the sinusoid with breakpoints (linear
// interpolation between them, wrapping around midnight):
//
//	point 04:00 0.1
//	point 14:00 1.0
//	point 22:00 0.4
//
// All durations are compressed (simulation) time; times of day are virtual
// HH:MM within the compressed day. Omitted directives fall back to
// DefaultProfile geometry.
func Parse(text string) (Profile, error) {
	var pr Profile
	sawCurve := false
	for ln, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		f := strings.Fields(line)
		fail := func(err error) (Profile, error) {
			return Profile{}, fmt.Errorf("loadshape: line %d: %q: %w", ln+1, raw, err)
		}
		switch f[0] {
		case "day":
			// "day <dur> [x <days>]"
			if len(f) != 2 && (len(f) != 4 || f[2] != "x") {
				return fail(fmt.Errorf("want `day <dur> [x <days>]`"))
			}
			d, err := time.ParseDuration(f[1])
			if err != nil {
				return fail(err)
			}
			pr.Day = d
			if len(f) == 4 {
				n, err := strconv.Atoi(f[3])
				if err != nil {
					return fail(err)
				}
				pr.Days = n
			}
		case "rate":
			if len(f) != 2 {
				return fail(fmt.Errorf("want `rate <ops-per-second>`"))
			}
			r, err := parseFinite(f[1])
			if err != nil {
				return fail(err)
			}
			pr.RatePerClient = r
		case "curve":
			// "curve sinusoid base <m> peak <m> [at HH:MM]"
			if sawCurve || len(pr.Points) > 0 {
				return fail(fmt.Errorf("curve conflicts with an earlier curve/point directive"))
			}
			if len(f) < 2 || f[1] != "sinusoid" {
				return fail(fmt.Errorf("want `curve sinusoid base <m> peak <m> [at HH:MM]`"))
			}
			sawCurve = true
			pr.PeakFrac = DefaultProfile().PeakFrac
			rest := f[2:]
			for len(rest) > 0 {
				if len(rest) < 2 {
					return fail(fmt.Errorf("dangling %q", rest[0]))
				}
				switch rest[0] {
				case "base":
					v, err := parseFinite(rest[1])
					if err != nil {
						return fail(err)
					}
					pr.Base = v
				case "peak":
					v, err := parseFinite(rest[1])
					if err != nil {
						return fail(err)
					}
					pr.Peak = v
				case "at":
					frac, err := parseTOD(rest[1])
					if err != nil {
						return fail(err)
					}
					pr.PeakFrac = frac
				default:
					return fail(fmt.Errorf("unknown curve field %q", rest[0]))
				}
				rest = rest[2:]
			}
		case "point":
			if sawCurve {
				return fail(fmt.Errorf("point conflicts with an earlier curve directive"))
			}
			if len(f) != 3 {
				return fail(fmt.Errorf("want `point HH:MM <multiplier>`"))
			}
			frac, err := parseTOD(f[1])
			if err != nil {
				return fail(err)
			}
			m, err := parseFinite(f[2])
			if err != nil {
				return fail(err)
			}
			pr.Points = append(pr.Points, Point{Frac: frac, Mult: m})
		case "week":
			if len(f) < 2 {
				return fail(fmt.Errorf("want `week <factor>...`"))
			}
			pr.Week = nil
			for _, s := range f[1:] {
				w, err := parseFinite(s)
				if err != nil {
					return fail(err)
				}
				pr.Week = append(pr.Week, w)
			}
		case "burst":
			// "burst day <d> at HH:MM ramp <dur> dwell <dur> decay <dur> x <mult>"
			b := Burst{}
			rest := f[1:]
			for len(rest) > 0 {
				if len(rest) < 2 {
					return fail(fmt.Errorf("dangling %q", rest[0]))
				}
				var err error
				switch rest[0] {
				case "day":
					b.Day, err = strconv.Atoi(rest[1])
				case "at":
					b.Frac, err = parseTOD(rest[1])
				case "ramp":
					b.Ramp, err = time.ParseDuration(rest[1])
				case "dwell":
					b.Dwell, err = time.ParseDuration(rest[1])
				case "decay":
					b.Decay, err = time.ParseDuration(rest[1])
				case "x":
					b.Mult, err = parseFinite(rest[1])
				default:
					err = fmt.Errorf("unknown burst field %q", rest[0])
				}
				if err != nil {
					return fail(err)
				}
				rest = rest[2:]
			}
			if b.Mult == 0 {
				return fail(fmt.Errorf("burst needs `x <multiplier>`"))
			}
			pr.Bursts = append(pr.Bursts, b)
		default:
			return fail(fmt.Errorf("unknown directive %q", f[0]))
		}
	}
	pr = pr.withDefaults()
	sort.SliceStable(pr.Points, func(i, j int) bool { return pr.Points[i].Frac < pr.Points[j].Frac })
	if err := pr.Validate(); err != nil {
		return Profile{}, err
	}
	return pr, nil
}
