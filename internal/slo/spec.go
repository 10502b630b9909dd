package slo

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// LatencyObjective declares "quantile of op completions must finish within
// Target": p99 stat < 10ms means 99% of stats under 10ms, so the error
// budget is the remaining 1% — completions slower than Target consume it.
type LatencyObjective struct {
	// Op is the operation class ("stat", "create", ...); "*" covers every
	// class through the aggregate sketch.
	Op string
	// Quantile is the objective quantile in (0,1), e.g. 0.99.
	Quantile float64
	// Target is the latency bound at the quantile.
	Target time.Duration
}

// Budget returns the objective's error budget: the allowed fraction of
// completions over Target.
func (o LatencyObjective) Budget() float64 { return 1 - o.Quantile }

// Name renders the objective for event logs: "latency:stat:p99<10ms".
func (o LatencyObjective) Name() string {
	return fmt.Sprintf("latency:%s:p%g<%v", o.Op, o.Quantile*100, o.Target)
}

// BurnPair is one multi-window burn-rate rule: the alert fires when the
// error-budget burn rate over both the short and the long trailing window
// is at least Rate, and resolves when the long window drops back under.
// Pairing a long window (sustained burn) with a short one (still burning
// now) is the Google SRE construction: the long window keeps one latency
// spike from paging, the short window makes the alert reset fast once the
// cause is fixed.
type BurnPair struct {
	// Name labels the pair in the event log ("fast", "slow").
	Name string
	// Short and Long are the trailing windows; Short < Long <= sketch span.
	Short, Long time.Duration
	// Rate is the burn-rate threshold: 1.0 burns the whole budget exactly
	// over the objective period, higher is faster.
	Rate float64
	// Severity of the resulting alert (fast burns page, slow burns ticket).
	Severity Severity
}

// Spec is the declarative SLO of a deployment: sketch geometry, the
// availability objective, per-op latency objectives, the burn-rate rules
// that alert on them. The zero Spec is not runnable; start from DefaultSpec.
type Spec struct {
	// Window is the sketch span (the longest answerable trailing window);
	// Slots is its resolution.
	Window time.Duration
	Slots  int
	// Tick is the evaluation interval of the engine on virtual time.
	Tick time.Duration

	// Availability is the cluster availability objective in (0,1), e.g.
	// 0.999: failed operations consume the 1-Availability error budget.
	Availability float64
	// Latency lists the per-op latency objectives.
	Latency []LatencyObjective
	// Burns lists the multi-window burn-rate rules applied to every
	// objective.
	Burns []BurnPair
}

// DefaultSpec returns the evaluation SLO, scaled to virtual-time campaigns
// that last tens of seconds: availability 99.9%, per-op p99 latency bounds
// wide enough for healthy cross-AZ operation, and a 14.4x fast-burn /
// 3x slow-burn pair over 1s/8s and 4s/12s windows. The windows are short
// on purpose: ops that degrade also complete more slowly, so they are
// underrepresented in completion counts, and a long window would dilute a
// real burn below threshold before the fault ends.
func DefaultSpec() Spec {
	return Spec{
		Window:       24 * time.Second,
		Slots:        96, // 250ms resolution
		Tick:         250 * time.Millisecond,
		Availability: 0.999,
		Latency: []LatencyObjective{
			{Op: "stat", Quantile: 0.99, Target: 10 * time.Millisecond},
			{Op: "read", Quantile: 0.99, Target: 15 * time.Millisecond},
			{Op: "create", Quantile: 0.99, Target: 40 * time.Millisecond},
			{Op: "*", Quantile: 0.99, Target: 80 * time.Millisecond},
		},
		Burns: []BurnPair{
			{Name: "fast", Short: time.Second, Long: 8 * time.Second, Rate: 14.4, Severity: SevPage},
			{Name: "slow", Short: 4 * time.Second, Long: 12 * time.Second, Rate: 3, Severity: SevTicket},
		},
	}
}

func (s Spec) withDefaults() Spec {
	d := DefaultSpec()
	if s.Window <= 0 {
		s.Window = d.Window
	}
	if s.Slots <= 0 {
		s.Slots = d.Slots
	}
	if s.Tick <= 0 {
		s.Tick = d.Tick
	}
	if s.Availability <= 0 || s.Availability >= 1 {
		s.Availability = d.Availability
	}
	// nil means "unset" and takes the defaults; an explicit empty non-nil
	// slice means "no latency objectives" and is kept.
	if s.Latency == nil {
		s.Latency = d.Latency
	}
	if len(s.Burns) == 0 {
		s.Burns = d.Burns
	}
	return s
}

// Render writes the spec in the line syntax ParseSpec reads.
func (s Spec) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "window %v slots %d tick %v\n", s.Window, s.Slots, s.Tick)
	fmt.Fprintf(&b, "availability %g\n", s.Availability*100)
	lat := append([]LatencyObjective(nil), s.Latency...)
	sort.SliceStable(lat, func(i, j int) bool { return lat[i].Op < lat[j].Op })
	for _, o := range lat {
		fmt.Fprintf(&b, "latency %s p%g %v\n", o.Op, o.Quantile*100, o.Target)
	}
	for _, p := range s.Burns {
		fmt.Fprintf(&b, "burn %s %v %v %gx\n", p.Name, p.Short, p.Long, p.Rate)
	}
	return b.String()
}

// ParseSpec reads a declarative SLO spec in a line-oriented syntax:
//
//	# comment
//	window 24s slots 96 tick 250ms
//	availability 99.9
//	latency stat p99 10ms
//	latency * p99 80ms
//	burn fast 1s 8s 14.4x
//	burn slow 4s 12s 3x
//
// Omitted sections fall back to DefaultSpec values, except latency
// objectives: a spec that lists any keeps exactly those.
func ParseSpec(text string) (Spec, error) {
	spec := Spec{}
	var burns []BurnPair
	for ln, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		f := strings.Fields(line)
		fail := func(err error) (Spec, error) {
			return Spec{}, fmt.Errorf("slo: line %d: %q: %w", ln+1, raw, err)
		}
		switch f[0] {
		case "window":
			// "window <dur> [slots <n>] [tick <dur>]"
			rest := f[1:]
			for len(rest) > 0 {
				switch rest[0] {
				case "slots":
					if len(rest) < 2 {
						return fail(fmt.Errorf("slots needs a value"))
					}
					n, err := strconv.Atoi(rest[1])
					if err != nil {
						return fail(err)
					}
					if n <= 0 {
						return fail(fmt.Errorf("slots must be positive"))
					}
					spec.Slots = n
					rest = rest[2:]
				case "tick":
					if len(rest) < 2 {
						return fail(fmt.Errorf("tick needs a value"))
					}
					d, err := time.ParseDuration(rest[1])
					if err != nil {
						return fail(err)
					}
					if d <= 0 {
						return fail(fmt.Errorf("tick must be positive"))
					}
					spec.Tick = d
					rest = rest[2:]
				default:
					d, err := time.ParseDuration(rest[0])
					if err != nil {
						return fail(err)
					}
					if d <= 0 {
						return fail(fmt.Errorf("window must be positive"))
					}
					spec.Window = d
					rest = rest[1:]
				}
			}
		case "availability":
			if len(f) != 2 {
				return fail(fmt.Errorf("want `availability <percent>`"))
			}
			pct, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return fail(err)
			}
			if !(pct > 0 && pct < 100) { // also rejects NaN
				return fail(fmt.Errorf("availability must be in (0,100)"))
			}
			spec.Availability = pct / 100
		case "latency":
			if len(f) != 4 || !strings.HasPrefix(f[2], "p") {
				return fail(fmt.Errorf("want `latency <op> p<quantile> <target>`"))
			}
			q, err := strconv.ParseFloat(f[2][1:], 64)
			if err != nil {
				return fail(err)
			}
			if !(q > 0 && q < 100) { // also rejects NaN
				return fail(fmt.Errorf("quantile must be in (0,100)"))
			}
			target, err := time.ParseDuration(f[3])
			if err != nil {
				return fail(err)
			}
			if target <= 0 {
				return fail(fmt.Errorf("latency target must be positive"))
			}
			spec.Latency = append(spec.Latency, LatencyObjective{Op: f[1], Quantile: q / 100, Target: target})
		case "burn":
			if len(f) != 5 {
				return fail(fmt.Errorf("want `burn <name> <short> <long> <rate>x`"))
			}
			short, err := time.ParseDuration(f[2])
			if err != nil {
				return fail(err)
			}
			long, err := time.ParseDuration(f[3])
			if err != nil {
				return fail(err)
			}
			rate, err := strconv.ParseFloat(strings.TrimSuffix(f[4], "x"), 64)
			if err != nil {
				return fail(err)
			}
			if short <= 0 || long <= short || !(rate > 0) || math.IsInf(rate, 0) {
				return fail(fmt.Errorf("want 0 < short < long and a finite rate > 0"))
			}
			sev := SevTicket
			if f[1] == "fast" || f[1] == "page" {
				sev = SevPage
			}
			burns = append(burns, BurnPair{Name: f[1], Short: short, Long: long, Rate: rate, Severity: sev})
		default:
			return fail(fmt.Errorf("unknown directive %q", f[0]))
		}
	}
	if burns != nil {
		spec.Burns = burns
	}
	spec = spec.withDefaults()
	for _, p := range spec.Burns {
		if p.Long > spec.Window {
			return Spec{}, fmt.Errorf("slo: burn pair %q long window %v exceeds sketch window %v", p.Name, p.Long, spec.Window)
		}
	}
	return spec, nil
}
