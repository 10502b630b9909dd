package bench

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"hopsfscl/internal/chaos"
	"hopsfscl/internal/core"
	"hopsfscl/internal/metrics"
	"hopsfscl/internal/sim"
	"hopsfscl/internal/slo"
	"hopsfscl/internal/workload"
)

// The elastic experiment: a fixed client population offers a shaped diurnal
// load (the week, below) against HopsFS-CL (3,3), and the serving tier
// either stays static or follows an autoscale controller (below) that
// commissions and drains namenodes online. It is one recipe: every
// parameter is a constant here, and a run takes only its seed. The
// paper's §II premise — stateless metadata serving over replicated NDB —
// is exactly what makes this safe, and the experiment proves it: the chaos
// auditor checks cross-layer invariants at every scale transition.
//
// The default NN sizing is deliberately small (2 cores, 1.5ms per op,
// ~1.3k ops/s per server): at the paper's 32-vCPU sizing the benchmark
// client population can never saturate a namenode, so there would be
// nothing to scale on. The population is sized so the closed-loop latency
// ceiling (clients / min-capacity, the queueing bound paced clients
// degrade to under overload) sits well above the p99 target — otherwise
// static-min provisioning could never violate the SLO no matter how hard
// the peak runs. Elections run at 100ms rounds so commissioned servers
// enter the leader's active list within a small fraction of a compressed
// 3s day.

// ElasticMode selects the provisioning policy of one run.
type ElasticMode int

// Elastic modes.
const (
	// ModeElastic runs the autoscale controller between minServers and
	// maxServers.
	ModeElastic ElasticMode = iota
	// ModeStaticMin provisions minServers for the whole run.
	ModeStaticMin
	// ModeStaticPeak provisions maxServers for the whole run.
	ModeStaticPeak
)

// String returns the mode's report label.
func (m ElasticMode) String() string {
	switch m {
	case ModeElastic:
		return "elastic"
	case ModeStaticMin:
		return "static-min"
	case ModeStaticPeak:
		return "static-peak"
	}
	return fmt.Sprintf("mode-%d", int(m))
}

// The elastic experiment's fixed parameters.
const (
	// elasticNNCores, elasticNNOpBase and elasticElectionRound size the
	// metadata servers (see the comment at the top of this file for why they
	// shrink the paper's sizing).
	elasticNNCores       = 2
	elasticNNOpBase      = 1500 * time.Microsecond
	elasticElectionRound = 100 * time.Millisecond
	// controlTick is the monitor/controller evaluation interval.
	controlTick = 25 * time.Millisecond
	// timelineEvery is the timeline's sampling interval.
	timelineEvery = 50 * time.Millisecond
	// elasticClients is the paced client population, fixed across modes and
	// divisible by minServers and maxServers, so the static deployments
	// build with whole clients-per-server counts. 96 clients x 38 ops/s
	// (ratePerClient) at peak: ~3.6k ops/s offered at a weekday peak
	// (comfortable on 6 servers, hopeless on 2) and a ~45ms closed-loop
	// latency ceiling at min capacity, past the 20ms target.
	elasticClients = 96
)

// The controller's thresholds. minServers and maxServers also size the
// static modes.
const (
	// minServers and maxServers clamp the serving-server count.
	minServers = 2
	maxServers = 6
	// targetP99 is the latency objective the controller defends; the p99
	// signal is compared against it directly.
	targetP99 = 20 * time.Millisecond
	// Above upUtil (or above targetP99) counts toward scaling up, below
	// downUtil (with p99 under half the target) toward scaling down.
	upUtil   = 0.70
	downUtil = 0.30
	// upStreak and downStreak are how many consecutive evaluations must
	// agree before acting — the hysteresis that stops flapping.
	upStreak   = 3
	downStreak = 10
	// cooldown suppresses further actions after one fires, long enough for
	// the previous action's effect to show up in the signals.
	cooldown = 250 * time.Millisecond
	// upStep is how many servers one action adds. A firing SLO page doubles
	// it (emergency growth).
	upStep = 1
	// downStep is how many servers one action drains: scaling down is lazy,
	// one server at a time, so a drain past minServers cannot happen.
	downStep = 1
)

// The week's shape. Every duration is compressed (simulation) time.
const (
	// virtualDay is the compressed length of one virtual day; weekDays is
	// how many the run spans.
	virtualDay = 3 * time.Second
	weekDays   = 7
	// troughLoad and peakLoad bound the day/night curve;
	// peakFrac is the time-of-day fraction of the peak, mid-afternoon.
	troughLoad = 0.15
	peakLoad   = 1.0
	peakFrac   = 14.0 / 24
	// ratePerClient is the offered operation rate of one paced client at
	// multiplier 1.0, in ops/second.
	ratePerClient = 38

	// The flash crowd: starting at time-of-day burstFrac on day burstDay
	// (0-based), the multiplier ramps linearly from 1 to burstMult over
	// burstRamp, holds for burstDwell, and decays linearly back over
	// burstDecay. It multiplies the day curve: a crowd arriving at peak
	// hurts more than one at night.
	burstDay   = 2
	burstFrac  = 19.5 / 24
	burstMult  = 2.0
	burstRamp  = 120 * time.Millisecond
	burstDwell = 250 * time.Millisecond
	burstDecay = 250 * time.Millisecond

	// weekSpan is the run's compressed length.
	weekSpan = weekDays * virtualDay
)

// weekFactor scales whole days: day d uses weekFactor[d], a weekend dip
// at the end.
var weekFactor = [weekDays]float64{1, 1, 1, 1, 1, 0.7, 0.55}

// elasticSpec is the SLO evaluated during elastic runs: windows shrunk to
// compressed-day scale (burn pairs must fit well inside a 3s virtual day to
// fire while a ramp is still happening).
func elasticSpec() slo.Spec {
	s := slo.DefaultSpec()
	s.Window = 6 * time.Second
	s.Slots = 120 // 50ms resolution
	s.Tick = 50 * time.Millisecond
	s.Latency = []slo.LatencyObjective{{Op: "*", Quantile: 0.99, Target: targetP99}}
	s.Burns = []slo.BurnPair{
		{Name: "fast", Short: 400 * time.Millisecond, Long: 1200 * time.Millisecond, Rate: 14.4, Severity: slo.SevPage},
		{Name: "slow", Short: time.Second, Long: 3 * time.Second, Rate: 3, Severity: slo.SevTicket},
	}
	return s
}

// ElasticResult summarizes one elastic run.
type ElasticResult struct {
	Span    time.Duration // accounted (non-paused) run time
	Ops     int64
	Errors  int64
	OverSLO time.Duration // accounted time with rolling p99 above target
	// NNSeconds integrates serving servers over accounted time — the
	// provisioning cost ("server-seconds paid").
	NNSeconds float64
	// MinServing/MaxServing bound the serving count seen at control ticks.
	MinServing, MaxServing int
	ScaleUps, ScaleDowns   int
	// Events is the controller's scale-event log, one line per action.
	Events string
	// Checkpoints/Violations/FailedQuiesces summarize the per-transition
	// audits plus the settled end-of-run audit.
	Checkpoints    int
	Violations     []chaos.Violation
	FailedQuiesces int
	// Timeline holds one frame per timelineEvery.
	Timeline []ElasticFrame
}

// ElasticFrame is one timeline sample of an elastic run.
type ElasticFrame struct {
	At      time.Duration
	Load    float64       // the week's offered-load multiplier
	Serving int           // serving metadata servers
	P99     time.Duration // rolling aggregate p99 over the last 400 ms
}

// RunElastic runs one mode of the elastic experiment at seed.
func RunElastic(mode ElasticMode, seed int64) (*ElasticResult, error) {
	startNNs := minServers
	if mode == ModeStaticPeak {
		startNNs = maxServers
	}

	opts := core.DefaultOptions(core.PaperSetups[5]) // HopsFS-CL (3,3)
	opts.MetadataServers = startNNs
	opts.ClientsPerServer = elasticClients / startNNs
	opts.Seed = seed
	opts.NNCores = elasticNNCores
	opts.NNOpBase = elasticNNOpBase
	opts.NNElectionRound = elasticElectionRound
	d, err := core.Build(opts)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	env := d.Env

	var ctl controller
	eng := d.EnableSLO(elasticSpec())
	auditor := chaos.NewAuditor(d)
	res := &ElasticResult{MinServing: startNNs, MaxServing: startNNs}

	// Let elections converge before offering load, so the first client pick
	// sees a populated active list.
	env.RunFor(4 * elasticElectionRound)

	// Paced clients: open-loop arrivals following the week, degrading to
	// closed-loop under overload (pace).
	paced := &paceControl{}
	start := env.Now()
	for i, fs := range d.Clients {
		fs := fs
		home := d.Namespace.HomeDirsFor(i, HomeDirsPerClient)
		gen := workload.NewAffineGenerator(d.Namespace, workload.SpotifyMix, seed+int64(i), home, ClientAffinity)
		env.Spawn("paced-client", func(p *sim.Proc) { pace(p, start, gen, fs, paced) })
	}

	var paused time.Duration
	elapsed := func() time.Duration { return env.Now() - start - paused }
	d.Every("timeline", timelineEvery, func(now time.Duration) {
		res.Timeline = append(res.Timeline, ElasticFrame{
			At: now, Load: loadMultiplier(elapsed()), Serving: d.ServingNNs(),
			P99: eng.OpSummary("*", now, 400*time.Millisecond).Percentile(0.99),
		})
	})

	// Per-NN CPU windows for the controller's utilization signal (the SLO
	// engine's HealthStats probe keeps its own window; sharing it would make
	// both read half-intervals).
	var utilAt time.Duration
	utilBusy := make(map[int]sim.UtilWindow)
	markAll := func(now time.Duration) {
		for _, nn := range d.NS.NameNodes() {
			var w sim.UtilWindow
			w.Mark(nn.CPU(), now)
			utilBusy[nn.ID] = w
		}
		utilAt = now
	}
	markAll(start)
	servingUtil := func(now time.Duration) float64 {
		var sum float64
		var n int
		for _, nn := range d.NS.ServingNameNodes() {
			if w, ok := utilBusy[nn.ID]; ok && now > utilAt {
				sum += w.Read(nn.CPU(), now)
				n++
			}
		}
		markAll(now)
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}

	// audit parks the paced clients between operations and polls until the
	// stack drains (core.Deployment.Idle), then runs one audit checkpoint.
	// Pause time is excluded from the run accounting. settled is true only
	// for the final audit, after elections have had time to converge.
	audit := func(settled bool) {
		pauseStart := env.Now()
		paced.pause = true
		drained := env.RunUntil(func() bool {
			d.FinishDrains()
			return d.Idle()
		}, 2*time.Millisecond, 500*time.Millisecond)
		if !drained {
			res.FailedQuiesces++
		}
		d.FinishDrains()
		vs := auditor.Check(env.Now(), drained, settled)
		res.Violations = append(res.Violations, vs...)
		paced.pause = false
		paused += env.Now() - pauseStart
	}

	// Main control loop, chaos-engine style: the main goroutine alternates
	// simulation steps with monitoring, controller evaluation, actuation,
	// and a quiesced audit after every scale transition.
	for elapsed() < weekSpan {
		env.RunFor(controlTick)
		now := env.Now()

		sum := eng.OpSummary("*", now, 400*time.Millisecond)
		p99 := sum.Percentile(0.99)
		serving := d.ServingNNs()
		if serving < res.MinServing {
			res.MinServing = serving
		}
		if serving > res.MaxServing {
			res.MaxServing = serving
		}
		if sum.Count > 0 && p99 > targetP99 {
			res.OverSLO += controlTick
		}
		res.NNSeconds += float64(serving) * controlTick.Seconds()
		d.FinishDrains()

		if mode != ModeElastic {
			continue
		}
		sig := signals{
			serving: serving,
			util:    servingUtil(now),
			p99:     p99,
			firing:  eng.Firing(),
		}
		delta, _ := ctl.evaluate(now, sig)
		switch {
		case delta > 0:
			d.AddNameNodes(delta)
			res.ScaleUps++
			audit(false)
		case delta < 0:
			d.DrainNameNodes(-delta)
			res.ScaleDowns++
			audit(false)
		}
	}
	paced.stop = true
	res.Events = ctl.log.String()
	res.Span = elapsed()
	res.Ops = paced.ops
	res.Errors = paced.errors

	// Final settled audit: let drains complete and elections converge, then
	// hold the full invariant set including leader uniqueness.
	env.RunFor(4 * elasticElectionRound)
	audit(true)
	res.Checkpoints = auditor.Checkpoints

	d.StopBackground()
	env.RunFor(2 * elasticElectionRound)
	return res, nil
}

// OverSLOFraction is the accounted share of the run spent above target.
func (r *ElasticResult) OverSLOFraction() float64 {
	if r.Span <= 0 {
		return 0
	}
	return float64(r.OverSLO) / float64(r.Span)
}

// Autoscale runs the elastic experiment: the same shaped week of traffic
// against the autoscaled tier and both static provisioning baselines.
func Autoscale(o ExpOptions) (string, []Claim, error) {
	modes := []ElasticMode{ModeElastic, ModeStaticMin, ModeStaticPeak}
	results := make(map[ElasticMode]*ElasticResult, len(modes))
	for _, m := range modes {
		r, err := RunElastic(m, o.Seed)
		if err != nil {
			return "", nil, fmt.Errorf("%s: %w", m, err)
		}
		results[m] = r
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Elastic metadata tier over a compressed week (%d virtual days x %v), %d paced clients\n",
		weekDays, virtualDay, elasticClients)
	fmt.Fprintf(&b, "NN sizing: %d cores, %v per op (~%.0f ops/s per server); target p99 %v; servers %d..%d\n\n",
		elasticNNCores, elasticNNOpBase,
		float64(elasticNNCores)*float64(time.Second)/float64(elasticNNOpBase),
		targetP99, minServers, maxServers)

	tbl := metrics.NewTable("mode", "servers", "ops", "errors", "time>SLO", "share", "NN-seconds", "audits", "violations")
	for _, m := range modes {
		r := results[m]
		tbl.AddRow(m.String(),
			fmt.Sprintf("%d..%d", r.MinServing, r.MaxServing),
			fmt.Sprintf("%d", r.Ops),
			fmt.Sprintf("%d", r.Errors),
			fmt.Sprintf("%v", r.OverSLO.Round(time.Millisecond)),
			fmt.Sprintf("%.1f%%", r.OverSLOFraction()*100),
			fmt.Sprintf("%.1f", r.NNSeconds),
			fmt.Sprintf("%d", r.Checkpoints),
			fmt.Sprintf("%d", len(r.Violations)))
	}
	b.WriteString(tbl.Markdown())

	el, mn, pk := results[ModeElastic], results[ModeStaticMin], results[ModeStaticPeak]
	violations, quiesces := len(el.Violations)+len(mn.Violations)+len(pk.Violations), el.FailedQuiesces+mn.FailedQuiesces+pk.FailedQuiesces
	fmt.Fprintf(&b, "\nscale events (%d up, %d down):\n\n%s",
		el.ScaleUps, el.ScaleDowns, fence(el.Events))

	b.WriteString("\ntimeline (one row per half virtual day):\n\n")
	b.WriteString(renderElasticTimeline(el))

	claims := []Claim{
		{"autoscale/slo", "beyond (§VI): the elastic tier spends less time over the SLO than static-min",
			fmt.Sprintf("%v vs %v", el.OverSLO.Round(time.Millisecond), mn.OverSLO.Round(time.Millisecond)), el.OverSLO < mn.OverSLO, ""},
		{"autoscale/cost", "beyond (§VI): and costs fewer NN-seconds than static-peak",
			fmt.Sprintf("%.1f vs %.1f", el.NNSeconds, pk.NNSeconds), el.NNSeconds < pk.NNSeconds, ""},
		{"autoscale/scale-ups", "beyond: the controller scales up at least twice", fmt.Sprintf("%d", el.ScaleUps), el.ScaleUps >= 2, ""},
		{"autoscale/scale-downs", "beyond: and down at least once", fmt.Sprintf("%d", el.ScaleDowns), el.ScaleDowns >= 1, ""},
		{"autoscale/audits", "beyond: every commission, drain and settled state passes the invariant audit",
			fmt.Sprintf("%d violations over the three modes", violations), violations == 0, ""},
		{"autoscale/quiesces", "beyond: every audit quiesces the workload first",
			fmt.Sprintf("%d failed quiesces", quiesces), quiesces == 0, ""},
	}
	return b.String(), claims, nil
}

// renderElasticTimeline samples the timeline at half-day boundaries:
// offered load vs serving servers vs rolling p99.
func renderElasticTimeline(r *ElasticResult) string {
	frames := r.Timeline
	if len(frames) == 0 {
		return "(no frames)\n"
	}
	tbl := metrics.NewTable("day", "load", "serving", "p99")
	step := virtualDay / 2
	next := frames[0].At
	for _, fr := range frames {
		if fr.At < next {
			continue
		}
		next = fr.At + step
		day := float64(fr.At-frames[0].At) / float64(virtualDay)
		tbl.AddRow(fmt.Sprintf("%.1f", day),
			fmt.Sprintf("%.2f", fr.Load),
			fmt.Sprintf("%d", fr.Serving),
			fmt.Sprintf("%.1fms", float64(fr.P99)/float64(time.Millisecond)))
	}
	return tbl.Markdown()
}

// The elastic run's load shape turns the steady-state benchmark workload
// into the traffic a metadata cluster actually serves: a week of sinusoid
// day/night curves with a weekend dip and one flash crowd, its days
// compressed so that replaying the week costs seconds of virtual time.
//
// The shape is purely a function from virtual time to a load multiplier:
// evaluating it allocates nothing and draws no randomness, so two runs with
// the same seed replay byte-identical offered-load curves. The only
// randomness in a paced run is the per-client arrival jitter, drawn from the
// simulation's per-process RNG streams — deterministic per seed like
// everything else on the virtual clock.

// dayCurve evaluates the time-of-day curve at day fraction frac: a cosine
// peaking at peakFrac, troughLoad at the opposite side of the day.
func dayCurve(frac float64) float64 {
	c := 0.5 + 0.5*math.Cos(2*math.Pi*(frac-peakFrac))
	return troughLoad + (peakLoad-troughLoad)*c
}

// burstEnvelope evaluates the flash crowd's multiplier at compressed time t
// (1 outside the envelope).
func burstEnvelope(t time.Duration) float64 {
	start := time.Duration(burstDay)*virtualDay + time.Duration(burstFrac*float64(virtualDay))
	dt := t - start
	switch {
	case dt < 0 || dt >= burstRamp+burstDwell+burstDecay:
		return 1
	case dt < burstRamp:
		return 1 + (burstMult-1)*float64(dt)/float64(burstRamp)
	case dt < burstRamp+burstDwell:
		return burstMult
	default:
		rem := float64(dt-burstRamp-burstDwell) / float64(burstDecay)
		return burstMult + (1-burstMult)*rem
	}
}

// loadMultiplier evaluates the load multiplier at compressed time t >= 0
// since the week's start: day curve x weekly factor x burst envelope. Its
// least value is troughLoad x the weekend's 0.55, so pacing gaps stay
// finite. Past the week it holds the final instant's value (callers
// normally stop at weekSpan).
func loadMultiplier(t time.Duration) float64 {
	d := int(t / virtualDay)
	if d >= weekDays {
		d = weekDays - 1
	}
	frac := float64(t-time.Duration(d)*virtualDay) / float64(virtualDay)
	if frac >= 1 {
		frac = math.Nextafter(1, 0)
	}
	m := dayCurve(frac)
	m *= weekFactor[d]
	m *= burstEnvelope(t)
	return m
}

// paceGap returns the target inter-arrival gap of one paced client at
// compressed time t: 1/(ratePerClient x loadMultiplier(t)).
func paceGap(t time.Duration) time.Duration {
	r := ratePerClient * loadMultiplier(t)
	return time.Duration(float64(time.Second) / r)
}

// paceControl steers a set of paced clients from outside the simulation.
// pause parks clients between operations (audit quiesce); stop ends them.
type paceControl struct {
	stop  bool
	pause bool
	// ops and errors tally completions across every client on the control
	// (the simulation schedules clients cooperatively, so plain counters
	// are safe).
	ops    int64
	errors int64
}

// pace runs one paced client process: operations drawn from gen execute
// against fs at the week's offered rate. Arrivals are open-loop — when an
// operation finishes before its gap the client sleeps the remainder (with
// seeded jitter to avoid phase lock), and when the system is slower than
// the offered rate the client degrades to closed-loop, which is what
// saturates an underprovisioned cluster. Returns when the week ends or
// ctl.stop is set.
func pace(p *sim.Proc, start time.Duration, gen *workload.Generator, fs workload.FS, ctl *paceControl) {
	parked := false
	for !ctl.stop {
		if ctl.pause {
			parked = true
			p.Sleep(500 * time.Microsecond)
			continue
		}
		t := p.Now() - start
		if t >= weekSpan {
			return
		}
		gap := paceGap(t)
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
			ctl.ops++
			if err != nil {
				ctl.errors++
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

// The elastic run's autoscale controller decides when to grow and shrink
// the stateless metadata serving tier. It is deliberately boring: it reads
// two signals — NN thread-pool utilization and the live SLO engine's rolling
// p99 — and applies threshold rules with hysteresis (consecutive-evaluation
// streaks on both directions) and a post-actuation cooldown, because a
// flapping autoscaler is worse than a static fleet. Scaling up is eager (an
// extra step when a burn-rate page is firing, since by then users are
// already hurting); scaling down is lazy (longer streak, lower threshold),
// which is the standard asymmetry: the cost of a spare server for a few
// virtual hours is small against the cost of a latency cliff.
//
// The controller is a pure function of its inputs plus its own streak
// state: no wall clock, no randomness, so a run is byte-identical per seed
// and the scale-event log can be golden-tested.

// signals is one evaluation's view of the cluster.
type signals struct {
	// serving is the current serving-server count.
	serving int
	// util is the mean NN thread-pool utilization in [0,1].
	util float64
	// p99 is the rolling cluster p99 latency (0 when the window is empty).
	p99 time.Duration
	// firing is the number of page-severity SLO alerts currently firing.
	firing int
}

// controller evaluates signals into scale decisions.
type controller struct {
	upRuns, downRuns int
	lastAction       time.Duration
	acted            bool
	// log is the scale-event log: one fixed-layout line per action.
	log strings.Builder
}

// evaluate consumes one signal sample and returns the server-count delta to
// apply now (0 for no action) with the reason. The caller actuates the
// delta; the controller assumes it lands.
func (c *controller) evaluate(now time.Duration, s signals) (delta int, reason string) {
	if c.acted && now-c.lastAction < cooldown {
		return 0, "cooldown"
	}

	overLatency := s.p99 > targetP99
	wantUp := s.util > upUtil || overLatency || s.firing > 0
	// Scale-down wants both a quiet CPU and comfortable latency headroom
	// (half the target), so a latency-bound cluster with idle CPUs is not
	// drained further.
	wantDown := s.util < downUtil && s.p99 < targetP99/2 && s.firing == 0

	if wantUp {
		c.upRuns++
		c.downRuns = 0
	} else if wantDown {
		c.downRuns++
		c.upRuns = 0
	} else {
		c.upRuns, c.downRuns = 0, 0
	}

	switch {
	case wantUp && c.upRuns >= upStreak && s.serving < maxServers:
		step := upStep
		why := fmt.Sprintf("util %.2f p99 %.1fms", s.util, float64(s.p99)/float64(time.Millisecond))
		if s.firing > 0 {
			// A page means the error budget is burning now: grow harder.
			step *= 2
			why += fmt.Sprintf(" firing %d", s.firing)
		}
		if s.serving+step > maxServers {
			step = maxServers - s.serving
		}
		c.record(now, step, s.serving, why)
		return step, why
	case wantDown && c.downRuns >= downStreak && s.serving > minServers:
		why := fmt.Sprintf("util %.2f p99 %.1fms idle", s.util, float64(s.p99)/float64(time.Millisecond))
		c.record(now, -downStep, s.serving, why)
		return -downStep, why
	}
	return 0, ""
}

func (c *controller) record(now time.Duration, delta, from int, reason string) {
	c.upRuns, c.downRuns = 0, 0
	c.lastAction = now
	c.acted = true
	fmt.Fprintf(&c.log, "%10s  SCALE %+d  %d->%d  %s\n", fmt.Sprintf("%.3fs", now.Seconds()), delta, from, from+delta, reason)
}
