package bench

import (
	"fmt"
	"strings"
	"time"

	"hopsfscl/internal/autoscale"
	"hopsfscl/internal/chaos"
	"hopsfscl/internal/core"
	"hopsfscl/internal/loadshape"
	"hopsfscl/internal/metrics"
	"hopsfscl/internal/sim"
	"hopsfscl/internal/slo"
	"hopsfscl/internal/workload"
)

// The elastic experiment: a fixed client population offers a shaped diurnal
// load (internal/loadshape) against HopsFS-CL (3,3), and the serving tier
// either stays static or follows an autoscale controller
// (internal/autoscale) that commissions and drains namenodes online. The
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
	// ModeElastic runs the autoscale controller between Min and Max servers.
	ModeElastic ElasticMode = iota
	// ModeStaticMin provisions Min servers for the whole run.
	ModeStaticMin
	// ModeStaticPeak provisions Max servers for the whole run.
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

// ElasticOptions parameterize one elastic run.
type ElasticOptions struct {
	// Seed drives all randomness.
	Seed int64
	// Profile is the offered load shape; RunElastic refuses one that fails
	// Validate, the zero Profile included.
	Profile loadshape.Profile
	// Clients is the total paced client population, fixed across modes. It
	// must be divisible by elasticController's Min and Max so the static
	// deployments build with whole clients-per-server counts.
	Clients int
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
)

// elasticController tunes the autoscaler; its Min and Max also size the
// static modes.
var elasticController = autoscale.Config{
	Min:        2,
	Max:        6,
	TargetP99:  20 * time.Millisecond,
	UpUtil:     0.70,
	DownUtil:   0.30,
	UpStreak:   3,
	DownStreak: 10,
	Cooldown:   250 * time.Millisecond,
}

// DefaultElasticOptions returns the recorded experiment's parameters.
func DefaultElasticOptions(seed int64) ElasticOptions {
	prof := loadshape.DefaultProfile()
	// 96 clients x 38 ops/s peak: ~3.6k ops/s offered at a weekday peak
	// (comfortable on 6 servers, hopeless on 2) and a ~45ms closed-loop
	// latency ceiling at min capacity, past the 20ms target.
	prof.RatePerClient = 38
	return ElasticOptions{
		Seed:    seed,
		Profile: prof,
		Clients: 96,
	}
}

// elasticSpec is the SLO evaluated during elastic runs: windows shrunk to
// compressed-day scale (burn pairs must fit well inside a 3s virtual day to
// fire while a ramp is still happening).
func elasticSpec(target time.Duration) slo.Spec {
	s := slo.DefaultSpec()
	s.Window = 6 * time.Second
	s.Slots = 120 // 50ms resolution
	s.Tick = 50 * time.Millisecond
	s.Latency = []slo.LatencyObjective{{Op: "*", Quantile: 0.99, Target: target}}
	s.Burns = []slo.BurnPair{
		{Name: "fast", Short: 400 * time.Millisecond, Long: 1200 * time.Millisecond, Rate: 14.4, Severity: slo.SevPage},
		{Name: "slow", Short: time.Second, Long: 3 * time.Second, Rate: 3, Severity: slo.SevTicket},
	}
	return s
}

// ElasticResult summarizes one elastic run.
type ElasticResult struct {
	Mode    ElasticMode
	Seed    int64
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
	Events                 []autoscale.Event
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
	Load    float64       // the profile's offered-load multiplier
	Serving int           // serving metadata servers
	P99     time.Duration // rolling aggregate p99 over the last 400 ms
}

// RunElastic runs one mode of the elastic experiment.
func RunElastic(mode ElasticMode, o ElasticOptions) (*ElasticResult, error) {
	if o.Clients <= 0 {
		return nil, fmt.Errorf("elastic: need a positive client count")
	}
	prof := o.Profile
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	startNNs := elasticController.Min
	if mode == ModeStaticPeak {
		startNNs = elasticController.Max
	}
	if o.Clients%startNNs != 0 {
		return nil, fmt.Errorf("elastic: %d clients not divisible by %d servers", o.Clients, startNNs)
	}

	opts := core.DefaultOptions(core.PaperSetups[5]) // HopsFS-CL (3,3)
	opts.MetadataServers = startNNs
	opts.ClientsPerServer = o.Clients / startNNs
	opts.Seed = o.Seed
	opts.NNCores = elasticNNCores
	opts.NNOpBase = elasticNNOpBase
	opts.NNElectionRound = elasticElectionRound
	d, err := core.Build(opts)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	env := d.Env

	ctl, err := autoscale.New(elasticController)
	if err != nil {
		return nil, err
	}
	eng := d.EnableSLO(elasticSpec(elasticController.TargetP99))
	auditor := chaos.NewAuditor(d)
	res := &ElasticResult{Mode: mode, Seed: o.Seed, MinServing: startNNs, MaxServing: startNNs}

	// Let elections converge before offering load, so the first client pick
	// sees a populated active list.
	env.RunFor(4 * elasticElectionRound)

	// Paced clients: open-loop arrivals following the profile, degrading to
	// closed-loop under overload (loadshape.Pace).
	pace := &loadshape.PaceControl{}
	start := env.Now()
	for i, fs := range d.Clients {
		fs := fs
		home := d.Namespace.HomeDirsFor(i, HomeDirsPerClient)
		gen := workload.NewAffineGenerator(d.Namespace, workload.SpotifyMix, o.Seed+int64(i), home, ClientAffinity)
		env.Spawn("paced-client", func(p *sim.Proc) { prof.Pace(p, start, gen, fs, pace) })
	}

	var paused time.Duration
	elapsed := func() time.Duration { return env.Now() - start - paused }
	d.Every("timeline", timelineEvery, func(now time.Duration) {
		res.Timeline = append(res.Timeline, ElasticFrame{
			At: now, Load: prof.Multiplier(elapsed()), Serving: d.ServingNNs(),
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
		pace.Pause = true
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
		pace.Pause = false
		paused += env.Now() - pauseStart
	}

	// Main control loop, chaos-engine style: the main goroutine alternates
	// simulation steps with monitoring, controller evaluation, actuation,
	// and a quiesced audit after every scale transition.
	span := prof.Span()
	for elapsed() < span {
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
		if sum.Count > 0 && p99 > elasticController.TargetP99 {
			res.OverSLO += controlTick
		}
		res.NNSeconds += float64(serving) * controlTick.Seconds()
		d.FinishDrains()

		if mode != ModeElastic {
			continue
		}
		sig := autoscale.Signals{
			Serving: serving,
			Util:    servingUtil(now),
			P99:     p99,
			Firing:  eng.Firing(),
		}
		delta, _ := ctl.Evaluate(now, sig)
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
	pace.Stop = true
	res.Events = ctl.Events()
	res.Span = elapsed()
	res.Ops = pace.Ops
	res.Errors = pace.Errors

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
	eo := DefaultElasticOptions(o.Seed)
	modes := []ElasticMode{ModeElastic, ModeStaticMin, ModeStaticPeak}
	results := make(map[ElasticMode]*ElasticResult, len(modes))
	for _, m := range modes {
		r, err := RunElastic(m, eo)
		if err != nil {
			return "", nil, fmt.Errorf("%s: %w", m, err)
		}
		results[m] = r
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Elastic metadata tier over a compressed week (%d virtual days x %v), %d paced clients\n",
		eo.Profile.Days, eo.Profile.Day, eo.Clients)
	fmt.Fprintf(&b, "NN sizing: %d cores, %v per op (~%.0f ops/s per server); target p99 %v; servers %d..%d\n\n",
		elasticNNCores, elasticNNOpBase,
		float64(elasticNNCores)*float64(time.Second)/float64(elasticNNOpBase),
		elasticController.TargetP99, elasticController.Min, elasticController.Max)

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
		el.ScaleUps, el.ScaleDowns, fence(autoscale.RenderEvents(el.Events)))

	b.WriteString("\ntimeline (one row per half virtual day):\n\n")
	b.WriteString(renderElasticTimeline(el, eo))

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
func renderElasticTimeline(r *ElasticResult, eo ElasticOptions) string {
	frames := r.Timeline
	if len(frames) == 0 {
		return "(no frames)\n"
	}
	tbl := metrics.NewTable("day", "load", "serving", "p99")
	step := eo.Profile.Day / 2
	next := frames[0].At
	for _, fr := range frames {
		if fr.At < next {
			continue
		}
		next = fr.At + step
		day := float64(fr.At-frames[0].At) / float64(eo.Profile.Day)
		tbl.AddRow(fmt.Sprintf("%.1f", day),
			fmt.Sprintf("%.2f", fr.Load),
			fmt.Sprintf("%d", fr.Serving),
			fmt.Sprintf("%.1fms", float64(fr.P99)/float64(time.Millisecond)))
	}
	return tbl.Markdown()
}
