package chaos

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"hopsfscl/internal/core"
	"hopsfscl/internal/namenode"
	"hopsfscl/internal/nsmodel"
	"hopsfscl/internal/slo"
	"hopsfscl/internal/workload"
)

// MTTREntry is the measured recovery time of one degrading fault: the gap
// between the injection and the first client operation that completed
// successfully afterwards.
type MTTREntry struct {
	Step Step
	At   time.Duration
	MTTR time.Duration
	// Recovered is false when no operation succeeded after the fault
	// (campaign ended first).
	Recovered bool
}

// DetectEntry is the measured detection time of one degrading fault: the
// gap between the injection and the first degrading SLO signal (a firing
// burn-rate alert or a worsening health transition) at or after it, net of
// audit pauses — the same workload-time base MTTR uses, so the two columns
// compare directly.
type DetectEntry struct {
	Step Step
	At   time.Duration
	TTD  time.Duration
	// Signal is the subject of the detecting event ("availability:99.9
	// [fast]", "ndb: healthy -> critical").
	Signal string
	// Detected is false when no degrading signal followed the fault before
	// the campaign ended; TTD then holds the censored bound.
	Detected bool
}

// Window is one unavailability window: a span during which no client
// operation completed successfully. Paused is how much of the span the
// workload was deliberately stopped for audits; Dur excludes it.
type Window struct {
	From, To time.Duration
	Paused   time.Duration
}

func (w Window) Dur() time.Duration { return w.To - w.From - w.Paused }

// Report is the full outcome of one chaos campaign. Same deployment seed,
// schedule, and config always produce a byte-identical Render().
type Report struct {
	Seed     int64
	Setup    string
	Schedule Schedule
	Start    time.Duration
	End      time.Duration

	// History is every call the agents' clients made. OK, Refused and
	// Unknown count its outcomes (Refused: an error the oracle has a class
	// for, or a call that took no effect), and HistoryErr is nsmodel.Check's
	// verdict on it: nil when it has a linearization.
	History              []nsmodel.Op
	OK, Refused, Unknown int
	HistoryErr           error

	Checkpoints int
	Violations  []Violation

	MTTR      []MTTREntry
	Unavail   []Window
	Snapshots []Snapshot

	// Detect and SLO are populated when the deployment runs a live SLO
	// engine (core.Deployment.EnableSLO): the full alert/health report and
	// a time-to-detect entry per degrading fault — the delay until the
	// first degrading alert or health transition at or after the injection.
	Detect []DetectEntry
	SLO    *slo.Report
}

// Clean reports whether the campaign finished with zero invariant
// violations and a linearizable history.
func (r *Report) Clean() bool {
	return len(r.Violations) == 0 && r.HistoryErr == nil
}

// TotalUnavailability sums the outage windows.
func (r *Report) TotalUnavailability() time.Duration {
	var t time.Duration
	for _, w := range r.Unavail {
		t += w.Dur()
	}
	return t
}

// MaxMTTR returns the longest measured recovery time.
func (r *Report) MaxMTTR() time.Duration {
	var m time.Duration
	for _, e := range r.MTTR {
		if e.Recovered && e.MTTR > m {
			m = e.MTTR
		}
	}
	return m
}

// report assembles the Report once the campaign has run.
func (e *Engine) report(start, end time.Duration) *Report {
	r := &Report{
		Seed:        e.cfg.Seed,
		Setup:       e.d.Setup.Name,
		Schedule:    e.sched,
		Start:       start,
		End:         end,
		History:     e.history.Ops,
		Checkpoints: e.aud.Checkpoints,
		Violations:  e.aud.Violations,
		Snapshots:   e.snapshots,
	}
	for _, op := range r.History {
		switch namenode.Outcome(nsmodel.Op{Err: op.Err}).Err {
		case nil:
			r.OK++
		case nsmodel.ErrUnknown:
			r.Unknown++
		default:
			r.Refused++
		}
	}
	renames := nsmodel.FirstRenameErr
	if e.sharded {
		renames = nsmodel.AnyRenameErr
	}
	r.HistoryErr = nsmodel.Check(r.History, namenode.Outcome, renames)
	r.MTTR = e.mttr(end)
	r.Unavail = e.unavailability(start, end)
	if e.d.SLO != nil {
		r.SLO = e.d.SLO.Report(end)
		r.Detect = e.detect(r.SLO, end)
	}
	return r
}

// detect computes time-to-detect: for each degrading step, the delay until
// the first degrading SLO event (alert fire or worsening health
// transition) at or after the injection, net of audit pauses. Undetected
// faults report the censored bound to campaign end.
func (e *Engine) detect(sr *slo.Report, end time.Duration) []DetectEntry {
	var out []DetectEntry
	for _, m := range e.marks {
		entry := DetectEntry{Step: m.step, At: m.at}
		if ev, ok := sr.FirstDetection(m.at); ok {
			entry.TTD = ev.At - m.at - e.pausedBetween(m.at, ev.At)
			entry.Signal = ev.Subject
			entry.Detected = true
		} else {
			entry.TTD = end - m.at - e.pausedBetween(m.at, end)
		}
		out = append(out, entry)
	}
	return out
}

// mttr computes recovery times: for each degrading step, the delay until
// the first operation that completed successfully at or after injection.
func (e *Engine) mttr(end time.Duration) []MTTREntry {
	oks := e.oks
	var out []MTTREntry
	for _, m := range e.marks {
		i := sort.Search(len(oks), func(i int) bool { return oks[i] >= m.at })
		entry := MTTREntry{Step: m.step, At: m.at}
		if i < len(oks) {
			entry.MTTR = oks[i] - m.at - e.pausedBetween(m.at, oks[i])
			entry.Recovered = true
		} else {
			entry.MTTR = end - m.at - e.pausedBetween(m.at, end)
		}
		out = append(out, entry)
	}
	return out
}

// unavailability finds the gaps between consecutive successful completions
// that exceed the configured threshold, net of the audit pauses (during
// which no operation could run by design).
func (e *Engine) unavailability(start, end time.Duration) []Window {
	prev := start
	var out []Window
	gap := func(to time.Duration) {
		paused := e.pausedBetween(prev, to)
		if to-prev-paused > gapThreshold {
			out = append(out, Window{From: prev, To: to, Paused: paused})
		}
	}
	for _, at := range e.oks {
		if at >= start {
			gap(at)
		}
		prev = at
	}
	gap(end)
	return out
}

// Render formats the report deterministically: same campaign, same bytes.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos campaign: setup=%s seed=%d steps=%d ops=%d span=%v\n",
		r.Setup, r.Seed, len(r.Schedule), len(r.History), (r.End - r.Start).Round(time.Millisecond))
	fmt.Fprintf(&b, "  operations: ok=%d refused=%d unknown=%d\n", r.OK, r.Refused, r.Unknown)
	verdict := "linearizable"
	if r.HistoryErr != nil {
		verdict = "NOT LINEARIZABLE"
	}
	fmt.Fprintf(&b, "  history:    %s\n", verdict)
	fmt.Fprintf(&b, "  invariants: checkpoints=%d violations=%d\n",
		r.Checkpoints, len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "    VIOLATION %s\n", v)
	}
	if r.HistoryErr != nil {
		fmt.Fprintf(&b, "    VIOLATION history: %s\n", strings.ReplaceAll(r.HistoryErr.Error(), "\n", "\n      "))
	}
	b.WriteString("  timeline:\n")
	for _, s := range r.Snapshots {
		fmt.Fprintf(&b, "    %8v  %-34s %7.0f ops/s  ndb %d/%d  leader nn-%d  viol %d\n",
			s.Now.Round(time.Millisecond), s.Label, s.OpsPerSec, s.LiveNDB, s.TotalNDB, s.LeaderID, s.NewViol)
	}
	if len(r.MTTR) > 0 {
		b.WriteString("  recovery (MTTR = first successful op after injection):\n")
		for _, m := range r.MTTR {
			state := "recovered"
			if !m.Recovered {
				state = "NOT RECOVERED"
			}
			fmt.Fprintf(&b, "    %8v  %-24s mttr=%-8v %s\n",
				m.At.Round(time.Millisecond), m.Step.Kind, m.MTTR.Round(time.Millisecond), state)
		}
	}
	if len(r.Detect) > 0 {
		b.WriteString("  detection (TTD = first degrading SLO signal after injection):\n")
		for _, de := range r.Detect {
			state := "detected"
			if !de.Detected {
				state = "NOT DETECTED"
			}
			fmt.Fprintf(&b, "    %8v  %-24s ttd=%-8v %-13s %s\n",
				de.At.Round(time.Millisecond), de.Step.Kind, de.TTD.Round(time.Millisecond), state, de.Signal)
		}
	}
	fmt.Fprintf(&b, "  unavailability: windows=%d total=%v\n",
		len(r.Unavail), r.TotalUnavailability().Round(time.Millisecond))
	for _, w := range r.Unavail {
		fmt.Fprintf(&b, "    %8v .. %8v  (%v)\n",
			w.From.Round(time.Millisecond), w.To.Round(time.Millisecond), w.Dur().Round(time.Millisecond))
	}
	if r.SLO != nil {
		fmt.Fprintf(&b, "  slo: pages=%d tickets=%d firing-at-end=%d cluster=%s events=%d\n",
			r.SLO.Pages(), r.SLO.Tickets(), r.SLO.Firing, r.SLO.Cluster, len(r.SLO.Events))
	}
	return b.String()
}

// CampaignOptions shape a RunCampaign deployment, always HopsFS-CL (3,3),
// and its schedule.
type CampaignOptions struct {
	// Faults is the number of degrading faults to generate (default 5).
	Faults int
	// CampaignLen spaces the generated faults (default 30s).
	CampaignLen time.Duration
	// Schedule overrides generation with an explicit schedule.
	Schedule Schedule
	// Engine overrides the engine defaults.
	Engine Config
	// SLO enables the live SLO engine on the deployment, evaluating this
	// spec (the zero Spec = slo.DefaultSpec): the report then carries
	// time-to-detect per fault and the alert/health timeline.
	SLO *slo.Spec
	// Shards is the number of independent NDB clusters the namespace is
	// sharded across (0 or 1 = the classic single-cluster deployment). The
	// generated campaign then targets datanodes on every shard, and the
	// workload includes cross-shard renames.
	Shards int
}

// RunCampaign builds a fresh deployment, generates (or takes) a fault
// schedule for the seed, runs the campaign, and returns the report. The
// deployment is closed before returning.
func RunCampaign(seed int64, opts CampaignOptions) (*Report, error) {
	return runCampaign(seed, opts, nil)
}

// runCampaign is RunCampaign, handing the deployment to after, when it is
// set, once the campaign has run and before the deployment closes.
func runCampaign(seed int64, opts CampaignOptions, after func(*core.Deployment)) (*Report, error) {
	o := core.DefaultOptions(core.PaperSetups[5]) // HopsFS-CL (3,3)
	o.MetadataServers = 3
	o.ClientsPerServer = 0
	o.StorageNodes = 6
	o.PartitionsPerTable = 8
	o.WithBlockLayer = true
	o.Namespace = workload.NamespaceSpec{TopDirs: 2, SubDirs: 2, FilesPerDir: 4}
	o.Seed = seed
	o.Shards = opts.Shards
	d, err := core.Build(o)
	if err != nil {
		return nil, err
	}
	defer d.Close()

	sched := opts.Schedule
	if len(sched) == 0 {
		n := opts.Faults
		if n <= 0 {
			n = 5
		}
		dur := opts.CampaignLen
		if dur <= 0 {
			dur = 30 * time.Second
		}
		sched = Generate(d, seed, dur, n)
	}
	cfg := opts.Engine
	if cfg.Seed == 0 {
		cfg.Seed = seed
	}
	eng, err := NewEngine(d, sched, cfg)
	if err != nil {
		return nil, err
	}
	if opts.SLO != nil {
		d.EnableSLO(*opts.SLO)
	}
	rep, err := eng.Run()
	if err != nil {
		return nil, err
	}
	if after != nil {
		after(d)
	}
	rep.Seed = seed
	return rep, nil
}
