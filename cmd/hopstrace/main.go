// Command hopstrace records, replays, and profiles metadata operation
// traces — the methodology behind the paper's use of Spotify's operational
// trace, extended with critical-path profiling.
//
// Usage:
//
//	hopstrace gen [-ops N] [-seed S] [-out file]
//	    Generate a Spotify-mix trace over the evaluation namespace and
//	    write it (one operation per line) to the file or stdout.
//
//	hopstrace replay [-setup name] [-seed S] [-servers N] [-in file]
//	    Replay a trace file against a deployment and report virtual
//	    throughput, latency, and cross-AZ traffic.
//
//	hopstrace profile [replay flags] [-format text|folded|chrome]
//	    Generate and replay a trace with concurrent clients and detailed
//	    spans, then report where the time went: a per-op critical-path
//	    attribution table (lock wait / 2PC phases / hop classes / compute)
//	    plus the lock-contention ledger — one section per NDB cluster with
//	    -shards > 1 — (text), folded flamegraph stacks (folded), or Chrome
//	    Trace Event JSON for chrome://tracing and Perfetto (chrome).
//
//	hopstrace timeline [replay flags] [-interval D]
//	    Same replay, sampled by the flight recorder: a CSV time series of
//	    per-AZ link traffic, lock waits and op rates over virtual time.
//
//	hopstrace hotspots [replay flags] [-exemplars]
//	    Same replay with the namespace heat sketches attached: decayed
//	    Space-Saving top-k rankings of the hottest subtrees (per depth),
//	    inodes, NDB tables, partitions, and op types. With -shards > 1 the
//	    namespace is sharded by subtree across that many NDB clusters and the
//	    report gains the per-shard routing-balance family. With -exemplars,
//	    also pin tail exemplars — full span trees of operations that
//	    breached their p99 objective, completed while a burn alert fired,
//	    or were the slowest of their window — and render them through the
//	    critical-path profiler.
//
//	hopstrace autoscale [-seed S] [-profile file]
//	    Run the elastic metadata tier under a shaped diurnal load: paced
//	    clients follow the load profile (see internal/loadshape; -profile
//	    reads a declarative profile file, default loadshape.DefaultProfile
//	    over a compressed week) while the autoscale controller commissions
//	    and drains namenodes against the live SLO gauges. Prints the
//	    scale-event log and run summary.
//
//	hopstrace slo [-seed S] [-spec file]
//	    Run the three-class detection campaign (datanode death, zone
//	    partition, degraded link) with the live SLO engine attached and
//	    render the alert/health timeline: burn-rate alerts
//	    (fast-burn/slow-burn pairs over the spec's objectives), component
//	    and cluster health transitions, per-fault time-to-detect alongside
//	    MTTR, and the closing rolling latency summaries. -spec reads a
//	    declarative SLO spec (see internal/slo.ParseSpec); the default is
//	    slo.DefaultSpec.
//
// profile, timeline and hotspots are one replay session behind one flag
// set, the replay flags: [-setup name] [-seed S] [-ops N] [-servers N]
// [-clients N] [-shards N] [-out file]. Any replay that has not finished
// after 1000 s of virtual time (replayDeadline) fails.
//
// A trace is a list of nsmodel.Op in nsmodel's text encoding (WriteOps,
// ReadOps), "<name> [-r] <path> [<dst>]" with the names of nsmodel.Promises,
// e.g.
//
//	mkdir /proj001/dsNew
//	create /proj001/ds00/part-00042
//	rename /a/b /c/d
//
// replay runs the ops workload.FS has a call for, and refuses any other
// before anything runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"hopsfscl/internal/autoscale"
	"hopsfscl/internal/bench"
	"hopsfscl/internal/chaos"
	"hopsfscl/internal/core"
	"hopsfscl/internal/loadshape"
	"hopsfscl/internal/metrics"
	"hopsfscl/internal/nsmodel"
	"hopsfscl/internal/profile"
	"hopsfscl/internal/sim"
	"hopsfscl/internal/slo"
	"hopsfscl/internal/trace"
	"hopsfscl/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hopstrace:", err)
		os.Exit(1)
	}
}

// subcommands lists every hopstrace subcommand with a one-line
// description; usage and nearest-match suggestions derive from it so the
// help text cannot drift from the dispatch table below.
var subcommands = []struct{ name, brief string }{
	{"gen", "generate a Spotify-mix trace over the evaluation namespace"},
	{"replay", "replay a trace file and report throughput, latency, and cross-AZ traffic"},
	{"profile", "replay with detailed spans and report critical-path attribution"},
	{"timeline", "replay under the flight recorder and emit a metrics CSV time series"},
	{"hotspots", "replay with namespace heat sketches and report the hottest subtrees, tables, and partitions"},
	{"autoscale", "drive the elastic metadata tier through a shaped diurnal load"},
	{"slo", "run the detection campaign under the live SLO engine and render the alert timeline"},
}

func usageText() string {
	var b strings.Builder
	b.WriteString("usage: hopstrace <subcommand> [flags]\n\nsubcommands:\n")
	for _, sc := range subcommands {
		fmt.Fprintf(&b, "  %-9s %s\n", sc.name, sc.brief)
	}
	b.WriteString("\nrun `hopstrace <subcommand> -h` for the subcommand's flags")
	return b.String()
}

// nearestSubcommand returns the subcommand closest to name by edit
// distance, or "" when nothing is plausibly close.
func nearestSubcommand(name string) string {
	best, bestDist := "", 3 // suggest only within edit distance 2
	for _, sc := range subcommands {
		if d := editDistance(name, sc.name); d < bestDist {
			best, bestDist = sc.name, d
		}
	}
	return best
}

// editDistance is the Levenshtein distance between a and b.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, min(cur[j-1]+1, prev[j-1]+cost))
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func run(args []string, stdout io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("%s", usageText())
	}
	switch args[0] {
	case "gen":
		return runGen(args[1:], stdout)
	case "replay":
		return runReplay(args[1:], stdout)
	case "profile":
		return runProfile(args[1:], stdout)
	case "timeline":
		return runTimeline(args[1:], stdout)
	case "hotspots":
		return runHotspots(args[1:], stdout)
	case "autoscale":
		return runAutoscale(args[1:], stdout)
	case "slo":
		return runSLO(args[1:], stdout)
	default:
		if sug := nearestSubcommand(args[0]); sug != "" {
			return fmt.Errorf("unknown subcommand %q (did you mean %q?)\n%s", args[0], sug, usageText())
		}
		return fmt.Errorf("unknown subcommand %q\n%s", args[0], usageText())
	}
}

// recorder is the workload.FS a trace is generated on: every call succeeds
// at once and appends what it was asked to run.
type recorder []nsmodel.Op

func (r *recorder) add(name, path, dst string) error {
	*r = append(*r, nsmodel.Op{Name: name, Path: path, Dst: dst})
	return nil
}

func (r *recorder) Mkdir(_ *sim.Proc, path string) error      { return r.add("mkdir", path, "") }
func (r *recorder) Create(_ *sim.Proc, path string) error     { return r.add("create", path, "") }
func (r *recorder) Stat(_ *sim.Proc, path string) error       { return r.add("stat", path, "") }
func (r *recorder) Read(_ *sim.Proc, path string) error       { return r.add("read", path, "") }
func (r *recorder) List(_ *sim.Proc, path string) error       { return r.add("list", path, "") }
func (r *recorder) Delete(_ *sim.Proc, path string) error     { return r.add("delete", path, "") }
func (r *recorder) Rename(_ *sim.Proc, src, dst string) error { return r.add("rename", src, dst) }
func (r *recorder) SetPermission(_ *sim.Proc, path string) error {
	return r.add("setPermission", path, "")
}

// fsCalls runs each op workload.FS has a call for, by name; a recursive
// delete is none of them.
var fsCalls = map[string]func(p *sim.Proc, fs workload.FS, op nsmodel.Op) error{
	"mkdir":         func(p *sim.Proc, fs workload.FS, op nsmodel.Op) error { return fs.Mkdir(p, op.Path) },
	"create":        func(p *sim.Proc, fs workload.FS, op nsmodel.Op) error { return fs.Create(p, op.Path) },
	"stat":          func(p *sim.Proc, fs workload.FS, op nsmodel.Op) error { return fs.Stat(p, op.Path) },
	"read":          func(p *sim.Proc, fs workload.FS, op nsmodel.Op) error { return fs.Read(p, op.Path) },
	"list":          func(p *sim.Proc, fs workload.FS, op nsmodel.Op) error { return fs.List(p, op.Path) },
	"delete":        func(p *sim.Proc, fs workload.FS, op nsmodel.Op) error { return fs.Delete(p, op.Path) },
	"rename":        func(p *sim.Proc, fs workload.FS, op nsmodel.Op) error { return fs.Rename(p, op.Path, op.Dst) },
	"setPermission": func(p *sim.Proc, fs workload.FS, op nsmodel.Op) error { return fs.SetPermission(p, op.Path) },
}

// checkRunnable refuses a trace holding an op workload.FS cannot run,
// quoting it as its line reads.
func checkRunnable(ops []nsmodel.Op) error {
	for i, op := range ops {
		if _, ok := fsCalls[op.Name]; !ok || op.Recursive {
			var line strings.Builder
			nsmodel.WriteOps(&line, ops[i:i+1])
			return fmt.Errorf("trace op %d, %q: workload.FS cannot run it", i+1, strings.TrimSpace(line.String()))
		}
	}
	return nil
}

// replayOps runs ops on fs in order and counts those that failed: a replay
// on another deployment may race differently, so failing is not fatal.
func replayOps(p *sim.Proc, fs workload.FS, ops []nsmodel.Op) (errs int) {
	for _, op := range ops {
		if fsCalls[op.Name](p, fs, op) != nil {
			errs++
		}
	}
	return errs
}

// genTrace generates n Spotify-mix operations with the given seed over the
// evaluation namespace — matching the namespace a deployment built with the
// same seed is seeded with, so generated paths resolve on replay.
func genTrace(n int, seed int64) []nsmodel.Op {
	ns := workload.BuildNamespace(workload.DefaultNamespace(), core.NamespaceSeed(seed))
	gen := workload.NewGenerator(ns, workload.SpotifyMix, seed)
	var rec recorder
	env := sim.New(seed)
	defer env.Close()
	env.Spawn("gen", func(p *sim.Proc) {
		for range n {
			_, _ = gen.Step(p, &rec)
		}
	})
	env.Run()
	return rec
}

// writeOut hands render the -out destination: the named file, or stdout
// when path is empty. A file's Close error is reported.
func writeOut(stdout io.Writer, path string, render func(w io.Writer) error) error {
	if path == "" {
		return render(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runGen(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	ops := fs.Int("ops", 10000, "operations to generate")
	seed := fs.Int64("seed", 1, "generator seed")
	out := fs.String("out", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	trace := genTrace(*ops, *seed)
	err := writeOut(stdout, *out, func(w io.Writer) error { return nsmodel.WriteOps(w, trace) })
	if err == nil && *out != "" {
		fmt.Fprintf(stdout, "wrote %d operations to %s\n", len(trace), *out)
	}
	return err
}

func runReplay(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	setupName := fs.String("setup", "HopsFS-CL (3,3)", "deployment setup")
	seed := fs.Int64("seed", 1, "simulation seed")
	in := fs.String("in", "", "trace file (default stdin)")
	servers := fs.Int("servers", 6, "metadata servers")
	if err := fs.Parse(args); err != nil {
		return err
	}
	r := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	ops, err := nsmodel.ReadOps(r)
	if err == nil {
		err = checkRunnable(ops)
	}
	if err != nil {
		return err
	}
	// One client per server; the replay below is sequential on the first.
	d, err := buildReplayDeployment(*setupName, *seed, *servers, *servers, 1)
	if err != nil {
		return err
	}
	defer d.Close()
	elapsed, errs, err := replayConcurrent(d, ops, 1)
	if err != nil {
		return err
	}
	rate := float64(len(ops)) / elapsed.Seconds()
	fmt.Fprintf(stdout, "replayed %d operations on %s in %v (virtual)\n", len(ops), d.Setup.Name, elapsed.Round(time.Millisecond))
	fmt.Fprintf(stdout, "sequential throughput: %s ops/s   errors: %d\n", metrics.FormatOps(rate), errs)
	fmt.Fprintf(stdout, "cross-AZ traffic: %.2f MB\n", float64(d.Net.CrossZoneBytes())/1e6)
	// Mirror hopsbench: note the bench package is the place for load tests.
	fmt.Fprintln(stdout, "(replay is sequential; use hopsbench for closed-loop load)")
	return nil
}

// warnTruncated prints a truncation warning when a report or export is
// built from a span ring that evicted spans.
func warnTruncated(w io.Writer, sink *trace.Sink) {
	if d := sink.Dropped(); d > 0 {
		fmt.Fprintf(w, "warning: span ring dropped %d of %d spans; output is truncated\n",
			d, sink.Total())
	}
}

// buildReplayDeployment builds a deployment sized for clients concurrent
// replay clients over servers metadata servers.
func buildReplayDeployment(setupName string, seed int64, servers, clients, shards int) (*core.Deployment, error) {
	setup, ok := core.SetupByName(setupName)
	if !ok {
		return nil, fmt.Errorf("unknown setup %q", setupName)
	}
	opts := core.DefaultOptions(setup)
	opts.MetadataServers = servers
	opts.ClientsPerServer = (clients + servers - 1) / servers
	opts.Shards = shards
	opts.Seed = seed
	return core.Build(opts)
}

// replayDeadline is the virtual time a replay may take before it fails.
const replayDeadline = 1000 * time.Second

// replayConcurrent shards a trace round-robin over clients concurrent
// replay processes and drives the simulation until every shard completes
// (or replayDeadline passes). Concurrency is what makes the profile
// interesting: operations from different clients collide on shared
// directories, exercising lock contention the way closed-loop load does.
func replayConcurrent(d *core.Deployment, traceOps []nsmodel.Op, clients int) (elapsed time.Duration, errs int, err error) {
	clients = max(1, min(clients, len(d.Clients)))
	shards := make([][]nsmodel.Op, clients)
	for i, op := range traceOps {
		shards[i%clients] = append(shards[i%clients], op)
	}
	done := 0
	for i := range clients {
		fs := d.Clients[i]
		d.Env.Spawn(fmt.Sprintf("replay-%d", i), func(p *sim.Proc) {
			errs += replayOps(p, fs, shards[i])
			p.Flush()
			if t := p.Now(); t > elapsed {
				elapsed = t
			}
			done++
		})
	}
	for done < clients && d.Env.Now() < replayDeadline {
		step := 100 * time.Millisecond
		if rem := replayDeadline - d.Env.Now(); rem < step {
			step = rem
		}
		d.Env.RunFor(step)
	}
	if done < clients {
		return 0, 0, fmt.Errorf("replay did not complete within %v of virtual time", replayDeadline)
	}
	return elapsed, errs, nil
}

// replayFlags is the flag set profile, timeline and hotspots share: the
// trace to generate, the deployment to replay it on, and where the output
// goes. Each subcommand adds its own flags to the embedded set.
type replayFlags struct {
	*flag.FlagSet
	setup   *string
	seed    *int64
	ops     *int
	servers *int
	clients *int
	shards  *int
	out     *string
}

func newReplayFlags(name string) *replayFlags {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	return &replayFlags{
		FlagSet: fs,
		setup:   fs.String("setup", "HopsFS-CL (3,3)", "deployment setup"),
		seed:    fs.Int64("seed", 1, "simulation seed"),
		ops:     fs.Int("ops", 2000, "operations to generate and replay"),
		servers: fs.Int("servers", 3, "metadata servers"),
		clients: fs.Int("clients", 8, "concurrent replay clients"),
		shards:  fs.Int("shards", 1, "NDB clusters the namespace is sharded across"),
		out:     fs.String("out", "", "output file (default stdout)"),
	}
}

// replayed is a finished replay session, as handed to a subcommand's
// render step.
type replayed struct {
	d       *core.Deployment
	ops     int // operations in the generated trace
	elapsed time.Duration
	errs    int
}

// replay runs one session: generate the trace, build the deployment, let
// attach enable the consumers the subcommand reports from (before any
// operation runs; it is told the trace length to size rings by), replay
// the trace over concurrent clients, stop the background tickers, and
// call render with the -out destination.
func (f *replayFlags) replay(stdout io.Writer, attach func(d *core.Deployment, ops int), render func(w io.Writer, r replayed) error) error {
	traceOps := genTrace(*f.ops, *f.seed)
	d, err := buildReplayDeployment(*f.setup, *f.seed, *f.servers, *f.clients, *f.shards)
	if err != nil {
		return err
	}
	defer d.Close()
	attach(d, len(traceOps))
	elapsed, errs, err := replayConcurrent(d, traceOps, *f.clients)
	if err != nil {
		return err
	}
	d.StopBackground()
	r := replayed{d: d, ops: len(traceOps), elapsed: elapsed, errs: errs}
	return writeOut(stdout, *f.out, func(w io.Writer) error { return render(w, r) })
}

func runProfile(args []string, stdout io.Writer) error {
	fs := newReplayFlags("profile")
	format := fs.String("format", "text", "output format: text, folded, or chrome")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *format {
	case "text", "folded", "chrome":
	default:
		return fmt.Errorf("unknown -format %q (want text, folded or chrome)", *format)
	}
	return fs.replay(stdout, func(d *core.Deployment, ops int) {
		d.EnableTracing(ops + 64)
	}, func(w io.Writer, r replayed) error {
		sink := r.d.Tracer.Sink()
		spans := sink.Spans()
		switch *format {
		case "folded":
			warnTruncated(os.Stderr, sink)
			_, err := io.WriteString(w, profile.FoldedStacks(spans))
			return err
		case "chrome":
			warnTruncated(os.Stderr, sink)
			return profile.WriteChromeTrace(w, spans)
		}
		fmt.Fprintf(w, "profiled %d operations on %s (seed %d, %d replay clients, %v virtual, %d errors)\n",
			r.ops, r.d.Setup.Name, *fs.seed, *fs.clients, r.elapsed.Round(time.Millisecond), r.errs)
		warnTruncated(w, sink)
		rep := profile.Analyze(spans)
		fmt.Fprintf(w, "\ncritical-path attribution (share of end-to-end time per op type):\n%s", rep.Table())
		fmt.Fprintln(w)
		if rep := r.d.ContentionReport(10); rep != "" {
			fmt.Fprint(w, rep)
		} else {
			fmt.Fprintln(w, "(no contention ledger: CephFS setups run untraced)")
		}
		return nil
	})
}

func runTimeline(args []string, stdout io.Writer) error {
	fs := newReplayFlags("timeline")
	interval := fs.Duration("interval", 20*time.Millisecond, "flight-recorder sampling interval (virtual time)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var fr *trace.FlightRecorder
	err := fs.replay(stdout, func(d *core.Deployment, _ int) {
		fr = d.EnableFlightRecorder(*interval, 0, "op.", "txn.", "net.link.", "ndb.contention.")
	}, func(w io.Writer, _ replayed) error {
		return fr.WriteCSV(w)
	})
	if err != nil {
		return err
	}
	if fr.Dropped() > 0 {
		fmt.Fprintf(os.Stderr, "warning: flight recorder dropped %d frames; timeline is truncated (raise -interval)\n", fr.Dropped())
	}
	if *fs.out != "" {
		fmt.Fprintf(stdout, "wrote %d frames to %s\n", len(fr.Frames()), *fs.out)
	}
	return nil
}

func runHotspots(args []string, stdout io.Writer) error {
	fs := newReplayFlags("hotspots")
	withExemplars := fs.Bool("exemplars", false, "pin tail exemplars (detailed tracing + SLO engine) and render them through the profiler")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return fs.replay(stdout, func(d *core.Deployment, _ int) {
		d.EnableHeat()
		if *withExemplars {
			d.EnableExemplars(slo.ExemplarConfig{}) // default sink, default per-op p99 objectives
		}
	}, func(w io.Writer, r replayed) error {
		now := r.d.Env.Now()
		rep := r.d.Heat.Snapshot(now)
		fmt.Fprintf(w, "hotspots of %d operations on %s (seed %d, %d replay clients, %v virtual, %d errors)\n\n",
			r.ops, r.d.Setup.Name, *fs.seed, *fs.clients, r.elapsed.Round(time.Millisecond), r.errs)
		if _, err := io.WriteString(w, rep.Render()); err != nil {
			return err
		}
		if r.d.Exemplars == nil {
			return nil
		}
		xrep := r.d.Exemplars.Report(now)
		fmt.Fprintln(w)
		if _, err := io.WriteString(w, xrep.Render()); err != nil {
			return err
		}
		// Link every pinned exemplar into the critical-path profiler: one
		// attribution table over the pinned span trees, then the slowest
		// exemplar rendered as a flame-style tree.
		var roots []*trace.Span
		var slowest *slo.Exemplar
		for _, c := range xrep.Classes {
			for _, ex := range c.Exemplars {
				roots = append(roots, ex.Root)
				if slowest == nil || ex.Latency > slowest.Latency ||
					(ex.Latency == slowest.Latency && ex.Root.ID < slowest.Root.ID) {
					slowest = ex
				}
			}
		}
		if len(roots) == 0 {
			return nil
		}
		fmt.Fprintf(w, "\ncritical-path attribution over the %d pinned exemplars:\n%s", len(roots), profile.Analyze(roots).Table())
		fmt.Fprintf(w, "\nslowest exemplar (op %s, %v, reason %s):\n%s\n",
			slowest.Op, slowest.Latency, slowest.Reason, slowest.Root.Render())
		return nil
	})
}

func runAutoscale(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("autoscale", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "simulation seed")
	profFile := fs.String("profile", "", "load-profile file (default: the built-in compressed week)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	o := bench.DefaultElasticOptions(*seed)
	if *profFile != "" {
		text, err := os.ReadFile(*profFile)
		if err != nil {
			return err
		}
		prof, err := loadshape.Parse(string(text))
		if err != nil {
			return err
		}
		o.Profile = prof
	}
	r, err := bench.RunElastic(bench.ModeElastic, o)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "elastic run over %d virtual days (%v each), %d paced clients, seed %d\n",
		o.Profile.Days, o.Profile.Day, o.Clients, *seed)
	fmt.Fprintf(stdout, "ops %d  errors %d  serving %d..%d  time>SLO %v (%.1f%%)  NN-seconds %.1f\n",
		r.Ops, r.Errors, r.MinServing, r.MaxServing,
		r.OverSLO.Round(time.Millisecond), r.OverSLOFraction()*100, r.NNSeconds)
	fmt.Fprintf(stdout, "audit checkpoints %d  violations %d  failed quiesces %d\n",
		r.Checkpoints, len(r.Violations), r.FailedQuiesces)
	for _, v := range r.Violations {
		fmt.Fprintf(stdout, "  VIOLATION %s\n", v)
	}
	fmt.Fprintf(stdout, "\nscale events (%d up, %d down):\n%s",
		r.ScaleUps, r.ScaleDowns, autoscale.RenderEvents(r.Events))
	return nil
}

func runSLO(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("slo", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "simulation seed")
	specFile := fs.String("spec", "", "SLO spec file (default: built-in slo.DefaultSpec)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts := chaos.CampaignOptions{Schedule: chaos.DetectionSchedule(), SLO: &slo.Spec{}}
	if *specFile != "" {
		text, err := os.ReadFile(*specFile)
		if err != nil {
			return err
		}
		spec, err := slo.ParseSpec(string(text))
		if err != nil {
			return err
		}
		opts.SLO = &spec
	}
	rep, err := chaos.RunCampaign(*seed, opts)
	if err != nil {
		return err
	}
	if _, err := io.WriteString(stdout, rep.Render()); err != nil {
		return err
	}
	fmt.Fprintln(stdout)
	_, err = io.WriteString(stdout, rep.SLO.Render())
	return err
}
