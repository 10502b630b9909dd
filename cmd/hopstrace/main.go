// Command hopstrace replays the Spotify operation mix — the paper's use of
// Spotify's operational trace — against a deployment and reports where the
// time went, and runs the SLO detection campaign.
//
// Usage:
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
//	    Same replay, sampling the metrics registry every -interval of
//	    virtual time: a CSV time series of per-AZ link traffic, lock waits
//	    and op rates, one row per sample.
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
//	hopstrace slo [-seed S]
//	    Run the three-class detection campaign (datanode death, zone
//	    partition, degraded link) with the live SLO engine attached and
//	    render the alert/health timeline: burn-rate alerts
//	    (fast-burn/slow-burn pairs over the spec's objectives), component
//	    and cluster health transitions, per-fault time-to-detect alongside
//	    MTTR, and the closing rolling latency summaries. The SLO is
//	    slo.DefaultSpec.
//
// profile, timeline and hotspots are one replay session behind one flag
// set, the replay flags: [-setup name] [-seed S] [-ops N] [-servers N]
// [-clients N] [-shards N] [-out file]. The session generates -ops
// Spotify-mix operations over the evaluation namespace and replays them
// over -clients concurrent clients. Any replay that has not finished after
// 1000 s of virtual time (replayDeadline) fails.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"hopsfscl/internal/chaos"
	"hopsfscl/internal/core"
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
// description; usage derives from it so the help text cannot drift from
// the dispatch table below.
var subcommands = []struct{ name, brief string }{
	{"profile", "replay with detailed spans and report critical-path attribution"},
	{"timeline", "replay, sampling the metrics registry, and emit a CSV time series"},
	{"hotspots", "replay with namespace heat sketches and report the hottest subtrees, tables, and partitions"},
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

func run(args []string, stdout io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("%s", usageText())
	}
	switch args[0] {
	case "profile":
		return runProfile(args[1:], stdout)
	case "timeline":
		return runTimeline(args[1:], stdout)
	case "hotspots":
		return runHotspots(args[1:], stdout)
	case "slo":
		return runSLO(args[1:], stdout)
	default:
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

// fsCalls runs each op workload.FS has a call for, by name.
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

// warnTruncated prints a truncation warning when a report or export is
// built from a span ring that evicted spans.
func warnTruncated(w io.Writer, sink *trace.Sink) {
	if d := sink.Dropped(); d > 0 {
		fmt.Fprintf(w, "warning: span ring dropped %d of %d spans; output is truncated\n",
			d, sink.Total())
	}
}

// replayDeadline is the virtual time a replay may take before it fails.
const replayDeadline = 1000 * time.Second

// replayConcurrent shards a trace round-robin over clients concurrent
// replay processes and drives the simulation until every shard completes
// (or replayDeadline passes). Concurrency is what makes the profile
// interesting: operations from different clients collide on shared
// directories, exercising lock contention the way closed-loop load does.
func replayConcurrent(d *core.Deployment, traceOps []nsmodel.Op, clients int) (elapsed time.Duration, errs int, err error) {
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

// replay runs one session: generate the trace, build the deployment with
// a replay client per -clients (a non-positive -servers or -clients is
// refused first), let attach enable the consumers the subcommand reports
// from (before any operation runs; it is told the trace length to size
// rings by), replay the trace over concurrent clients, stop the background
// tickers, and call render with the -out destination.
func (f *replayFlags) replay(stdout io.Writer, attach func(d *core.Deployment, ops int), render func(w io.Writer, r replayed) error) error {
	if *f.servers <= 0 {
		return fmt.Errorf("-servers %d: want at least one metadata server", *f.servers)
	}
	if *f.clients <= 0 {
		return fmt.Errorf("-clients %d: want at least one replay client", *f.clients)
	}
	setup, ok := core.SetupByName(*f.setup)
	if !ok {
		return fmt.Errorf("unknown setup %q", *f.setup)
	}
	opts := core.DefaultOptions(setup)
	opts.MetadataServers = *f.servers
	opts.ClientsPerServer = (*f.clients + *f.servers - 1) / *f.servers
	opts.Shards = *f.shards
	opts.Seed = *f.seed
	traceOps := genTrace(*f.ops, *f.seed)
	d, err := core.Build(opts)
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

// timelineKeeps are the registry families a timeline samples: op rates,
// transaction outcomes, per-AZ link traffic and lock contention.
var timelineKeeps = []string{"op.", "txn.", "net.link.", "ndb.contention."}

// frame is one timeline row: the kept registry samples, name-sorted, at one
// virtual instant.
type frame struct {
	at      time.Duration
	samples []trace.Sample
}

func runTimeline(args []string, stdout io.Writer) error {
	fs := newReplayFlags("timeline")
	interval := fs.Duration("interval", 20*time.Millisecond, "sampling interval (virtual time)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *interval <= 0 {
		return fmt.Errorf("-interval %v: want a positive sampling interval", *interval)
	}
	var frames []frame
	err := fs.replay(stdout, func(d *core.Deployment, _ int) {
		d.Every("timeline", *interval, func(now time.Duration) {
			samples := slices.DeleteFunc(d.Registry.Snapshot(), func(s trace.Sample) bool {
				return !slices.ContainsFunc(timelineKeeps, func(p string) bool { return strings.HasPrefix(s.Name, p) })
			})
			frames = append(frames, frame{at: now, samples: samples})
		})
	}, func(w io.Writer, _ replayed) error {
		return writeTimelineCSV(w, frames)
	})
	if err != nil {
		return err
	}
	if *fs.out != "" {
		fmt.Fprintf(stdout, "wrote %d frames to %s\n", len(frames), *fs.out)
	}
	return nil
}

// writeTimelineCSV renders frames as a CSV time series: one row per frame,
// one column per sample name (the sorted union over all frames). Counters
// print as per-frame deltas, gauges and maxima as their values, and a
// column reads 0 in the frames before its first sample.
func writeTimelineCSV(w io.Writer, frames []frame) error {
	kinds := make(map[string]trace.Kind)
	for _, fr := range frames {
		for _, s := range fr.samples {
			kinds[s.Name] = s.Kind
		}
	}
	names := slices.Sorted(maps.Keys(kinds))
	cw := csv.NewWriter(w)
	cw.Write(append([]string{"t_ms"}, names...))
	row := make([]string, 1+len(names))
	var prev []trace.Sample
	for _, fr := range frames {
		vals := make(map[string]float64, len(fr.samples))
		for _, s := range trace.Diff(prev, fr.samples) {
			vals[s.Name] = s.Value
		}
		prev = fr.samples
		row[0] = csvFloat(float64(fr.at) / 1e6)
		for i, name := range names {
			row[1+i] = csvFloat(vals[name])
		}
		cw.Write(row)
	}
	cw.Flush()
	return cw.Error()
}

// csvFloat renders v with up to three decimals, trimming trailing zeros so
// counters print as integers.
func csvFloat(v float64) string {
	return strings.TrimRight(strings.TrimRight(strconv.FormatFloat(v, 'f', 3, 64), "0"), ".")
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
		for _, c := range xrep.Classes {
			for _, ex := range c.Exemplars {
				roots = append(roots, ex.Root)
			}
		}
		if len(roots) == 0 {
			return nil
		}
		slowest := xrep.Slowest()
		fmt.Fprintf(w, "\ncritical-path attribution over the %d pinned exemplars:\n%s", len(roots), profile.Analyze(roots).Table())
		fmt.Fprintf(w, "\nslowest exemplar (op %s, %v, reason %s):\n%s\n",
			slowest.Op, slowest.Latency, slowest.Reason, slowest.Root.Render())
		return nil
	})
}

func runSLO(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("slo", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "simulation seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rep, err := chaos.RunCampaign(*seed, chaos.CampaignOptions{Schedule: chaos.DetectionSchedule(), SLO: &slo.Spec{}})
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
