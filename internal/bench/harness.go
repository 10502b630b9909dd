// Package bench is the experiment harness of the reproduction: it drives
// closed-loop benchmark clients against a deployment (the methodology of
// the paper's benchmarking tool [23]) and captures every signal the paper
// plots — throughput, end-to-end latency percentiles, per-server request
// rates, CPU utilization per layer and per NDB thread type, network and
// disk utilization, and per-partition replica read counts.
package bench

import (
	"errors"
	"time"

	"hopsfscl/internal/core"
	"hopsfscl/internal/heat"
	"hopsfscl/internal/metrics"
	"hopsfscl/internal/ndb"
	"hopsfscl/internal/profile"
	"hopsfscl/internal/sim"
	"hopsfscl/internal/slo"
	"hopsfscl/internal/trace"
	"hopsfscl/internal/workload"
)

// RunConfig controls one measurement.
type RunConfig struct {
	// Warmup is the minimum unrecorded run-in (queue fill).
	Warmup time.Duration
	// MaxWarmup bounds the adaptive warm-up extension.
	MaxWarmup time.Duration
	// WarmOpsPerClient extends the warm-up until every client has
	// averaged this many operations — client-side caches (CephFS kernel
	// caches, NN hint caches) must be warm before measuring, as they are
	// in the paper's minutes-long runs.
	WarmOpsPerClient int
	// Window is the recorded measurement interval.
	Window time.Duration
	// Mix selects the operation distribution (Spotify or a micro mix).
	Mix workload.Mix
	// Affinity is the probability a client operation targets one of its
	// home directories (DefaultRunConfig: ClientAffinity; 0 plants
	// nothing). Micro-benchmarks use 1.0: the paper's tool re-reads each
	// thread's own file set.
	Affinity float64
	// Seed feeds the generator.
	Seed int64
	// Profile enables detailed span capture and contention accounting over
	// the measurement window: the Result gains a critical-path attribution
	// report and the deployment's contention ledger, both reset at window
	// start. Tracing adds no randomness, so enabling it does not perturb
	// the measured schedule.
	Profile bool
	// SLO enables the live SLO engine over the measurement window,
	// evaluating this spec (the zero Spec = slo.DefaultSpec): the Result
	// gains an SLOReport with rolling per-op percentiles, the alert log,
	// and the closing health state.
	SLO *slo.Spec
	// Heat enables namespace heat tracking from warm-up start (the decayed
	// sketches converge to the steady-state ranking): the Result gains a
	// heat.Report of the hottest subtrees, inodes, tables, and partitions.
	Heat bool
	// Exemplars enables tail-based exemplar capture over the measurement
	// window with these store bounds (the zero config = slo defaults): the
	// Result gains an ExemplarReport of pinned outlier traces. Exemplars
	// are detailed span trees judged against SLO objectives, so the
	// deployment attaches a default sink and engine when Profile and SLO
	// are unset (see core.Deployment.EnableExemplars).
	Exemplars *slo.ExemplarConfig
	// HomeDirs overrides every client's home-directory set with the same
	// planted directories — the hotspot experiment's skew source (nil
	// keeps the default per-client assignment).
	HomeDirs []string
}

// ProfileSinkCap bounds the spans retained for a profiled window. When the
// window completes more operations than this, the report covers the most
// recent ProfileSinkCap and Result.SinkDropped says how many were evicted.
const ProfileSinkCap = 32 << 10

// DefaultRunConfig returns the quick-run measurement parameters. The paper
// measures minutes of wall clock; in virtual time a few hundred
// milliseconds of steady state gives stable rates at a fraction of the
// simulation cost.
func DefaultRunConfig() RunConfig {
	return RunConfig{
		Warmup:           80 * time.Millisecond,
		MaxWarmup:        4 * time.Second,
		WarmOpsPerClient: 120,
		Window:           200 * time.Millisecond,
		Mix:              workload.SpotifyMix,
		Affinity:         ClientAffinity,
		Seed:             1,
	}
}

// PartitionReads is the Figure 14 measurement for one partition.
type PartitionReads struct {
	Index  int
	Counts []int64
}

// Result is one measured configuration.
type Result struct {
	Setup   string
	Servers int
	Window  time.Duration

	// Ops and Errors are client-side completions in the window.
	Ops    int64
	Errors int64
	// Throughput is client ops per second.
	Throughput float64

	// Latency distribution of client-observed end-to-end operation times.
	AvgLatency time.Duration
	P50, P90   time.Duration
	P99        time.Duration

	// ServerRequestRate is the mean per-server rate of requests that
	// actually reached a metadata server (cache hits excluded) — Fig 6.
	ServerRequestRate float64

	// ServerCPU and StorageCPU are mean utilizations (0..1) — Fig 10.
	ServerCPU  float64
	StorageCPU float64

	// ThreadCPU is utilization per NDB thread type, the mean over every
	// cluster's datanodes (HopsFS only) — Fig 11.
	ThreadCPU map[string]float64

	// Per-node I/O rates in bytes/second — Figs 12 and 13.
	StorageNetRead, StorageNetWrite   float64
	StorageDiskRead, StorageDiskWrite float64
	ServerNetRead, ServerNetWrite     float64

	// CrossZoneRate is bytes/second crossing AZ boundaries (§V-E's
	// motivation: minimize cross-AZ traffic).
	CrossZoneRate float64

	// ReadSlots is the per-partition replica read split of the inode
	// table, cluster by cluster in shard order (HopsFS only) — Fig 14.
	ReadSlots []PartitionReads

	// Registry is the deployment registry delta over the measurement
	// window: per-op latency/error/byte counters, 2PC phase timings, lock
	// waits, TC-selection proximity, per-class network traffic.
	Registry []trace.Sample

	// Profile is the critical-path attribution of the window's traced
	// operations (runs with a span sink only: RunConfig.Profile or
	// Exemplars).
	Profile *profile.Report
	// SinkDropped counts spans evicted from the span ring; nonzero means
	// Profile covers a suffix of the window.
	SinkDropped int64

	// SLOReport is the live SLO engine's end-of-window report
	// (RunConfig.SLO or Exemplars only).
	SLOReport *slo.Report

	// Heat is the end-of-run heat snapshot (RunConfig.Heat only).
	Heat *heat.Report
	// Exemplars is the pinned outlier-trace report (RunConfig.Exemplars
	// only).
	Exemplars *slo.ExemplarReport
}

// HomeDirsPerClient is the dataset-locality width of one benchmark client
// (a Hadoop task working over a couple of datasets, see workload docs).
const HomeDirsPerClient = 2

// ClientAffinity is the probability a client operation targets one of its
// home directories.
const ClientAffinity = 0.95

// Run measures one deployment. The deployment is consumed: background
// processes keep their state, so build a fresh deployment per Run.
func Run(d *core.Deployment, cfg RunConfig) *Result {
	env := d.Env
	var hist metrics.Histogram

	var (
		measuring bool
		stop      bool
		steps     int64 // every generator draw, including no-target idles
		ops       int64 // served operations only
		errCount  int64
	)
	if cfg.Heat {
		// Heat tracking starts before warm-up so the decayed sketches reach
		// steady state by window end, like a long-running deployment's would.
		d.EnableHeat()
	}
	for i, fs := range d.Clients {
		fs := fs
		home := d.Namespace.HomeDirsFor(i, HomeDirsPerClient)
		if cfg.HomeDirs != nil {
			home = cfg.HomeDirs
		}
		gen := workload.NewAffineGenerator(d.Namespace, cfg.Mix, cfg.Seed+int64(i), home, cfg.Affinity)
		env.Spawn("bench-client", func(p *sim.Proc) {
			for !stop {
				t0 := p.Now()
				_, err := gen.Step(p, fs)
				steps++
				if errors.Is(err, workload.ErrNoTarget) {
					// A no-target draw (exhausted file pool) is a back-off,
					// not a served operation.
					continue
				}
				ops++
				if measuring {
					hist.Observe(p.Now() - t0)
					if err != nil {
						errCount++
					}
				}
			}
		})
	}

	// Warm-up: at least cfg.Warmup, extended until the per-client average
	// reaches WarmOpsPerClient (bounded by MaxWarmup). Steps, not served
	// ops, drive the target: a drained file pool must not stall warm-up.
	env.RunFor(cfg.Warmup)
	warmTarget := int64(len(d.Clients)) * int64(cfg.WarmOpsPerClient)
	warmDeadline := env.Now() - cfg.Warmup + cfg.MaxWarmup
	for steps < warmTarget && env.Now() < warmDeadline {
		env.RunFor(50 * time.Millisecond)
	}
	ops0 := ops

	// Snapshot everything at window start.
	serverCPU := metrics.NewUtilWindow(d.ServerCPUs()...)
	serverCPU.Mark(env.Now())
	storageCPU := metrics.NewUtilWindow(d.StorageCPUs()...)
	storageCPU.Mark(env.Now())
	threadWindows := markThreadWindows(d, env.Now())

	storageNet0 := nicSnapshot(d, true)
	storageDisk0 := diskSnapshot(d)
	serverNet0 := nicSnapshot(d, false)
	crossZone0 := d.Net.CrossZoneBytes()
	serverReqs0 := sumInt64(d.ServerRequests())
	readSlots0 := readSlotSnapshot(d)
	reg0 := d.Registry.Snapshot()
	if cfg.Profile {
		d.EnableTracing(ProfileSinkCap)
	}
	if cfg.SLO != nil {
		d.EnableSLO(*cfg.SLO)
	}
	if cfg.Exemplars != nil {
		d.EnableExemplars(*cfg.Exemplars)
	}
	sink := d.Tracer.Sink()

	measuring = true
	env.RunFor(cfg.Window)
	measuring = false
	stop = true

	now := env.Now()
	win := cfg.Window.Seconds()
	nStorage := float64(len(d.StorageNodes()))
	nServers := float64(len(d.ServerCPUs()))

	res := &Result{
		Setup:      d.Setup.Name,
		Servers:    d.Opts.MetadataServers,
		Window:     cfg.Window,
		Ops:        ops - ops0,
		Errors:     errCount,
		Throughput: float64(ops-ops0) / win,
		AvgLatency: hist.Mean(),
		P50:        hist.Percentile(0.50),
		P90:        hist.Percentile(0.90),
		P99:        hist.Percentile(0.99),
		ServerCPU:  serverCPU.Report(now),
		StorageCPU: storageCPU.Report(now),
	}
	if nServers > 0 {
		res.ServerRequestRate = float64(sumInt64(d.ServerRequests())-serverReqs0) / win / nServers
	}
	res.ThreadCPU = reportThreadWindows(threadWindows, now)

	storageNet1 := nicSnapshot(d, true)
	storageDisk1 := diskSnapshot(d)
	serverNet1 := nicSnapshot(d, false)
	if nStorage > 0 {
		res.StorageNetRead = float64(storageNet1[0]-storageNet0[0]) / win / nStorage
		res.StorageNetWrite = float64(storageNet1[1]-storageNet0[1]) / win / nStorage
		res.StorageDiskRead = float64(storageDisk1[0]-storageDisk0[0]) / win / nStorage
		res.StorageDiskWrite = float64(storageDisk1[1]-storageDisk0[1]) / win / nStorage
	}
	if nServers > 0 {
		res.ServerNetRead = float64(serverNet1[0]-serverNet0[0]) / win / nServers
		res.ServerNetWrite = float64(serverNet1[1]-serverNet0[1]) / win / nServers
	}
	res.CrossZoneRate = float64(d.Net.CrossZoneBytes()-crossZone0) / win
	res.ReadSlots = diffReadSlots(readSlotSnapshot(d), readSlots0)
	res.Registry = trace.Diff(reg0, d.Registry.Snapshot())
	if sink != nil {
		res.Profile = profile.Analyze(sink.Spans())
		res.SinkDropped = sink.Dropped()
	}
	res.SLOReport = d.SLO.Report(now)
	res.Heat = d.Heat.Snapshot(now)
	res.Exemplars = d.Exemplars.Report(now)
	return res
}

// markThreadWindows sets up one utilization window per NDB thread type over
// the datanodes of every cluster (nil for CephFS).
func markThreadWindows(d *core.Deployment, now time.Duration) map[string]*metrics.UtilWindow {
	if d.NS == nil {
		return nil
	}
	out := make(map[string]*metrics.UtilWindow, ndb.MAIN+1)
	for t := ndb.LDM; t <= ndb.MAIN; t++ {
		w := metrics.NewUtilWindow(d.StorageThreads(t)...)
		w.Mark(now)
		out[t.String()] = w
	}
	return out
}

func reportThreadWindows(ws map[string]*metrics.UtilWindow, now time.Duration) map[string]float64 {
	if ws == nil {
		return nil
	}
	out := make(map[string]float64, len(ws))
	for name, w := range ws {
		out[name] = w.Report(now)
	}
	return out
}

// nicSnapshot returns total (read, write) NIC bytes over storage or server
// nodes.
func nicSnapshot(d *core.Deployment, storage bool) [2]int64 {
	var out [2]int64
	nodes := d.ServerNodes()
	if storage {
		nodes = d.StorageNodes()
	}
	for _, n := range nodes {
		r, w := n.NICBytes()
		out[0] += r
		out[1] += w
	}
	return out
}

func diskSnapshot(d *core.Deployment) [2]int64 {
	var out [2]int64
	for _, n := range d.StorageNodes() {
		r, w := n.DiskBytes()
		out[0] += r
		out[1] += w
	}
	return out
}

func sumInt64(xs []int64) int64 {
	var total int64
	for _, x := range xs {
		total += x
	}
	return total
}

func readSlotSnapshot(d *core.Deployment) []PartitionReads {
	if d.NS == nil {
		return nil
	}
	var out []PartitionReads
	for _, c := range d.MetaClusters() {
		for _, part := range c.Table("inodes").Partitions() {
			out = append(out, PartitionReads{Index: part.Index(), Counts: part.ReadCounts()})
		}
	}
	return out
}

func diffReadSlots(now, before []PartitionReads) []PartitionReads {
	if now == nil {
		return nil
	}
	out := make([]PartitionReads, len(now))
	for i := range now {
		counts := make([]int64, len(now[i].Counts))
		copy(counts, now[i].Counts)
		if i < len(before) {
			for j := range counts {
				if j < len(before[i].Counts) {
					counts[j] -= before[i].Counts[j]
				}
			}
		}
		out[i] = PartitionReads{Index: now[i].Index, Counts: counts}
	}
	return out
}

// measure is one measured point: it builds the deployment opts describes,
// runs one measurement on it and closes it.
func measure(opts core.Options, cfg RunConfig) (*Result, error) {
	d, err := core.Build(opts)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	return Run(d, cfg), nil
}

// pointOptions returns the deployment options of one experiment point: the
// setup's defaults at the given server count, under the experiment's seed
// and, when it sets one, its clients-per-server override.
func pointOptions(o ExpOptions, setup core.Setup, servers int) core.Options {
	opts := core.DefaultOptions(setup)
	opts.MetadataServers = servers
	if o.ClientsPerServer > 0 {
		opts.ClientsPerServer = o.ClientsPerServer
	}
	opts.Seed = o.Seed
	return opts
}
