package bench

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"hopsfscl/internal/chaos"
	"hopsfscl/internal/core"
	"hopsfscl/internal/metrics"
	"hopsfscl/internal/ndb"
	"hopsfscl/internal/nsmodel"
	"hopsfscl/internal/profile"
	"hopsfscl/internal/sim"
	"hopsfscl/internal/simnet"
	"hopsfscl/internal/trace"
	"hopsfscl/internal/workload"
)

// ExpOptions parameterize an experiment run.
type ExpOptions struct {
	// Full selects the paper's complete parameter grid (8 server counts);
	// quick mode uses a subset.
	Full bool
	// Seed drives all randomness.
	Seed int64
	// ClientsPerServer overrides the closed-loop client count (0 = default).
	ClientsPerServer int
	// Counts overrides the server-count grid (nil = Full/quick defaults).
	// The testing.B benchmarks use this to run each figure at reduced
	// scale.
	Counts []int
}

// MicroServers returns the cluster size for the fixed-size micro and
// percentile experiments (figs 7 and 9): the paper's 60 in full mode, 24
// in quick mode (the shapes are already stable there).
func (o ExpOptions) MicroServers() int {
	if len(o.Counts) > 0 {
		return o.Counts[len(o.Counts)-1]
	}
	if o.Full {
		return 60
	}
	return 24
}

// ServerCounts returns the evaluated metadata-server counts: the paper's
// x-axis {1,6,12,18,24,36,48,60} in full mode, a subset in quick mode.
func (o ExpOptions) ServerCounts() []int {
	if len(o.Counts) > 0 {
		return o.Counts
	}
	if o.Full {
		return []int{1, 6, 12, 18, 24, 36, 48, 60}
	}
	return []int{1, 6, 12, 24, 60}
}

// Experiment is one reproducible table or figure. Run returns its markdown
// report and the claims judged on the rows it measured.
type Experiment struct {
	ID    string
	Title string
	Run   func(o ExpOptions) (string, []Claim, error)
}

// Experiments lists every reproduced table and figure, in paper order.
var Experiments = []Experiment{
	{ID: "table1", Title: "Table I: inter-AZ latency matrix (measured)", Run: Table1},
	{ID: "table2", Title: "Table II: NDB thread configuration", Run: Table2},
	{ID: "fig5", Title: "Figure 5: throughput vs metadata servers (Spotify workload)", Run: Fig5},
	{ID: "fig6", Title: "Figure 6: per-metadata-server request throughput", Run: Fig6},
	{ID: "fig7", Title: "Figure 7: micro-operation throughput at max servers", Run: Fig7},
	{ID: "fig8", Title: "Figure 8: average end-to-end latency vs metadata servers", Run: Fig8},
	{ID: "fig9", Title: "Figure 9: latency percentiles at 50% load", Run: Fig9},
	{ID: "fig10", Title: "Figure 10: CPU utilization per storage node / metadata server", Run: Fig10},
	{ID: "fig11", Title: "Figure 11: CPU per NDB thread type, HopsFS-CL (3,3)", Run: Fig11},
	{ID: "fig12", Title: "Figure 12: storage layer network and disk utilization", Run: Fig12},
	{ID: "fig13", Title: "Figure 13: per-metadata-server network and disk utilization", Run: Fig13},
	{ID: "fig14", Title: "Figure 14: AZ-local reads with/without Read Backup", Run: Fig14},
	{ID: "writefan", Title: "Write fan: multi-row txn latency and wire footprint, batched vs serial", Run: WriteFan},
	{ID: "failures", Title: "Section V-F: failure drills (AZ loss, split brain, NN loss)", Run: Failures},
	{ID: "chaos", Title: "Chaos: seeded random fault campaigns with invariant auditing", Run: Chaos},
	{ID: "ablations", Title: "Design-choice ablations: Read Backup, batching, block backend", Run: Ablations},
	{ID: "phases", Title: "Trace registry: 2PC phase latency and cross-AZ bytes per operation", Run: Phases},
	{ID: "autoscale", Title: "Elastic tier: autoscaled NNs vs static provisioning under diurnal load", Run: Autoscale},
	{ID: "hotspot", Title: "Namespace heat maps and tail exemplars under a planted skewed workload", Run: Hotspot},
	{ID: "shardsweep", Title: "Namespace sharding: throughput vs shard count at fixed offered load", Run: ShardSweep},
}

// ExperimentByID finds an experiment.
func ExperimentByID(id string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// sweepCache memoizes measured points within one process, so running
// several figures that share the same sweep (fig5, fig6, fig8, fig10,
// fig12, fig13 — e.g. via `hopsbench all`) measures each point once.
// Experiments run sequentially; no locking is needed.
var sweepCache = make(map[string]*Result)

// sweep measures every setup at every server count.
func sweep(o ExpOptions, setups []core.Setup, counts []int) (map[string]map[int]*Result, error) {
	out := make(map[string]map[int]*Result, len(setups))
	for _, setup := range setups {
		out[setup.Name] = make(map[int]*Result, len(counts))
		for _, n := range counts {
			key := fmt.Sprintf("%s|%d|%d|%d|%v", setup.Name, n, o.ClientsPerServer, o.Seed, o.Full)
			if res, ok := sweepCache[key]; ok {
				out[setup.Name][n] = res
				continue
			}
			res, err := measure(pointOptions(o, setup, n), runConfigFor(o))
			if err != nil {
				return nil, fmt.Errorf("%s @%d servers: %w", setup.Name, n, err)
			}
			sweepCache[key] = res
			out[setup.Name][n] = res
		}
	}
	return out, nil
}

func runConfigFor(o ExpOptions) RunConfig {
	cfg := DefaultRunConfig()
	cfg.Seed = o.Seed
	if o.Full {
		cfg.Window = 300 * time.Millisecond
	}
	return cfg
}

// renderSweep formats one metric of a sweep as a servers x setups table.
func renderSweep(results map[string]map[int]*Result, setups []core.Setup, counts []int,
	metric func(*Result) string, header string) string {
	cols := []string{"servers"}
	for _, s := range setups {
		cols = append(cols, s.Name)
	}
	tbl := metrics.NewTable(cols...)
	for _, n := range counts {
		row := []string{fmt.Sprintf("%d", n)}
		for _, s := range setups {
			row = append(row, metric(results[s.Name][n]))
		}
		tbl.AddRow(row...)
	}
	return header + "\n\n" + tbl.Markdown()
}

// Table1 measures the RTT matrix between hosts in each AZ pair by actually
// pinging across the simulated network, the reproduction of the paper's GCE
// measurements.
func Table1(o ExpOptions) (string, []Claim, error) {
	env := sim.New(o.Seed)
	defer env.Close()
	topo := simnet.USWest1()
	net := simnet.New(env, topo)
	// Two VMs per zone: the paper's intra-AZ numbers are between two
	// different machines in the same zone, not loopback.
	nodes := make([]*simnet.Node, 3)
	twins := make([]*simnet.Node, 3)
	for z := 0; z < 3; z++ {
		nodes[z] = net.NewNode(fmt.Sprintf("vm-%d", z+1), simnet.ZoneID(z+1), simnet.HostID(2*z+1))
		twins[z] = net.NewNode(fmt.Sprintf("vm-%d'", z+1), simnet.ZoneID(z+1), simnet.HostID(2*z+2))
	}
	const probes = 200
	rtt := [3][3]time.Duration{}
	env.Spawn("ping", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				target := nodes[j]
				if i == j {
					target = twins[j]
				}
				var total time.Duration
				for k := 0; k < probes; k++ {
					t0 := p.Now()
					net.TravelDeferred(p, nodes[i], target, 64, time.Second)
					p.Flush()
					net.TravelDeferred(p, target, nodes[i], 64, time.Second)
					p.Flush()
					total += p.Now() - t0
				}
				rtt[i][j] = total / probes
			}
		}
	})
	env.Run()
	tbl := metrics.NewTable("ms", topo.ZoneName(1), topo.ZoneName(2), topo.ZoneName(3))
	for i := 0; i < 3; i++ {
		row := []string{topo.ZoneName(simnet.ZoneID(i + 1))}
		for j := 0; j < 3; j++ {
			row = append(row, fmt.Sprintf("%.3f", ms(rtt[i][j])))
		}
		tbl.AddRow(row...)
	}
	// The paper's GCE measurements, which seed the simulated topology: the
	// experiment closes the loop through jitter, transmission and queueing.
	paper := [3][3]float64{{0.247, 0.360, 0.372}, {0.360, 0.251, 0.399}, {0.372, 0.399, 0.249}}
	var claims []Claim
	for i := 0; i < 3; i++ {
		for j := i; j < 3; j++ {
			there, back := ms(rtt[i][j]), ms(rtt[j][i])
			claims = append(claims, Claim{fmt.Sprintf("table1/%c-%c", 'a'+i, 'a'+j), fmt.Sprintf("RTT %.3f ms", paper[i][j]),
				fmt.Sprintf("%.3f / %.3f ms", there, back), math.Abs(there-paper[i][j]) <= 0.005 && math.Abs(back-paper[i][j]) <= 0.005, ""})
		}
	}
	return "Measured RTT between VMs in different AZs of us-west1 (ms)\n\n" + tbl.Markdown(), claims, nil
}

// Table2 reports the NDB thread configuration of a live datanode.
func Table2(o ExpOptions) (string, []Claim, error) {
	d, err := core.Build(core.DefaultOptions(core.PaperSetups[5])) // HopsFS-CL (3,3)
	if err != nil {
		return "", nil, err
	}
	defer d.Close()
	tbl := metrics.NewTable("type", "count", "responsibility")
	responsibilities := map[string]string{
		"LDM": "tables' data shards", "TC": "on going transactions on the database nodes",
		"RECV": "inbound network traffic", "SEND": "outbound network traffic",
		"REP": "replication across clusters", "IO": "I/O operations", "MAIN": "schema management",
	}
	total := 0
	for t := ndb.LDM; t <= ndb.MAIN; t++ {
		name, count := t.String(), d.StorageThreads(t)[0].Capacity()
		tbl.AddRow(name, fmt.Sprintf("%d", count), responsibilities[name])
		total += count
	}
	return fmt.Sprintf("NDB CPU configuration per datanode (%d CPUs locked)\n\n%s", total, tbl.Markdown()), nil, nil
}

// Fig5 is the headline throughput sweep over all nine setups.
func Fig5(o ExpOptions) (string, []Claim, error) {
	counts := o.ServerCounts()
	results, err := sweep(o, core.PaperSetups, counts)
	if err != nil {
		return "", nil, err
	}
	// Setups by index: 0 HopsFS (2,1), 1 (3,1), 2 (2,3), 3 (3,3), 4 CL (2,3),
	// 5 CL (3,3), 6 CephFS, 7 DirPinned, 8 SkipKCache.
	n, prev := counts[len(counts)-1], counts[max(0, len(counts)-2)]
	tp := func(setup, at int) float64 { return results[core.PaperSetups[setup].Name][at].Throughput }
	vs := func(a, b, at int) float64 { return tp(a, at)/tp(b, at) - 1 }
	best := 0
	for i := range core.PaperSetups {
		if tp(i, n) > tp(best, n) {
			best = i
		}
	}
	rf3, pen23, pen33, ha23, ha33 := vs(1, 0, n), vs(2, 0, n), vs(3, 1, n), vs(4, 0, n), vs(5, 1, n)
	// The share of unaware 3-AZ HopsFS's loss against one AZ that HopsFS-CL wins back.
	rec23, rec33 := (tp(4, n)-tp(2, n))/(tp(0, n)-tp(2, n)), (tp(5, n)-tp(3, n))/(tp(1, n)-tp(3, n))
	gapPrev, gap, ceph := vs(3, 5, prev), vs(3, 5, n), tp(5, n)/tp(6, n)
	claims := []Claim{
		{"fig5/best", "HopsFS (2,1) performs best: 1.62M ops/s at 60 NNs",
			fmt.Sprintf("%s best at %d NNs: %s", core.PaperSetups[best].Name, n, metrics.FormatOps(tp(best, n))), best == 0, ""},
		{"fig5/rf3-one-az", "RF 3 costs a few % in one AZ: −4 %", pct(rf3), rf3 < 0 && rf3 > -0.1, ""},
		{"fig5/unaware-penalty", "unaware 3-AZ HopsFS pays for cross-AZ traffic: −17 % (2,3), −22 % (3,3)",
			pct(pen23) + ", " + pct(pen33), math.Abs(pen23+0.17) <= 0.1 && math.Abs(pen33+0.22) <= 0.1,
			"the direction holds, the gap is larger: an unaware TC is the primary of the path's one partition (DESIGN §13), in another AZ for two clients in three"},
		{"fig5/cl-recovers", "HopsFS-CL wins most of it back: +17 % (CL 2,3), +36 % (CL 3,3) over unaware are 82 %, 127 % of the loss",
			fmt.Sprintf("%.0f %%, %.0f %% won back", rec23*100, rec33*100), rec23 >= 0.7 && rec33 >= 0.7, ""},
		{"fig5/ha-single-az", "HA HopsFS-CL ≈ single-AZ HopsFS: 1.66M vs 1.62M",
			fmt.Sprintf("CL (2,3) %s of (2,1), CL (3,3) %s of (3,1)", pct(ha23), pct(ha33)), math.Abs(ha23) <= 0.15 && math.Abs(ha33) <= 0.15, ""},
		{"fig5/gap-grows", "the CL gap over unaware HopsFS grows past 24 NNs",
			fmt.Sprintf("HopsFS (3,3) %s of CL (3,3) at %d NNs, %s at %d", pct(gapPrev), prev, pct(gap), n), gap < gapPrev, ""},
		{"fig5/cephfs", "CephFS far behind: HopsFS-CL 2.14× its 0.77M",
			fmt.Sprintf("%.1f× its %s", ceph, metrics.FormatOps(tp(6, n))), ceph >= 1.5 && ceph <= 3,
			"CephFS is far behind and flattens, but further than in the paper: the synthetic clients hit the kernel cache less under the mixed workload"},
		{"fig5/dirpinned-drops", "DirPinned drops past 24 MDSs (journal disk, single thread)",
			fmt.Sprintf("%s at %d → %s at %d", metrics.FormatOps(tp(7, prev)), prev, metrics.FormatOps(tp(7, n)), n), tp(7, n) < tp(7, prev),
			"it plateaus instead: past 24 MDSs its latency rises and its MDS CPU falls (fig8, fig10), but its throughput holds"},
	}
	return renderSweep(results, core.PaperSetups, counts, func(r *Result) string {
		return metrics.FormatOps(r.Throughput)
	}, "Throughput (ops/s) for the Spotify workload"), claims, nil
}

// Fig6 reports requests actually handled per metadata server (log2 axis in
// the paper); kernel-cache hits never reach a CephFS MDS.
func Fig6(o ExpOptions) (string, []Claim, error) {
	setups := []core.Setup{
		core.PaperSetups[4], core.PaperSetups[5], // HopsFS-CL (2,3), (3,3)
		core.PaperSetups[6], core.PaperSetups[7], core.PaperSetups[8],
	}
	counts := o.ServerCounts()
	results, err := sweep(o, setups, counts)
	if err != nil {
		return "", nil, err
	}
	rate := func(setup, at int) float64 { return results[setups[setup].Name][at].ServerRequestRate }
	lo, hi := math.Inf(1), 0.0
	for _, c := range counts {
		r := max(rate(0, c), rate(1, c)) / rate(3, c)
		lo, hi = min(lo, r), max(hi, r)
	}
	claims := []Claim{{"fig6/per-server", "HopsFS-CL handles up to 23× DirPinned's requests per server",
		fmt.Sprintf("%.1f–%.1f× over the grid", lo, hi), hi >= 11.5 && hi <= 46,
		"the direction holds, the ratio is larger: a DirPinned MDS serves about the paper's rate, but an NN here costs tens of µs of CPU per op (fig10/nn-cpu)"}}
	return renderSweep(results, setups, counts, func(r *Result) string {
		return fmt.Sprintf("%.0f", r.ServerRequestRate)
	}, "Requests handled per metadata server per second"), claims, nil
}

// renderAttribution formats one "where the time went" table: a row per
// labeled report, a column per attribution category, each cell that
// category's share of the report's critical-path time. Untraced setups
// (CephFS clients bypass the tracer) render as all "-".
func renderAttribution(labels []string, reps []*profile.Report) string {
	header := []string{"setup"}
	for c := profile.Category(0); c < profile.NumCategories; c++ {
		header = append(header, c.String())
	}
	tbl := metrics.NewTable(header...)
	for i, rep := range reps {
		row := []string{labels[i]}
		byCat, total := rep.Totals()
		for c := profile.Category(0); c < profile.NumCategories; c++ {
			row = append(row, profile.PctCell(byCat[c], total))
		}
		tbl.AddRow(row...)
	}
	return tbl.Markdown()
}

// Fig7 runs the four micro-benchmarks at the largest server count.
func Fig7(o ExpOptions) (string, []Claim, error) {
	servers := o.MicroServers()
	micro := []workload.Op{workload.OpMkdir, workload.OpCreate, workload.OpDelete, workload.OpRead}
	microCfg := runConfigFor(o)
	// Single-op workloads have no caches to warm; a short run-in keeps the
	// pre-seeded file pool available for the deleteFile measurement. Each
	// benchmark thread drives its own file set, as the paper's tool does.
	microCfg.WarmOpsPerClient = 30
	microCfg.Affinity = 1.0
	microCfg.Profile = true
	cols := []string{"operation"}
	for _, s := range core.PaperSetups {
		cols = append(cols, s.Name)
	}
	tbl := metrics.NewTable(cols...)
	var attribution strings.Builder
	tp := make(map[workload.Op][]float64, len(micro)) // by op, in setup order
	for _, op := range micro {
		row := []string{op.String()}
		var labels []string
		var reps []*profile.Report
		for _, setup := range core.PaperSetups {
			cfg := microCfg
			cfg.Mix = workload.MicroMix(op)
			opts := pointOptions(o, setup, servers)
			if op == workload.OpDelete {
				// deleteFile consumes the pool; seed it deep enough for
				// the measurement window. The read benchmarks keep the
				// default per-dataset working set (clients re-read their
				// datasets, which is what makes kernel caches pay off).
				opts.Namespace.FilesPerDir = 80 + 3*servers
			}
			res, err := measure(opts, cfg)
			if err != nil {
				return "", nil, err
			}
			row = append(row, metrics.FormatOps(res.Throughput))
			labels = append(labels, setup.Name)
			reps = append(reps, res.Profile)
			tp[op] = append(tp[op], res.Throughput)
		}
		tbl.AddRow(row...)
		fmt.Fprintf(&attribution, "\n%s — critical-path share of end-to-end time:\n\n%s",
			op, renderAttribution(labels, reps))
	}
	drop := func(op workload.Op, a, b int) float64 { return tp[op][a]/tp[op][b] - 1 }
	c1, c3, ccl := drop(workload.OpCreate, 1, 0), drop(workload.OpCreate, 3, 2), drop(workload.OpCreate, 5, 4)
	ceph := math.Inf(1)
	for _, op := range micro[:3] {
		ceph = min(ceph, tp[op][5]/tp[op][6])
	}
	read := tp[workload.OpRead]
	claims := []Claim{
		{"fig7/rf3-mutations", "RF 2→3 drops mutation throughput: up to −45 % in one AZ, −23 % over three",
			fmt.Sprintf("createFile %s in one AZ, %s unaware, %s CL", pct(c1), pct(c3), pct(ccl)), c1 < 0 && c3 < 0 && ccl < 0, ""},
		{"fig7/cl-vs-cephfs", "HopsFS-CL ≫ CephFS on mutations: up to 11.8×",
			fmt.Sprintf("CL (3,3) at least %.0f× CephFS on mkdir, createFile, deleteFile", ceph), ceph >= 5, ""},
		{"fig7/cephfs-reads", "CephFS's kernel cache reads 1.9× faster than HopsFS-CL",
			fmt.Sprintf("CephFS %s, DirPinned %s, CL (3,3) %s", metrics.FormatOps(read[6]), metrics.FormatOps(read[7]), metrics.FormatOps(read[5])),
			max(read[6], read[7]) > read[5],
			"a path's rows share one partition, so a CL read is one round inside its coordinator and outruns the kernel-cache path"},
	}
	return fmt.Sprintf("Micro-operation throughput (ops/s) with %d metadata servers\n\n%s\nwhere the time went, per AZ configuration:\n%s",
		servers, tbl.Markdown(), attribution.String()), claims, nil
}

// Fig8 reports average end-to-end latency across the sweep.
func Fig8(o ExpOptions) (string, []Claim, error) {
	counts := o.ServerCounts()
	results, err := sweep(o, core.PaperSetups, counts)
	if err != nil {
		return "", nil, err
	}
	lat := func(setup, at int) float64 { return ms(results[core.PaperSetups[setup].Name][at].AvgLatency) }
	n := counts[len(counts)-1]
	lo, hi := math.Inf(1), math.Inf(-1) // CL (3,3)'s lead over HopsFS (3,3)
	for _, c := range counts {
		lead := 1 - lat(5, c)/lat(3, c)
		lo, hi = min(lo, lead), max(hi, lead)
	}
	claims := []Claim{
		{"fig8/cl-below-unaware", "HopsFS-CL up to 35 % below unaware 3-AZ HopsFS",
			fmt.Sprintf("CL (3,3) %.0f–%.0f %% below HopsFS (3,3)", lo*100, hi*100), lo > 0, ""},
		{"fig8/cephfs", "HopsFS-CL up to 9× below CephFS",
			fmt.Sprintf("%.0f× at %d NNs", lat(6, n)/lat(5, n), n), lat(6, n) >= 2*lat(5, n), ""},
		{"fig8/dirpinned", "DirPinned 1.9× below HopsFS-CL (kernel cache)",
			fmt.Sprintf("%.2f vs %.2f ms at %d NNs", lat(7, n), lat(5, n), n), lat(7, n) < lat(5, n),
			"the loaded average is dominated by saturated-MDS misses; the cache shows at half load (fig9/cephfs-mutations)"},
	}
	return renderSweep(results, core.PaperSetups, counts, func(r *Result) string {
		return fmt.Sprintf("%.2fms", ms(r.AvgLatency))
	}, "Average end-to-end operation latency (Spotify workload)"), claims, nil
}

// Fig9 reports latency percentiles for create/read/delete on an unloaded
// cluster (~50% of full throughput, approximated by a quarter of the
// closed-loop clients) at the largest server count.
func Fig9(o ExpOptions) (string, []Claim, error) {
	servers := o.MicroServers()
	ops := []workload.Op{workload.OpCreate, workload.OpRead, workload.OpDelete}
	var b strings.Builder
	fmt.Fprintf(&b, "Latency percentiles at ~50%% load, %d metadata servers\n", servers)
	p50 := make(map[workload.Op][]float64, len(ops)) // by op, in setup order
	var clReadXAZ float64                            // cross-AZ share of CL (3,3)'s read critical path
	for _, op := range ops {
		cols := []string{"setup", "p50", "p90", "p99"}
		tbl := metrics.NewTable(cols...)
		var labels []string
		var reps []*profile.Report
		for _, setup := range core.PaperSetups {
			cfg := runConfigFor(o)
			cfg.Mix = workload.MicroMix(op)
			cfg.WarmOpsPerClient = 30
			cfg.Affinity = 1.0
			cfg.Profile = true
			opts := core.DefaultOptions(setup)
			opts.MetadataServers = servers
			opts.ClientsPerServer = max(1, opts.ClientsPerServer/4)
			opts.Namespace.FilesPerDir = 80
			opts.Seed = o.Seed
			res, err := measure(opts, cfg)
			if err != nil {
				return "", nil, err
			}
			tbl.AddRow(setup.Name, fmtMS(res.P50), fmtMS(res.P90), fmtMS(res.P99))
			labels = append(labels, setup.Name)
			reps = append(reps, res.Profile)
			p50[op] = append(p50[op], ms(res.P50))
			if op == workload.OpRead && setup == core.PaperSetups[5] {
				byCat, total := res.Profile.Totals()
				clReadXAZ = float64(byCat[profile.CatHopCrossAZ]) / float64(total)
			}
		}
		fmt.Fprintf(&b, "\n%s:\n\n%s", op, tbl.Markdown())
		fmt.Fprintf(&b, "\nwhere the time went (critical-path share of end-to-end time):\n\n%s",
			renderAttribution(labels, reps))
	}
	hops := func(p []float64) float64 { return slices.Min(p[:6]) } // the best HopsFS deployment
	cr, rd, dl := p50[workload.OpCreate], p50[workload.OpRead], p50[workload.OpDelete]
	cephPaper := "unloaded CephFS answers below HopsFS and HopsFS-CL (kernel cache, MDS memory)"
	claims := []Claim{
		{"fig9/cl-reads", "Read Backup puts HopsFS-CL reads below unaware HopsFS, at an AZ-local replica (§IV-A3)",
			fmt.Sprintf("readFile p50 %.2f vs %.2f ms at (3,3), %.2f vs %.2f at (2,3); CL (3,3) %.1f %% cross-AZ", rd[5], rd[3], rd[4], rd[2], clReadXAZ*100),
			rd[5] < rd[3] && rd[4] < rd[2] && clReadXAZ < 0.01, ""},
		{"fig9/cl-mutations", "and costs mutations: the commit Ack waits for every replica (§IV-A3)",
			fmt.Sprintf("createFile p50 %.2f vs %.2f ms at (3,3), %.2f vs %.2f at (2,3)", cr[5], cr[3], cr[4], cr[2]), cr[5] > cr[3] && cr[4] > cr[2], ""},
		{"fig9/cephfs-mutations", cephPaper,
			fmt.Sprintf("CephFS createFile p50 %.2f, deleteFile %.2f ms; best HopsFS %.2f, %.2f", cr[6], dl[6], hops(cr), hops(dl)),
			cr[6] < hops(cr) && dl[6] < hops(dl), ""},
		{"fig9/cephfs-reads", cephPaper,
			fmt.Sprintf("CephFS readFile p50 %.2f ms; best HopsFS %.2f", rd[6], hops(rd)), rd[6] < hops(rd),
			"a path's rows share one partition, so a HopsFS read is one round inside its coordinator, below the kernel-cache path"},
	}
	return b.String(), claims, nil
}

func fmtMS(d time.Duration) string {
	return fmt.Sprintf("%.2fms", ms(d))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Fig10 reports mean CPU utilization of storage nodes and metadata servers.
func Fig10(o ExpOptions) (string, []Claim, error) {
	counts := o.ServerCounts()
	results, err := sweep(o, core.PaperSetups, counts)
	if err != nil {
		return "", nil, err
	}
	a := renderSweep(results, core.PaperSetups, counts, func(r *Result) string {
		if r.ThreadCPU == nil {
			return "-" // CephFS OSD CPU stays flat and low (§V-D1)
		}
		return fmt.Sprintf("%.0f%%", r.StorageCPU*100)
	}, "(a) CPU utilization per metadata storage node")
	b := renderSweep(results, core.PaperSetups, counts, func(r *Result) string {
		return fmt.Sprintf("%.0f%%", r.ServerCPU*100)
	}, "(b) CPU utilization per metadata server")
	n := counts[len(counts)-1]
	nn := results[core.PaperSetups[5].Name][n].ServerCPU
	claims := []Claim{{"fig10/nn-cpu", "HopsFS NNs run hot: about 1 ms of Java CPU per op",
		fmt.Sprintf("CL (3,3) NN %.0f %% at %d NNs", nn*100, n), nn >= 0.5,
		"a model difference: the NN cost model charges tens of µs per op, so deployments are client-bound, not NN-bound"}}
	return a + "\n" + b, claims, nil
}

// Fig11 reports CPU utilization per NDB thread type for HopsFS-CL (3,3).
func Fig11(o ExpOptions) (string, []Claim, error) {
	setup := core.PaperSetups[5]
	counts := o.ServerCounts()
	results, err := sweep(o, []core.Setup{setup}, counts)
	if err != nil {
		return "", nil, err
	}
	types := []string{"MAIN", "REP", "SEND", "TC", "IO", "RECV", "LDM"}
	cols := append([]string{"servers"}, types...)
	cols = append(cols, "Average")
	tbl := metrics.NewTable(cols...)
	ranked := true
	for _, n := range counts {
		u := results[setup.Name][n].ThreadCPU
		row := []string{fmt.Sprintf("%d", n)}
		var sum float64
		for _, ty := range types {
			sum += u[ty]
			row = append(row, fmt.Sprintf("%.0f%%", u[ty]*100))
			ranked = ranked && (ty == "RECV" || u[ty] <= u["SEND"])
		}
		ranked = ranked && u["RECV"] >= u["SEND"] && u["IO"] < 0.05 && u["MAIN"] < 0.05
		row = append(row, fmt.Sprintf("%.0f%%", sum/float64(len(types))*100))
		tbl.AddRow(row...)
	}
	n := counts[len(counts)-1]
	u := results[setup.Name][n].ThreadCPU
	claims := []Claim{{"fig11/ranking", "network threads saturate first, RECV then SEND; IO and MAIN idle",
		fmt.Sprintf("at %d NNs RECV %.0f %%, SEND %.0f %%, IO %.0f %%, MAIN %.0f %%; the same order at every count: %v",
			n, u["RECV"]*100, u["SEND"]*100, u["IO"]*100, u["MAIN"]*100, ranked), ranked, ""}}
	return "CPU utilization per NDB thread type, HopsFS-CL (3,3)\n\n" + tbl.Markdown(), claims, nil
}

// Fig12 reports storage layer network and disk utilization.
func Fig12(o ExpOptions) (string, []Claim, error) {
	counts := o.ServerCounts()
	results, err := sweep(o, core.PaperSetups, counts)
	if err != nil {
		return "", nil, err
	}
	sections := []struct {
		header string
		metric func(*Result) string
	}{
		{"(a) Network read per storage node (MB/s)", func(r *Result) string { return fmtMB(r.StorageNetRead) }},
		{"(b) Network write per storage node (MB/s)", func(r *Result) string { return fmtMB(r.StorageNetWrite) }},
		{"(c) Disk read per storage node (MB/s)", func(r *Result) string { return fmtMB(r.StorageDiskRead) }},
		{"(d) Disk write per storage node (MB/s)", func(r *Result) string { return fmtMB(r.StorageDiskWrite) }},
	}
	var b strings.Builder
	for i, sec := range sections {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(renderSweep(results, core.PaperSetups, counts, sec.metric, sec.header))
	}
	return b.String(), nil, nil
}

// Fig13 reports per-metadata-server network utilization (metadata servers
// use no disk in either system, §V-D2).
func Fig13(o ExpOptions) (string, []Claim, error) {
	counts := o.ServerCounts()
	results, err := sweep(o, core.PaperSetups, counts)
	if err != nil {
		return "", nil, err
	}
	a := renderSweep(results, core.PaperSetups, counts, func(r *Result) string {
		return fmtMB(r.ServerNetRead)
	}, "(a) Network read per metadata server (MB/s)")
	b := renderSweep(results, core.PaperSetups, counts, func(r *Result) string {
		return fmtMB(r.ServerNetWrite)
	}, "(b) Network write per metadata server (MB/s)")
	return a + "\n" + b, nil, nil
}

func fmtMB(bytesPerSec float64) string { return fmt.Sprintf("%.1f", bytesPerSec/1e6) }

// Fig14 compares the per-partition replica read split of the inode table
// with Read Backup enabled vs disabled on HopsFS-CL (3,3): with it, reads
// spread over AZ-local replicas; without it, every read hits the primary.
func Fig14(o ExpOptions) (string, []Claim, error) {
	var b strings.Builder
	var on [3]float64          // the enabled half's mean share per replica slot
	var shown, onlyPrimary int // the disabled half's partitions with reads, and those read only at the primary
	for _, disable := range []bool{false, true} {
		opts := pointOptions(o, core.PaperSetups[5], 12)
		opts.DisableReadBackup = disable
		res, err := measure(opts, cfg14(o))
		if err != nil {
			return "", nil, err
		}

		label := "(a) Read Backup ENABLED"
		if disable {
			label = "\n(b) Read Backup DISABLED"
		}
		fmt.Fprintf(&b, "%s — share of reads served per replica slot (first 24 inode partitions)\n\n", label)
		tbl := metrics.NewTable("partition", "primary", "backup1", "backup2")
		slots := res.ReadSlots
		sort.Slice(slots, func(i, j int) bool { return slots[i].Index < slots[j].Index })
		var totals [3]float64
		shown = 0
		for _, pr := range slots {
			if pr.Index >= 24 {
				continue
			}
			var total int64
			for _, c := range pr.Counts {
				total += c
			}
			if total == 0 {
				continue
			}
			row := []string{fmt.Sprintf("%d", pr.Index)}
			for s := 0; s < 3; s++ {
				var c int64
				if s < len(pr.Counts) {
					c = pr.Counts[s]
				}
				frac := float64(c) / float64(total)
				totals[s] += frac
				row = append(row, fmt.Sprintf("%.0f%%", frac*100))
			}
			if disable && pr.Counts[0] == total {
				onlyPrimary++
			}
			tbl.AddRow(row...)
			shown++
		}
		if shown > 0 {
			for s := range totals {
				totals[s] /= float64(shown)
			}
			tbl.AddRow("mean",
				fmt.Sprintf("%.0f%%", totals[0]*100),
				fmt.Sprintf("%.0f%%", totals[1]*100),
				fmt.Sprintf("%.0f%%", totals[2]*100))
		}
		if !disable {
			on = totals
		}
		b.WriteString(tbl.Markdown())
	}
	claims := []Claim{
		{"fig14/local-reads", "with Read Backup the backups serve about half the reads (~50/25/25)",
			fmt.Sprintf("backups serve %.0f %% (%.0f/%.0f/%.0f)", (on[1]+on[2])*100, on[0]*100, on[1]*100, on[2]*100), on[1]+on[2] >= 0.4, ""},
		{"fig14/primary-share", "the primary keeps about half: locked reads must go to it",
			fmt.Sprintf("%.0f %% on the primary", on[0]*100), on[0] >= 0.4 && on[0] <= 0.6,
			"reads and lists take no lock here (DESIGN §9.1): only a mutation's parent read must go to the primary, so the split is even"},
		{"fig14/disabled-primary", "without Read Backup every read hits the primary",
			fmt.Sprintf("%d of %d partitions read only at the primary", onlyPrimary, shown), shown > 0 && onlyPrimary == shown, ""},
	}
	return b.String(), claims, nil
}

func cfg14(o ExpOptions) RunConfig {
	cfg := runConfigFor(o)
	cfg.Window = 150 * time.Millisecond
	return cfg
}

// Failures reproduces §V-F on the chaos engine: an AZ failure, a split
// brain between two AZs, and a metadata-server failure are injected by a
// deterministic schedule while the chaos workload runs against
// HopsFS-CL (3,3). At every step the engine quiesces the workload and
// audits the cross-layer invariants; afterwards nsmodel.Check judges the
// clients' history: with a linearization, no acknowledged write was lost
// across the drills and no read was stale.
func Failures(o ExpOptions) (string, []Claim, error) {
	sched := chaos.Schedule{
		{At: 4 * time.Second, Kind: chaos.FaultFailZone, Zone: 2},
		{At: 10 * time.Second, Kind: chaos.FaultRecoverZone, Zone: 2},
		{At: 16 * time.Second, Kind: chaos.FaultPartition, Zone: 1, ZoneB: 3},
		{At: 21 * time.Second, Kind: chaos.FaultHeal, Zone: 1, ZoneB: 3},
		{At: 25 * time.Second, Kind: chaos.FaultKillNN, Node: 1},
		{At: 28 * time.Second, Kind: chaos.FaultRestartNN, Node: 1},
	}
	rep, err := chaos.RunCampaign(o.Seed, chaos.CampaignOptions{
		Schedule: sched,
		Engine:   chaos.Config{Clients: 6, Duration: 42 * time.Second},
	})
	if err != nil {
		return "", nil, err
	}
	var b strings.Builder
	snaps := rep.Snapshots
	if len(snaps) != len(sched)+2 {
		return "", nil, fmt.Errorf("failures: expected %d snapshots, got %d", len(sched)+2, len(snaps))
	}
	line := func(label, note string, s chaos.Snapshot) {
		fmt.Fprintf(&b, "%-26s%s ops/s  ndb %d/%d  leader nn-%d  (%s)\n",
			label+":", metrics.FormatOps(s.OpsPerSec), s.LiveNDB, s.TotalNDB, s.LeaderID, note)
	}
	line("baseline", "healthy cluster", snaps[0])
	line("zone 2 failed", "backups promoted, clients failed over", snaps[1])
	line("zone 2 recovered", "datanodes rejoined and resynced", snaps[2])
	line("zone1/zone3 partitioned", "arbitrator resolved split brain", snaps[3])
	line("partition healed", "losing side restarted and resynced", snaps[4])
	line("leader NN killed", "lease expired, new leader elected", snaps[5])
	line("NN restarted", "rejoined the leader election", snaps[6])
	line("final", "all drills recovered", snaps[7])
	b.WriteByte('\n')
	b.WriteString(rep.Render())

	recovered := !slices.ContainsFunc(rep.MTTR, func(m chaos.MTTREntry) bool { return !m.Recovered })
	final := snaps[7]
	claims := []Claim{
		{"failures/no-data-loss", "an AZ failure loses no data",
			fmt.Sprintf("%d calls; a linearization: %v", len(rep.History), rep.HistoryErr == nil), rep.HistoryErr == nil, ""},
		{"failures/invariants", "replicas, checkpoints, block spread and leadership stay consistent",
			fmt.Sprintf("%d checkpoints, %d violations", rep.Checkpoints, len(rep.Violations)), len(rep.Violations) == 0, ""},
		{"failures/az-loss", "the surviving AZs serve on: backups promoted, clients failed over",
			fmt.Sprintf("%s ops/s with ndb %d/%d", metrics.FormatOps(snaps[1].OpsPerSec), snaps[1].LiveNDB, snaps[1].TotalNDB),
			snaps[1].OpsPerSec > 0 && snaps[1].LiveNDB < snaps[1].TotalNDB, ""},
		{"failures/split-brain", "the arbitrator resolves a split brain: the losing side shuts down, then rejoins",
			fmt.Sprintf("ndb %d/%d partitioned, %d/%d healed", snaps[3].LiveNDB, snaps[3].TotalNDB, snaps[4].LiveNDB, snaps[4].TotalNDB),
			snaps[3].LiveNDB < snaps[3].TotalNDB && snaps[4].LiveNDB == snaps[4].TotalNDB, ""},
		{"failures/nn-failover", "a leader NN failure is masked by re-election and client failover",
			fmt.Sprintf("leader nn-%d → nn-%d at %s ops/s", snaps[4].LeaderID, snaps[5].LeaderID, metrics.FormatOps(snaps[5].OpsPerSec)),
			snaps[5].LeaderID != 0 && snaps[5].LeaderID != snaps[4].LeaderID && snaps[5].OpsPerSec > 0, ""},
		{"failures/recovery", "every drill recovers",
			fmt.Sprintf("max MTTR %v; final ndb %d/%d at %s ops/s", rep.MaxMTTR().Round(time.Millisecond), final.LiveNDB, final.TotalNDB, metrics.FormatOps(final.OpsPerSec)),
			recovered && rep.MaxMTTR() <= time.Second && final.LiveNDB == final.TotalNDB && final.OpsPerSec > 0, ""},
	}
	return "Section V-F failure drills on the chaos engine, HopsFS-CL (3,3):\n\n" + fence(b.String()), claims, nil
}

// Chaos runs the seeded random-campaign sweep: each seed generates its
// own fault schedule (AZ failures, partitions, datanode crashes, NN
// kills, degraded links) and drives it deterministically — the same seed
// always reproduces the same report bytes. The table summarizes each
// campaign; the first seed's full report follows.
func Chaos(o ExpOptions) (string, []Claim, error) {
	seeds := 10
	if o.Full {
		seeds = 20
	}
	var b strings.Builder
	fmt.Fprintf(&b, "chaos sweep: %d seeded random campaigns on HopsFS-CL (3,3)\n\n", seeds)
	tbl := metrics.NewTable("seed", "faults", "ops", "ok", "refused", "unknown",
		"max MTTR", "unavail", "violations")
	var first *chaos.Report
	var unclean []string
	for i := 0; i < seeds; i++ {
		seed := o.Seed + int64(i)
		rep, err := chaos.RunCampaign(seed, chaos.CampaignOptions{})
		if err != nil {
			return "", nil, err
		}
		if first == nil {
			first = rep
		}
		if !rep.Clean() {
			unclean = append(unclean, fmt.Sprintf("%d", seed))
		}
		degrading := 0
		for _, st := range rep.Schedule {
			if st.Kind.Degrades() {
				degrading++
			}
		}
		tbl.AddRow(fmt.Sprintf("%d", seed),
			fmt.Sprintf("%d", degrading),
			fmt.Sprintf("%d", len(rep.History)),
			fmt.Sprintf("%d", rep.OK),
			fmt.Sprintf("%d", rep.Refused),
			fmt.Sprintf("%d", rep.Unknown),
			fmt.Sprintf("%v", rep.MaxMTTR().Round(time.Millisecond)),
			fmt.Sprintf("%v", rep.TotalUnavailability().Round(time.Millisecond)),
			fmt.Sprintf("%d", len(rep.Violations)))
	}
	b.WriteString(tbl.Markdown())
	b.WriteString("\nfirst campaign in full:\n\n")
	b.WriteString(fence(first.Render()))
	claims := []Claim{{"chaos/clean", "beyond: every seeded fault campaign keeps the invariants and a linearizable history",
		fmt.Sprintf("%d of %d campaigns clean; unclean seeds: %v", seeds-len(unclean), seeds, unclean), len(unclean) == 0, ""}}
	return b.String(), claims, nil
}

// Ablations quantifies the design decisions DESIGN.md calls out, each as a
// paired comparison on HopsFS-CL (3,3):
//
//	(a) the Read Backup table option (AZ-local reads) on vs off,
//	(b) NDB executor batching on vs off at saturation,
//	(c) datanode-replicated blocks vs the §VII cloud object store backend,
//	(e) the batched write path (commit trains) on vs off at 8 rows per txn.
func Ablations(o ExpOptions) (string, []Claim, error) {
	var b strings.Builder
	setup := core.PaperSetups[5] // HopsFS-CL (3,3)

	// (a) Read Backup.
	b.WriteString("(a) Read Backup table option — Spotify workload, 24 servers\n\n")
	tblA := metrics.NewTable("variant", "ops/s", "avg latency", "cross-AZ MB/s")
	var rb [2]*Result // on, off
	for i, disable := range []bool{false, true} {
		opts := pointOptions(o, setup, 24)
		opts.DisableReadBackup = disable
		res, err := measure(opts, runConfigFor(o))
		if err != nil {
			return "", nil, err
		}
		name := "Read Backup ON"
		if disable {
			name = "Read Backup OFF"
		}
		rb[i] = res
		tblA.AddRow(name, metrics.FormatOps(res.Throughput),
			fmtMS(res.AvgLatency), fmtMB(res.CrossZoneRate))
	}
	b.WriteString(tblA.Markdown())

	// (b) Executor batching.
	b.WriteString("\n(b) NDB executor batching — Spotify workload, 48 servers\n\n")
	tblB := metrics.NewTable("variant", "ops/s", "avg latency", "storage CPU")
	var batch [2]float64 // on, off
	for i, batching := range []bool{true, false} {
		opts := pointOptions(o, setup, 48)
		name := "batching ON (floor 0.30)"
		if !batching {
			opts.NDBBatchFloor = 1.0 // no amortization under load
			name = "batching OFF (floor 1.00)"
		}
		res, err := measure(opts, runConfigFor(o))
		if err != nil {
			return "", nil, err
		}
		batch[i] = res.Throughput
		tblB.AddRow(name, metrics.FormatOps(res.Throughput),
			fmtMS(res.AvgLatency), fmt.Sprintf("%.0f%%", res.StorageCPU*100))
	}
	b.WriteString(tblB.Markdown())

	// (c) Block backend.
	b.WriteString("\n(c) Block backend — 256 MB file write + read from zone 1\n\n")
	tblC := metrics.NewTable("backend", "write", "read", "cross-AZ MB")
	var wrote, read [2]time.Duration // DN pipeline, object store
	var crossAZ [2]float64
	for i, object := range []bool{false, true} {
		opts := core.DefaultOptions(setup)
		opts.MetadataServers = 3
		opts.ClientsPerServer = 0
		opts.WithBlockLayer = true
		opts.ObjectStoreBlocks = object
		opts.Namespace = workload.NamespaceSpec{}
		opts.Seed = o.Seed
		d, err := core.Build(opts)
		if err != nil {
			return "", nil, err
		}
		cl := d.NS.NewClient(1, 9001, 1)
		base := d.Net.CrossZoneBytes()
		done := false
		d.Env.Spawn("io", func(p *sim.Proc) {
			t0 := p.Now()
			if err := cl.WriteFile(p, "/big", 256<<20); err != nil {
				return
			}
			p.Flush()
			t1 := p.Now()
			if _, err := cl.ReadFile(p, "/big"); err != nil {
				return
			}
			p.Flush()
			wrote[i], read[i] = t1-t0, p.Now()-t1
			done = true
		})
		d.Env.RunFor(2 * time.Minute)
		crossAZ[i] = float64(d.Net.CrossZoneBytes()-base) / 1e6
		d.Close()
		if !done {
			return "", nil, fmt.Errorf("block I/O did not complete")
		}
		name := "DN pipeline (RF 3)"
		if object {
			name = "cloud object store"
		}
		tblC.AddRow(name, fmtMS(wrote[i]), fmtMS(read[i]), fmt.Sprintf("%.0f", crossAZ[i]))
	}
	b.WriteString(tblC.Markdown())

	// (e) Batched write path.
	b.WriteString("\n(e) Batched write path — 8-row write transaction, raw NDB, 3 AZs, RF 3\n\n")
	tblE := metrics.NewTable("variant", "mean", "signals/txn", "trains/txn")
	var mean [2]time.Duration // batched, serial
	var signals [2]float64
	for i, serial := range []bool{false, true} {
		m, sig, trains, _, err := writeFanPoint(o, 8, serial)
		if err != nil {
			return "", nil, err
		}
		mean[i], signals[i] = m, sig
		name := "batched writes ON (commit trains)"
		if serial {
			name = "batched writes OFF (per-row chains)"
		}
		tblE.AddRow(name, fmtMS(mean[i]), fmt.Sprintf("%.1f", signals[i]), fmt.Sprintf("%.1f", trains))
	}
	b.WriteString(tblE.Markdown())
	claims := []Claim{
		{"ablations/read-backup", "Read Backup's AZ-local reads raise throughput and cut cross-AZ traffic (§IV-A3, §V-E)",
			fmt.Sprintf("%s vs %s ops/s, %s vs %s MB/s cross-AZ", metrics.FormatOps(rb[0].Throughput), metrics.FormatOps(rb[1].Throughput),
				fmtMB(rb[0].CrossZoneRate), fmtMB(rb[1].CrossZoneRate)),
			rb[0].Throughput > rb[1].Throughput && rb[0].CrossZoneRate < rb[1].CrossZoneRate, ""},
		{"ablations/batching", "executor batching lets throughput grow past the CPU plateau (§V-D1)",
			fmt.Sprintf("%s vs %s ops/s", metrics.FormatOps(batch[0]), metrics.FormatOps(batch[1])), batch[0] > batch[1], ""},
		{"ablations/object-store", "beyond (§VII): blocks in a cloud object store cost no more time or cross-AZ bytes",
			fmt.Sprintf("write %s vs %s, read %s vs %s, %.0f vs %.0f MB cross-AZ", fmtMS(wrote[1]), fmtMS(wrote[0]), fmtMS(read[1]), fmtMS(read[0]), crossAZ[1], crossAZ[0]),
			wrote[1] <= wrote[0] && read[1] <= read[0] && crossAZ[1] <= crossAZ[0], ""},
		{"ablations/batched-writes", "beyond: commit trains cut an 8-row transaction's signals and latency",
			fmt.Sprintf("%s vs %s, %.1f vs %.1f signals", fmtMS(mean[0]), fmtMS(mean[1]), signals[0], signals[1]),
			mean[0] < mean[1] && signals[0] < signals[1], ""},
	}
	return b.String(), claims, nil
}

// RenderPhaseTable formats the transaction-phase breakdown of a registry
// snapshot (or window diff): count, mean and max time spent in lock waits
// and in each linear-2PC phase.
func RenderPhaseTable(samples []trace.Sample) string {
	rows := []struct{ label, name string }{
		{"lock_wait", "txn.lock_wait"},
		{"prepare", "txn.phase.prepare"},
		{"commit", "txn.phase.commit"},
		{"complete", "txn.phase.complete"},
	}
	tbl := metrics.NewTable("phase", "count", "mean", "max")
	for _, r := range rows {
		count, _ := trace.Lookup(samples, r.name+".count")
		sum, _ := trace.Lookup(samples, r.name+".sum_ns")
		maxNS, _ := trace.Lookup(samples, r.name+".max_ns")
		mean := time.Duration(0)
		if count > 0 {
			mean = time.Duration(sum / count)
		}
		tbl.AddRow(r.label, fmt.Sprintf("%.0f", count), fmtMS(mean), fmtMS(time.Duration(maxNS)))
	}
	if acq, ok := trace.Lookup(samples, "txn.lock.acquisitions"); ok && acq > 0 {
		waits, _ := trace.Lookup(samples, "txn.lock_wait.count")
		return tbl.String() + fmt.Sprintf("lock acquisitions: %.0f (%.1f%% contended)\n",
			acq, waits/acq*100)
	}
	return tbl.String()
}

// RenderCrossAZTable formats cross-AZ network bytes attributed to each
// operation type. Bytes recorded outside any client span (elections,
// heartbeats, failure detection, replication housekeeping) show up as the
// "unattributed" row, so columns always reconcile with the global counter.
func RenderCrossAZTable(samples []trace.Sample) string {
	tbl := metrics.NewTable("operation", "ops", "cross-AZ bytes", "bytes/op")
	var attributed float64
	for _, pr := range nsmodel.Promises {
		ops, _ := trace.Lookup(samples, "op."+pr.Op+".latency.count")
		bytes, _ := trace.Lookup(samples, trace.Name("op."+pr.Op+".net.bytes", "class", "cross_az"))
		if ops == 0 && bytes == 0 {
			continue
		}
		attributed += bytes
		perOp := "-"
		if ops > 0 {
			perOp = fmt.Sprintf("%.0f", bytes/ops)
		}
		tbl.AddRow(pr.Op, fmt.Sprintf("%.0f", ops), fmt.Sprintf("%.0f", bytes), perOp)
	}
	total, _ := trace.Lookup(samples, trace.Name("net.bytes", "class", "cross_az"))
	if rest := total - attributed; rest > 0.5 {
		tbl.AddRow("unattributed", "-", fmt.Sprintf("%.0f", rest), "-")
	}
	tbl.AddRow("total", "-", fmt.Sprintf("%.0f", total), "-")
	return tbl.String()
}

// Phases drills into the cluster-wide trace registry on HopsFS (3,3) vs
// HopsFS-CL (3,3): time spent per linear-2PC phase and in lock waits, and
// cross-AZ network bytes attributed to each operation type — the per-op
// decomposition behind §V-E's aggregate cross-AZ rates.
func Phases(o ExpOptions) (string, []Claim, error) {
	setups := []core.Setup{core.PaperSetups[3], core.PaperSetups[5]}
	var b strings.Builder
	for i, setup := range setups {
		res, err := measure(pointOptions(o, setup, 12), runConfigFor(o))
		if err != nil {
			return "", nil, err
		}
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%s — 12 metadata servers, Spotify workload, %s window\n",
			setup.Name, res.Window)
		fmt.Fprintf(&b, "\ntransaction phase latency:\n\n%s", fence(RenderPhaseTable(res.Registry)))
		fmt.Fprintf(&b, "\ncross-AZ bytes per operation type:\n\n%s", fence(RenderCrossAZTable(res.Registry)))
	}
	return b.String(), nil, nil
}
