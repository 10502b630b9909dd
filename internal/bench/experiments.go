package bench

import (
	"fmt"
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

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(o ExpOptions) (string, error)
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
	return header + "\n" + tbl.String()
}

// Table1 measures the RTT matrix between hosts in each AZ pair by actually
// pinging across the simulated network, the reproduction of the paper's GCE
// measurements.
func Table1(o ExpOptions) (string, error) {
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
			row = append(row, fmt.Sprintf("%.3f", float64(rtt[i][j])/float64(time.Millisecond)))
		}
		tbl.AddRow(row...)
	}
	paper := "paper (Table I): a-a 0.247  a-b 0.360  a-c 0.372  b-b 0.251  b-c 0.399  c-c 0.249"
	return "Measured RTT between VMs in different AZs of us-west1 (ms)\n" + tbl.String() + paper + "\n", nil
}

// Table2 reports the NDB thread configuration of a live datanode.
func Table2(o ExpOptions) (string, error) {
	d, err := core.Build(core.DefaultOptions(core.PaperSetups[5])) // HopsFS-CL (3,3)
	if err != nil {
		return "", err
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
	return fmt.Sprintf("NDB CPU configuration per datanode (%d CPUs locked)\n%s", total, tbl.String()), nil
}

// Fig5 is the headline throughput sweep over all nine setups.
func Fig5(o ExpOptions) (string, error) {
	counts := o.ServerCounts()
	results, err := sweep(o, core.PaperSetups, counts)
	if err != nil {
		return "", err
	}
	return renderSweep(results, core.PaperSetups, counts, func(r *Result) string {
		return metrics.FormatOps(r.Throughput)
	}, "Throughput (ops/s) for the Spotify workload"), nil
}

// Fig6 reports requests actually handled per metadata server (log2 axis in
// the paper); kernel-cache hits never reach a CephFS MDS.
func Fig6(o ExpOptions) (string, error) {
	setups := []core.Setup{
		core.PaperSetups[4], core.PaperSetups[5], // HopsFS-CL (2,3), (3,3)
		core.PaperSetups[6], core.PaperSetups[7], core.PaperSetups[8],
	}
	counts := o.ServerCounts()
	results, err := sweep(o, setups, counts)
	if err != nil {
		return "", err
	}
	return renderSweep(results, setups, counts, func(r *Result) string {
		return fmt.Sprintf("%.0f", r.ServerRequestRate)
	}, "Requests handled per metadata server per second"), nil
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
	return tbl.String()
}

// Fig7 runs the four micro-benchmarks at the largest server count.
func Fig7(o ExpOptions) (string, error) {
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
				return "", err
			}
			row = append(row, metrics.FormatOps(res.Throughput))
			labels = append(labels, setup.Name)
			reps = append(reps, res.Profile)
		}
		tbl.AddRow(row...)
		fmt.Fprintf(&attribution, "\n%s — critical-path share of end-to-end time:\n%s",
			op, renderAttribution(labels, reps))
	}
	return fmt.Sprintf("Micro-operation throughput (ops/s) with %d metadata servers\n%s\nwhere the time went, per AZ configuration:\n%s",
		servers, tbl.String(), attribution.String()), nil
}

// Fig8 reports average end-to-end latency across the sweep.
func Fig8(o ExpOptions) (string, error) {
	counts := o.ServerCounts()
	results, err := sweep(o, core.PaperSetups, counts)
	if err != nil {
		return "", err
	}
	return renderSweep(results, core.PaperSetups, counts, func(r *Result) string {
		return fmt.Sprintf("%.2fms", float64(r.AvgLatency)/float64(time.Millisecond))
	}, "Average end-to-end operation latency (Spotify workload)"), nil
}

// Fig9 reports latency percentiles for create/read/delete on an unloaded
// cluster (~50% of full throughput, approximated by a quarter of the
// closed-loop clients) at the largest server count.
func Fig9(o ExpOptions) (string, error) {
	servers := o.MicroServers()
	ops := []workload.Op{workload.OpCreate, workload.OpRead, workload.OpDelete}
	var b strings.Builder
	fmt.Fprintf(&b, "Latency percentiles at ~50%% load, %d metadata servers\n", servers)
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
				return "", err
			}
			tbl.AddRow(setup.Name, fmtMS(res.P50), fmtMS(res.P90), fmtMS(res.P99))
			labels = append(labels, setup.Name)
			reps = append(reps, res.Profile)
		}
		fmt.Fprintf(&b, "\n%s:\n%s", op, tbl.String())
		fmt.Fprintf(&b, "where the time went (critical-path share of end-to-end time):\n%s",
			renderAttribution(labels, reps))
	}
	return b.String(), nil
}

func fmtMS(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
}

// Fig10 reports mean CPU utilization of storage nodes and metadata servers.
func Fig10(o ExpOptions) (string, error) {
	counts := o.ServerCounts()
	results, err := sweep(o, core.PaperSetups, counts)
	if err != nil {
		return "", err
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
	return a + "\n" + b, nil
}

// Fig11 reports CPU utilization per NDB thread type for HopsFS-CL (3,3).
func Fig11(o ExpOptions) (string, error) {
	setup := core.PaperSetups[5]
	counts := o.ServerCounts()
	types := []string{"MAIN", "REP", "SEND", "TC", "IO", "RECV", "LDM"}
	cols := append([]string{"servers"}, types...)
	cols = append(cols, "Average")
	tbl := metrics.NewTable(cols...)
	for _, n := range counts {
		res, err := measure(pointOptions(o, setup, n), runConfigFor(o))
		if err != nil {
			return "", err
		}
		row := []string{fmt.Sprintf("%d", n)}
		var sum float64
		for _, ty := range types {
			u := res.ThreadCPU[ty]
			sum += u
			row = append(row, fmt.Sprintf("%.0f%%", u*100))
		}
		row = append(row, fmt.Sprintf("%.0f%%", sum/float64(len(types))*100))
		tbl.AddRow(row...)
	}
	return "CPU utilization per NDB thread type, HopsFS-CL (3,3)\n" + tbl.String(), nil
}

// Fig12 reports storage layer network and disk utilization.
func Fig12(o ExpOptions) (string, error) {
	counts := o.ServerCounts()
	results, err := sweep(o, core.PaperSetups, counts)
	if err != nil {
		return "", err
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
	for _, sec := range sections {
		b.WriteString(renderSweep(results, core.PaperSetups, counts, sec.metric, sec.header))
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// Fig13 reports per-metadata-server network utilization (metadata servers
// use no disk in either system, §V-D2).
func Fig13(o ExpOptions) (string, error) {
	counts := o.ServerCounts()
	results, err := sweep(o, core.PaperSetups, counts)
	if err != nil {
		return "", err
	}
	a := renderSweep(results, core.PaperSetups, counts, func(r *Result) string {
		return fmtMB(r.ServerNetRead)
	}, "(a) Network read per metadata server (MB/s)")
	b := renderSweep(results, core.PaperSetups, counts, func(r *Result) string {
		return fmtMB(r.ServerNetWrite)
	}, "(b) Network write per metadata server (MB/s)")
	return a + "\n" + b, nil
}

func fmtMB(bytesPerSec float64) string { return fmt.Sprintf("%.1f", bytesPerSec/1e6) }

// Fig14 compares the per-partition replica read split of the inode table
// with Read Backup enabled vs disabled on HopsFS-CL (3,3): with it, reads
// spread over AZ-local replicas; without it, every read hits the primary.
func Fig14(o ExpOptions) (string, error) {
	var b strings.Builder
	for _, disable := range []bool{false, true} {
		opts := pointOptions(o, core.PaperSetups[5], 12)
		opts.DisableReadBackup = disable
		res, err := measure(opts, cfg14(o))
		if err != nil {
			return "", err
		}

		label := "(a) Read Backup ENABLED"
		if disable {
			label = "(b) Read Backup DISABLED"
		}
		fmt.Fprintf(&b, "%s — share of reads served per replica slot (first 24 inode partitions)\n", label)
		tbl := metrics.NewTable("partition", "primary", "backup1", "backup2")
		slots := res.ReadSlots
		sort.Slice(slots, func(i, j int) bool { return slots[i].Index < slots[j].Index })
		var totals [3]float64
		shown := 0
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
			tbl.AddRow(row...)
			shown++
		}
		if shown > 0 {
			tbl.AddRow("mean",
				fmt.Sprintf("%.0f%%", totals[0]/float64(shown)*100),
				fmt.Sprintf("%.0f%%", totals[1]/float64(shown)*100),
				fmt.Sprintf("%.0f%%", totals[2]/float64(shown)*100))
		}
		b.WriteString(tbl.String())
		b.WriteByte('\n')
	}
	b.WriteString("paper: with Read Backup reads split ~50/25/25 (locked reads stay on the primary);\n" +
		"without it 100% of reads hit the primary replica.\n")
	return b.String(), nil
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
func Failures(o ExpOptions) (string, error) {
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
		return "", err
	}
	var b strings.Builder
	b.WriteString("Section V-F failure drills on the chaos engine, HopsFS-CL (3,3):\n")
	snaps := rep.Snapshots
	if len(snaps) != len(sched)+2 {
		return "", fmt.Errorf("failures: expected %d snapshots, got %d", len(sched)+2, len(snaps))
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

	fmt.Fprintf(&b, "invariant checkpoints:    %d, violations: %d\n",
		rep.Checkpoints, len(rep.Violations))
	verdict := "linearizable: no acknowledged write lost (paper: AZ loss costs no data)"
	if rep.HistoryErr != nil {
		verdict = "NOT LINEARIZABLE"
	}
	fmt.Fprintf(&b, "history:                  %d calls, %s\n", len(rep.History), verdict)
	b.WriteByte('\n')
	b.WriteString(rep.Render())
	return b.String(), nil
}

// Chaos runs the seeded random-campaign sweep: each seed generates its
// own fault schedule (AZ failures, partitions, datanode crashes, NN
// kills, degraded links) and drives it deterministically — the same seed
// always reproduces the same report bytes. The table summarizes each
// campaign; the first seed's full report follows.
func Chaos(o ExpOptions) (string, error) {
	seeds := 10
	if o.Full {
		seeds = 20
	}
	var b strings.Builder
	fmt.Fprintf(&b, "chaos sweep: %d seeded random campaigns on HopsFS-CL (3,3)\n", seeds)
	tbl := metrics.NewTable("seed", "faults", "ops", "ok", "refused", "unknown",
		"max MTTR", "unavail", "violations", "history")
	var first *chaos.Report
	clean := 0
	for i := 0; i < seeds; i++ {
		seed := o.Seed + int64(i)
		rep, err := chaos.RunCampaign(seed, chaos.CampaignOptions{})
		if err != nil {
			return "", err
		}
		if first == nil {
			first = rep
		}
		if rep.Clean() {
			clean++
		}
		history := "linearizable"
		if rep.HistoryErr != nil {
			history = "NOT LINEARIZABLE"
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
			fmt.Sprintf("%d", len(rep.Violations)),
			history)
	}
	b.WriteString(tbl.String())
	fmt.Fprintf(&b, "clean campaigns: %d/%d (zero invariant violations, a linearizable history)\n\n", clean, seeds)
	b.WriteString("first campaign in full:\n")
	b.WriteString(first.Render())
	return b.String(), nil
}

// Ablations quantifies the design decisions DESIGN.md calls out, each as a
// paired comparison on HopsFS-CL (3,3):
//
//	(a) the Read Backup table option (AZ-local reads) on vs off,
//	(b) NDB executor batching on vs off at saturation,
//	(c) datanode-replicated blocks vs the §VII cloud object store backend,
//	(e) the batched write path (commit trains) on vs off at 8 rows per txn.
func Ablations(o ExpOptions) (string, error) {
	var b strings.Builder
	setup := core.PaperSetups[5] // HopsFS-CL (3,3)

	// (a) Read Backup.
	b.WriteString("(a) Read Backup table option — Spotify workload, 24 servers\n")
	tblA := metrics.NewTable("variant", "ops/s", "avg latency", "cross-AZ MB/s")
	for _, disable := range []bool{false, true} {
		opts := pointOptions(o, setup, 24)
		opts.DisableReadBackup = disable
		res, err := measure(opts, runConfigFor(o))
		if err != nil {
			return "", err
		}
		name := "Read Backup ON"
		if disable {
			name = "Read Backup OFF"
		}
		tblA.AddRow(name, metrics.FormatOps(res.Throughput),
			fmtMS(res.AvgLatency), fmtMB(res.CrossZoneRate))
	}
	b.WriteString(tblA.String())

	// (b) Executor batching.
	b.WriteString("\n(b) NDB executor batching — Spotify workload, 48 servers\n")
	tblB := metrics.NewTable("variant", "ops/s", "avg latency", "storage CPU")
	for _, batching := range []bool{true, false} {
		opts := pointOptions(o, setup, 48)
		name := "batching ON (floor 0.30)"
		if !batching {
			opts.NDBBatchFloor = 1.0 // no amortization under load
			name = "batching OFF (floor 1.00)"
		}
		res, err := measure(opts, runConfigFor(o))
		if err != nil {
			return "", err
		}
		tblB.AddRow(name, metrics.FormatOps(res.Throughput),
			fmtMS(res.AvgLatency), fmt.Sprintf("%.0f%%", res.StorageCPU*100))
	}
	b.WriteString(tblB.String())

	// (c) Block backend.
	b.WriteString("\n(c) Block backend — 256 MB file write + read from zone 1\n")
	tblC := metrics.NewTable("backend", "write", "read", "cross-AZ MB")
	for _, object := range []bool{false, true} {
		opts := core.DefaultOptions(setup)
		opts.MetadataServers = 3
		opts.ClientsPerServer = 0
		opts.WithBlockLayer = true
		opts.ObjectStoreBlocks = object
		opts.Namespace = workload.NamespaceSpec{}
		opts.Seed = o.Seed
		d, err := core.Build(opts)
		if err != nil {
			return "", err
		}
		cl := d.NS.NewClient(1, 9001, 1)
		var wrote, read time.Duration
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
			wrote, read = t1-t0, p.Now()-t1
			done = true
		})
		d.Env.RunFor(2 * time.Minute)
		crossAZ := float64(d.Net.CrossZoneBytes()-base) / 1e6
		d.Close()
		if !done {
			return "", fmt.Errorf("block I/O did not complete")
		}
		name := "DN pipeline (RF 3)"
		if object {
			name = "cloud object store"
		}
		tblC.AddRow(name, fmtMS(wrote), fmtMS(read), fmt.Sprintf("%.0f", crossAZ))
	}
	b.WriteString(tblC.String())

	// (e) Batched write path.
	b.WriteString("\n(e) Batched write path — 8-row write transaction, raw NDB, 3 AZs, RF 3\n")
	tblE := metrics.NewTable("variant", "mean", "signals/txn", "trains/txn")
	for _, serial := range []bool{false, true} {
		mean, signals, trains, _, err := writeFanPoint(o, 8, serial)
		if err != nil {
			return "", err
		}
		name := "batched writes ON (commit trains)"
		if serial {
			name = "batched writes OFF (per-row chains)"
		}
		tblE.AddRow(name, fmtMS(mean), fmt.Sprintf("%.1f", signals), fmt.Sprintf("%.1f", trains))
	}
	b.WriteString(tblE.String())
	return b.String(), nil
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
func Phases(o ExpOptions) (string, error) {
	setups := []core.Setup{core.PaperSetups[3], core.PaperSetups[5]}
	var b strings.Builder
	for i, setup := range setups {
		res, err := measure(pointOptions(o, setup, 12), runConfigFor(o))
		if err != nil {
			return "", err
		}
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%s — 12 metadata servers, Spotify workload, %s window\n",
			setup.Name, res.Window)
		fmt.Fprintf(&b, "\ntransaction phase latency:\n%s", RenderPhaseTable(res.Registry))
		fmt.Fprintf(&b, "\ncross-AZ bytes per operation type:\n%s", RenderCrossAZTable(res.Registry))
	}
	return b.String(), nil
}
