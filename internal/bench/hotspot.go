package bench

import (
	"fmt"
	"strings"
	"time"

	"hopsfscl/internal/core"
	"hopsfscl/internal/metrics"
	"hopsfscl/internal/profile"
	"hopsfscl/internal/slo"
	"hopsfscl/internal/trace"
)

// hotspotHomeDirs is how many of the namespace's leaf datasets get
// planted as every client's home set (see Hotspot).
const hotspotHomeDirs = 2

// Hotspot drives a deliberately skewed workload — every client shares the
// same two planted home datasets at high affinity — and demonstrates the
// heat-and-exemplar observability layer end to end: the Space-Saving
// sketches must rank the planted subtrees first at every depth, every op
// class whose window p99 breached its objective must have a pinned
// exemplar (both are its claims), and the slowest exemplar's span tree
// renders through the critical-path profiler. The whole run is virtual-time
// deterministic: the same seed reproduces the same report bytes.
func Hotspot(o ExpOptions) (string, []Claim, error) {
	setup := core.PaperSetups[5] // HopsFS-CL (3,3)
	servers := 3
	clients := o.ClientsPerServer
	if clients <= 0 {
		clients = 32
	}

	opts := core.DefaultOptions(setup)
	opts.MetadataServers = servers
	opts.ClientsPerServer = clients
	opts.Seed = o.Seed
	d, err := core.Build(opts)
	if err != nil {
		return "", nil, err
	}
	defer d.Close()

	// Plant the hot set: the first client's default datasets become every
	// client's home directories. Both live under the same project root, so
	// the depth-1 subtree is unambiguous.
	planted := d.Namespace.HomeDirsFor(0, hotspotHomeDirs)
	if len(planted) == 0 {
		return "", nil, fmt.Errorf("hotspot: namespace has no leaf datasets to plant")
	}
	plantedTop := topDirOf(planted[0])

	cfg := DefaultRunConfig()
	cfg.Seed = o.Seed
	cfg.Affinity = 0.9
	cfg.HomeDirs = planted
	cfg.Heat = true
	cfg.Profile = true // a ring that holds the whole window, not the default
	// Tighten the latency objectives well below healthy cross-AZ operation:
	// the point of this experiment is inducing p99 breaches so the exemplar
	// store has outliers to pin, not passing the SLO.
	spec := slo.DefaultSpec()
	spec.Latency = []slo.LatencyObjective{
		{Op: "stat", Quantile: 0.99, Target: 1200 * time.Microsecond},
		{Op: "read", Quantile: 0.99, Target: 1500 * time.Microsecond},
		{Op: "list", Quantile: 0.99, Target: 2 * time.Millisecond},
		{Op: "*", Quantile: 0.99, Target: 3 * time.Millisecond},
	}
	cfg.SLO = &spec
	// A short exemplar window yields a window-slowest exemplar per ~25ms
	// of virtual time instead of one for the whole run.
	cfg.Exemplars = &slo.ExemplarConfig{Window: 25 * time.Millisecond}
	if o.Full {
		cfg.Window = 300 * time.Millisecond
	}

	res := Run(d, cfg)

	var b strings.Builder
	fmt.Fprintf(&b, "hotspot: skewed workload on %s, %d servers x %d clients, seed %d\n",
		setup.Name, servers, clients, o.Seed)
	fmt.Fprintf(&b, "planted hot datasets (affinity %.0f%% for every client): %s\n\n",
		cfg.Affinity*100, strings.Join(planted, ", "))

	// 1. Heat ranking.
	b.WriteString(fence(res.Heat.Render()))

	// 2. Per-op-class p99-breach exemplar coverage.
	coverage, breaching, covered := breachCoverage(res)
	b.WriteString("\np99-breach exemplar coverage:\n\n" + coverage)

	// 3. The pinned exemplar set, plus the slowest exemplar rendered
	// through the critical-path profiler.
	b.WriteByte('\n')
	b.WriteString(fence(res.Exemplars.Render()))
	if ex := slowestExemplar(res.Exemplars); ex != nil {
		fmt.Fprintf(&b, "\nwhere the time went in the slowest exemplar (op %s, %v, span %d):\n\n",
			ex.Op, ex.Latency, ex.Root.ID)
		b.WriteString(fence(profile.Analyze([]*trace.Span{ex.Root}).Table()))
	}

	// The namespace's own popularity skew may rank the planted datasets
	// first too, but not with most of the depth-2 touches.
	topRank, topRow := res.Heat.Rank("subtree depth 1", plantedTop)
	var ranks []string
	ranked, share := true, 0.0
	for _, dir := range planted {
		rank, row := res.Heat.Rank("subtree depth 2", dir)
		ranked, share = ranked && rank >= 1 && rank <= len(planted), share+row.Share
		ranks = append(ranks, fmt.Sprintf("%s #%d (%.1f %%)", dir, rank, row.Share*100))
	}
	claims := []Claim{
		{"hotspot/top-rank", "beyond: the planted project root ranks first at depth 1",
			fmt.Sprintf("%s #%d (%.1f %%)", plantedTop, topRank, topRow.Share*100), topRank == 1, ""},
		{"hotspot/dataset-ranks", "beyond: the planted datasets fill the top ranks at depth 2 with most touches",
			strings.Join(ranks, ", "), ranked && share >= 0.5, ""},
		{"hotspot/exemplars", "beyond: every op class whose p99 breached its objective pins a breach exemplar",
			fmt.Sprintf("%d of %d breaching classes; %d exemplars pinned, %d spans dropped", covered, breaching, res.Exemplars.Pinned, res.SinkDropped),
			covered == breaching && res.Exemplars.Pinned > 0 && res.SinkDropped == 0, ""},
	}
	return b.String(), claims, nil
}

// topDirOf returns the first path component ("/proj000/ds01" -> "/proj000").
func topDirOf(path string) string {
	if len(path) < 2 || path[0] != '/' {
		return path
	}
	if i := strings.IndexByte(path[1:], '/'); i >= 0 {
		return path[:i+1]
	}
	return path
}

// breachCoverage tabulates every op class whose measured window p99
// exceeded its latency objective with the breach exemplars pinned for it,
// and counts the breaching classes and those with at least one.
func breachCoverage(res *Result) (table string, breaching, covered int) {
	spec := res.SLOReport.Spec
	targets := make(map[string]time.Duration)
	var fallback time.Duration
	for _, lo := range spec.Latency {
		if lo.Op == "*" {
			fallback = lo.Target
		} else {
			targets[lo.Op] = lo.Target
		}
	}
	tbl := metrics.NewTable("op", "p99", "target", "breach exemplars")
	for _, opr := range res.SLOReport.Ops {
		target, ok := targets[opr.Op]
		if !ok {
			target = fallback
		}
		if target <= 0 {
			continue
		}
		p99 := opr.Summary.Percentile(0.99)
		if p99 <= target {
			continue
		}
		breaching++
		pinned := 0
		if c := res.Exemplars.Class(opr.Op); c != nil {
			for _, ex := range c.Exemplars {
				if ex.Reason&slo.ReasonBreach != 0 {
					pinned++
				}
			}
		}
		if pinned > 0 {
			covered++
		}
		tbl.AddRow(opr.Op, p99.String(), target.String(), fmt.Sprintf("%d", pinned))
	}
	return tbl.Markdown(), breaching, covered
}

// slowestExemplar returns the highest-latency pinned exemplar.
func slowestExemplar(rep *slo.ExemplarReport) *slo.Exemplar {
	if rep == nil {
		return nil
	}
	var best *slo.Exemplar
	for _, c := range rep.Classes {
		for _, ex := range c.Exemplars {
			if best == nil || ex.Latency > best.Latency ||
				(ex.Latency == best.Latency && ex.Root.ID < best.Root.ID) {
				best = ex
			}
		}
	}
	return best
}
