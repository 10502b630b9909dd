package bench

import (
	"fmt"
	"strings"
	"time"

	"hopsfscl/internal/core"
	"hopsfscl/internal/heat"
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
// exemplar, and the slowest exemplar's span tree renders through the
// critical-path profiler. The whole run is virtual-time deterministic: the
// same seed reproduces the same report bytes.
func Hotspot(o ExpOptions) (string, error) {
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
		return "", err
	}
	defer d.Close()

	// Plant the hot set: the first client's default datasets become every
	// client's home directories. Both live under the same project root, so
	// the depth-1 subtree is unambiguous.
	planted := d.Namespace.HomeDirsFor(0, hotspotHomeDirs)
	if len(planted) == 0 {
		return "", fmt.Errorf("hotspot: namespace has no leaf datasets to plant")
	}
	plantedTop := topDirOf(planted[0])

	cfg := DefaultRunConfig()
	cfg.Seed = o.Seed
	cfg.Affinity = 0.9
	cfg.HomeDirs = planted
	cfg.Heat = &heat.Config{}
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

	// 1. Heat ranking, with explicit planted-subtree assertions.
	b.WriteString(res.Heat.Render())
	b.WriteByte('\n')
	b.WriteString(renderPlantedRanks(res.Heat, plantedTop, planted))

	// 2. Per-op-class p99-breach exemplar coverage.
	b.WriteByte('\n')
	b.WriteString(renderBreachCoverage(res))

	// 3. The pinned exemplar set, plus the slowest exemplar rendered
	// through the critical-path profiler.
	b.WriteByte('\n')
	b.WriteString(res.Exemplars.Render())
	if ex := slowestExemplar(res.Exemplars); ex != nil {
		fmt.Fprintf(&b, "\nwhere the time went in the slowest exemplar (op %s, %v, span %d):\n",
			ex.Op, ex.Latency, ex.Root.ID)
		b.WriteString(profile.Analyze([]*trace.Span{ex.Root}).Table())
	}

	// 4. Span-loss accounting: exemplar claims are only trustworthy when
	// no spans were silently evicted.
	if res.SinkDropped > 0 {
		fmt.Fprintf(&b, "\nWARNING: %d spans dropped from the profiling sink; exemplars cover a suffix of the window\n",
			res.SinkDropped)
	} else {
		b.WriteString("\nsink dropped: 0 (exemplars saw every operation in the window)\n")
	}
	return b.String(), nil
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

// renderPlantedRanks checks the planted subtrees against the heat report:
// the shared project root must rank first at depth 1 and the planted
// datasets must fill the top ranks at depth 2.
func renderPlantedRanks(rep *heat.Report, top string, planted []string) string {
	var b strings.Builder
	b.WriteString("planted-subtree ranking check:\n")
	check := func(family, key string, wantWithin int) {
		rank, row := rep.Rank(family, key)
		verdict := "FAIL"
		if rank >= 1 && rank <= wantWithin {
			verdict = "OK"
		}
		fmt.Fprintf(&b, "  %s %q: rank %d (share %.1f%%, want <=%d) %s\n",
			family, key, rank, row.Share*100, wantWithin, verdict)
	}
	check("subtree depth 1", top, 1)
	for _, dir := range planted {
		check("subtree depth 2", dir, len(planted))
	}
	return b.String()
}

// renderBreachCoverage lists every op class whose measured window p99
// exceeded its latency objective and whether a breach exemplar was pinned
// for it — the acceptance criterion that no breaching class goes dark.
func renderBreachCoverage(res *Result) string {
	var b strings.Builder
	b.WriteString("p99-breach exemplar coverage:\n")
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
	breaching := 0
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
		covered := false
		if c := res.Exemplars.Class(opr.Op); c != nil {
			for _, ex := range c.Exemplars {
				if ex.Reason&slo.ReasonBreach != 0 {
					covered = true
					break
				}
			}
		}
		verdict := "MISSING"
		if covered {
			verdict = "pinned"
		}
		fmt.Fprintf(&b, "  op %-8s p99 %v > target %v: breach exemplar %s\n",
			opr.Op, p99, target, verdict)
	}
	if breaching == 0 {
		b.WriteString("  (no op class breached its p99 objective in this window)\n")
	}
	return b.String()
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
