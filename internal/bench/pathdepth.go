package bench

import (
	"fmt"
	"strings"
	"time"

	"hopsfscl/internal/core"
	"hopsfscl/internal/metrics"
	"hopsfscl/internal/profile"
	"hopsfscl/internal/sim"
	"hopsfscl/internal/workload"
)

// pathStatLatency measures stat latency at a given path depth on a minimal
// HopsFS-CL (3,3) deployment, with batched path resolution either enabled
// or disabled (the serial per-component walk). The hint cache is warmed
// first, so the batched variant measures the optimistic fast path the way
// a steady-state server sees it. The returned report attributes the
// measured stats' critical path (the span ring is sized to retain exactly
// the measured operations, evicting setup and warm-up spans).
func pathStatLatency(o ExpOptions, depth int, disableBatched bool) (mean, p99 time.Duration, rep *profile.Report, err error) {
	opts := core.DefaultOptions(core.PaperSetups[5]) // HopsFS-CL (3,3)
	opts.MetadataServers = 3
	opts.ClientsPerServer = 0
	opts.Namespace = workload.NamespaceSpec{}
	opts.Seed = o.Seed
	opts.DisableBatchedResolve = disableBatched
	d, err := core.Build(opts)
	if err != nil {
		return 0, 0, nil, err
	}
	defer d.Close()

	parts := make([]string, depth)
	for i := range parts {
		parts[i] = fmt.Sprintf("d%d", i)
	}
	dir := "/" + strings.Join(parts, "/")
	target := dir + "/f"

	const warmStats = 16
	const measuredStats = 200
	var hist metrics.Histogram
	sink := d.EnableTracing(measuredStats)
	cl := d.NS.NewClient(1, 9001, 1)
	done := false
	d.Env.Spawn("pathdepth", func(p *sim.Proc) {
		if err := cl.MkdirAll(p, dir); err != nil {
			return
		}
		if err := cl.Create(p, target, 0); err != nil {
			return
		}
		for i := 0; i < warmStats; i++ {
			if _, err := cl.Stat(p, target); err != nil {
				return
			}
		}
		p.Flush()
		for i := 0; i < measuredStats; i++ {
			t0 := p.Now()
			if _, err := cl.Stat(p, target); err != nil {
				return
			}
			p.Flush()
			hist.Observe(p.Now() - t0)
		}
		done = true
	})
	d.Env.RunFor(time.Minute)
	if !done {
		return 0, 0, nil, fmt.Errorf("pathdepth: depth-%d run did not complete", depth)
	}
	return hist.Mean(), hist.Percentile(0.99), profile.Analyze(sink.Spans()), nil
}

// PathDepth measures stat latency as a function of path depth, with
// optimistic batched resolution vs the serial per-component walk. The
// serial walk pays one storage round trip per component, so its latency
// grows linearly with depth; the batched resolver reads the whole primed
// chain in one parallel fan-out, so depth only adds rows to a single
// round trip and latency grows sub-linearly.
func PathDepth(o ExpOptions) (string, error) {
	depths := []int{2, 4, 8, 12}
	if o.Full {
		depths = []int{2, 4, 8, 12, 16}
	}
	tbl := metrics.NewTable("depth", "serial mean", "serial p99", "batched mean", "batched p99", "speedup")
	var firstSerial, firstBatched, lastSerial, lastBatched time.Duration
	var labels []string
	var reps []*profile.Report
	for i, depth := range depths {
		serialMean, serialP99, serialRep, err := pathStatLatency(o, depth, true)
		if err != nil {
			return "", err
		}
		batchedMean, batchedP99, batchedRep, err := pathStatLatency(o, depth, false)
		if err != nil {
			return "", err
		}
		if i == 0 {
			firstSerial, firstBatched = serialMean, batchedMean
		}
		lastSerial, lastBatched = serialMean, batchedMean
		tbl.AddRow(fmt.Sprintf("%d", depth),
			fmtMS(serialMean), fmtMS(serialP99),
			fmtMS(batchedMean), fmtMS(batchedP99),
			fmt.Sprintf("%.2fx", float64(serialMean)/float64(batchedMean)))
		labels = append(labels,
			fmt.Sprintf("depth %d serial", depth),
			fmt.Sprintf("depth %d batched", depth))
		reps = append(reps, serialRep, batchedRep)
	}
	growth := func(first, last time.Duration) string {
		if first <= 0 {
			return "-"
		}
		return fmt.Sprintf("%.2fx", float64(last)/float64(first))
	}
	return fmt.Sprintf(
		"Stat latency vs path depth — hint-cache-primed batched resolution vs serial walk\n"+
			"HopsFS-CL (3,3), 3 metadata servers, single zone-1 client\n%s"+
			"latency growth depth %d -> %d: serial %s, batched %s\n"+
			"(serial pays one storage round trip per component; batched reads the primed chain in one fan-out)\n"+
			"\nwhere the time went (critical-path share of measured stats):\n%s",
		tbl.String(), depths[0], depths[len(depths)-1],
		growth(firstSerial, lastSerial), growth(firstBatched, lastBatched),
		renderAttribution(labels, reps)), nil
}
