package bench

import (
	"fmt"
	"time"

	"hopsfscl/internal/metrics"
	"hopsfscl/internal/ndb"
	"hopsfscl/internal/profile"
	"hopsfscl/internal/sim"
	"hopsfscl/internal/simnet"
	"hopsfscl/internal/trace"
)

// writeFanPoint measures multi-row write-transaction latency and wire
// footprint on a raw 3-AZ NDB cluster (6 datanodes, RF 3, Read Backup),
// with the batched write path either enabled or forced serial. Every
// transaction writes `rows` rows of one partition whose primary replica is
// deliberately NOT in the client's zone. A write is its Prepare pass down the
// replica chain, so the serial path walks the chain once per row, one row
// after the other, and commits one train per row, while the batched path —
// all rows share a replica chain — prepares them in one pass and commits
// them as one train. Returned alongside mean latency: the average signals
// per transaction — wire messages plus the local signals a datanode passes
// between its own blocks, so Figure 2's 14 wherever the coordinator sits on
// the chain — the average commit trains per transaction (from
// the ndb.commit.trains counter), and the critical-path attribution of the
// measured transactions.
func writeFanPoint(o ExpOptions, rows int, serial bool) (mean time.Duration, signalsPerTxn, trainsPerTxn float64, rep *profile.Report, err error) {
	env := sim.New(o.Seed)
	defer env.Close()
	net := simnet.New(env, simnet.USWest1())
	reg := trace.NewRegistry()
	net.SetRegistry(reg)
	tracer := trace.NewTracer(reg)

	cfg := ndb.DefaultConfig()
	cfg.DataNodes = 6
	cfg.Replication = 3
	cfg.PartitionsPerTable = 12
	cfg.AZAware = true
	cfg.DisableBatchedWrites = serial
	zones := []simnet.ZoneID{1, 2, 3}
	data := ndb.SpreadPlacement(cfg.DataNodes, zones, 100)
	mgmt := []ndb.Placement{{Zone: 1, Host: 200}, {Zone: 2, Host: 201}, {Zone: 3, Host: 202}}
	c, err := ndb.New(env, net, cfg, data, mgmt)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	c.SetTracer(tracer)
	c.StopBackground()
	env.RunFor(time.Second) // drain housekeeping

	tbl := c.CreateTable("writefan", 256, ndb.TableOptions{ReadBackup: true})
	client := net.NewNode("client", 1, 300)

	// Pick a partition whose primary lives outside the client's zone — the
	// common case under §IV-A5's AZ-local coordinator (two partitions in
	// three) and the costlier one: the chain pass starts with a cross-AZ hop.
	pk := ""
	for i := 0; i < 64; i++ {
		cand := fmt.Sprintf("p%d", i)
		if dn := tbl.PrimaryFor(cand); dn != nil && dn.Domain != 1 {
			pk = cand
			break
		}
	}
	if pk == "" {
		return 0, 0, 0, nil, fmt.Errorf("writefan: no partition with a non-local primary")
	}

	const warmTxns = 4
	const measuredTxns = 64
	var hist metrics.Histogram
	sink := tracer.EnableSink(measuredTxns)
	trainsC := reg.Counter("ndb.commit.trains")

	var signals, trains int64
	done := false
	env.Spawn("writefan", func(p *sim.Proc) {
		runTxn := func(it int) error {
			sp := tracer.StartOp("writetxn", p.EffNow())
			prev := p.SetSpan(sp)
			defer func() {
				p.SetSpan(prev)
				sp.Finish(p.EffNow())
			}()
			tx, err := c.Begin(p, client, 1, tbl, pk)
			if err != nil {
				return err
			}
			items := make([]ndb.BatchWrite, rows)
			for r := range items {
				items[r] = ndb.BatchWrite{Table: tbl, PartKey: pk, Key: fmt.Sprintf("r%d", r), Val: fmt.Sprintf("v%d", it)}
			}
			if err := tx.WriteBatch(items); err != nil {
				return err
			}
			return tx.Commit()
		}
		for i := 0; i < warmTxns; i++ {
			if err := runTxn(i); err != nil {
				return
			}
		}
		p.Flush()
		signalsBefore := net.TotalMessages() + c.Stats.LocalSignals
		trainsBefore := trainsC.Value()
		for i := 0; i < measuredTxns; i++ {
			t0 := p.Now()
			if err := runTxn(warmTxns + i); err != nil {
				return
			}
			p.Flush()
			hist.Observe(p.Now() - t0)
		}
		signals = net.TotalMessages() + c.Stats.LocalSignals - signalsBefore
		trains = trainsC.Value() - trainsBefore
		done = true
	})
	env.RunFor(time.Minute)
	if !done {
		return 0, 0, 0, nil, fmt.Errorf("writefan: %d-row run (serial=%v) did not complete", rows, serial)
	}
	return hist.Mean(), float64(signals) / measuredTxns, float64(trains) / measuredTxns,
		profile.Analyze(sink.Spans()), nil
}

// WriteFan measures write-transaction latency and wire footprint as a
// function of rows per transaction, batched vs serial. The serial path pays
// one Prepare pass per row, in sequence, and one commit train per row, so
// both its latency and its signal count grow linearly with the row count;
// the batched path prepares all same-chain rows in one pass and commits them
// as one train, so rows only add payload bytes to a fixed number of signals
// — Figure 2's 14 — and latency stays near-flat.
func WriteFan(o ExpOptions) (string, []Claim, error) {
	rowCounts := []int{1, 2, 4, 8}
	if o.Full {
		rowCounts = append(rowCounts, 16)
	}
	tbl := metrics.NewTable("rows/txn",
		"serial mean", "serial signals", "batched mean", "batched signals", "trains/txn", "speedup")
	var firstSerial, firstBatched, lastSerial, lastBatched time.Duration
	var oneRow [2]float64 // serial and batched signals of a one-row transaction
	var lastSerialSignals, lastBatchedSignals float64
	var labels []string
	var reps []*profile.Report
	for i, rows := range rowCounts {
		serialMean, serialSignals, _, serialRep, err := writeFanPoint(o, rows, true)
		if err != nil {
			return "", nil, err
		}
		batchedMean, batchedSignals, trains, batchedRep, err := writeFanPoint(o, rows, false)
		if err != nil {
			return "", nil, err
		}
		if i == 0 {
			firstSerial, firstBatched = serialMean, batchedMean
			oneRow = [2]float64{serialSignals, batchedSignals}
		}
		lastSerial, lastBatched = serialMean, batchedMean
		lastSerialSignals, lastBatchedSignals = serialSignals, batchedSignals
		tbl.AddRow(fmt.Sprintf("%d", rows),
			fmtMS(serialMean), fmt.Sprintf("%.1f", serialSignals),
			fmtMS(batchedMean), fmt.Sprintf("%.1f", batchedSignals),
			fmt.Sprintf("%.1f", trains),
			fmt.Sprintf("%.2fx", float64(serialMean)/float64(batchedMean)))
		labels = append(labels,
			fmt.Sprintf("%d rows serial", rows),
			fmt.Sprintf("%d rows batched", rows))
		reps = append(reps, serialRep, batchedRep)
	}
	growth := func(first, last time.Duration) string {
		if first <= 0 {
			return "-"
		}
		return fmt.Sprintf("%.2fx", float64(last)/float64(first))
	}
	maxRows := rowCounts[len(rowCounts)-1]
	claims := []Claim{
		{"writefan/one-row", "a one-row write transaction is Figure 2's 14 signals, request to Ack",
			fmt.Sprintf("serial %.1f, batched %.1f", oneRow[0], oneRow[1]), oneRow == [2]float64{14, 14}, ""},
		{"writefan/batched-below-serial", "beyond: commit trains keep signals and latency below per-row chains",
			fmt.Sprintf("at %d rows %.1f vs %.1f signals, %s vs %s", maxRows, lastBatchedSignals, lastSerialSignals, fmtMS(lastBatched), fmtMS(lastSerial)),
			lastBatchedSignals < lastSerialSignals && lastBatched < lastSerial, ""},
	}
	return fmt.Sprintf(
		"Write txn latency & wire footprint vs rows per txn — batched write path vs serial\n"+
			"raw NDB, 3 AZs, 6 datanodes, RF 3, Read Backup; all rows in one remote-primary partition\n\n%s\n"+
			"latency growth %d -> %d rows: serial %s, batched %s\n"+
			"(a write is its Prepare pass: serial walks the chain once per row and commits one train per\n"+
			"row; batched prepares and commits one train per replica chain — Figure 2's 14 signals)\n"+
			"\nwhere the time went (critical-path share of measured txns):\n\n%s",
		tbl.Markdown(), rowCounts[0], maxRows,
		growth(firstSerial, lastSerial), growth(firstBatched, lastBatched),
		renderAttribution(labels, reps)), claims, nil
}
