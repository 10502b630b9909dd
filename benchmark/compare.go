package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// readRecords reads an -out file: one record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// side is one file's runs of one workload.
type side struct {
	values        map[string][]float64
	sliceSpread   []float64
	failed, tried int64
	anyNotCorrect bool
}

func sidesOf(recs []record) map[string]*side {
	out := map[string]*side{}
	for _, r := range recs {
		if r.Trace != 0 {
			continue
		}
		s := out[r.Workload]
		if s == nil {
			s = &side{values: map[string][]float64{}}
			out[r.Workload] = s
		}
		for name, v := range r.Metrics {
			s.values[name] = append(s.values[name], v.Value)
		}
		s.sliceSpread = append(s.sliceSpread, r.W1SliceSpread)
		s.failed += r.Failed
		s.tried += int64(r.Attempted)
		s.anyNotCorrect = s.anyNotCorrect || !r.Correct
	}
	return out
}

// spreadOf is how far a side's own runs of one metric lie apart: the
// inter-quartile range over the median with four runs or more; with fewer,
// the host-cost metric falls back on the spread of its slices and the
// others count as exact.
func (s *side) spreadOf(metric string) float64 {
	xs := s.values[metric]
	if len(xs) >= 4 {
		q1, q3 := quartiles(xs)
		return div(q3-q1, median(xs))
	}
	if metric == "wall_us_per_vop" {
		return median(s.sliceSpread)
	}
	return 0
}

// compareFiles applies each end-to-end metric's bound to the medians of two
// run sets, workload by workload. A metric whose runs lie further apart
// than its bound is unresolved, not unchanged. Any regression, and any
// larger share of failed operations, is an error.
func compareFiles(w io.Writer, oldPath, newPath string) error {
	oldRecs, err := readRecords(oldPath)
	if err != nil {
		return err
	}
	newRecs, err := readRecords(newPath)
	if err != nil {
		return err
	}
	olds, news := sidesOf(oldRecs), sidesOf(newRecs)
	var names []string
	for name := range olds {
		if news[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("no workload has --trace 0 runs in both files")
	}
	regressions := 0
	fmt.Fprintf(w, "%-20s %-18s %14s %14s %8s %7s %7s  %s\n", "workload", "metric", "old median", "new median", "worse", "bound", "spread", "verdict")
	for _, name := range names {
		o, n := olds[name], news[name]
		for _, d := range endToEnd {
			if len(o.values[d.Name]) == 0 || len(n.values[d.Name]) == 0 {
				continue
			}
			om, nm := median(o.values[d.Name]), median(n.values[d.Name])
			worse := div(nm-om, om)
			if d.Better == "higher" {
				worse = -worse
			}
			spread := max(o.spreadOf(d.Name), n.spreadOf(d.Name))
			verdict := "ok"
			switch {
			case spread > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "regressed"
				regressions++
			}
			fmt.Fprintf(w, "%-20s %-18s %14.6g %14.6g %+7.2f%% %6.1f%% %6.2f%%  %s\n",
				name, d.Name, om, nm, 100*worse, 100*d.Bound, 100*spread, verdict)
		}
		of, nf := div(float64(o.failed), float64(o.tried)), div(float64(n.failed), float64(n.tried))
		verdict := "ok"
		if nf > of || n.anyNotCorrect {
			verdict = "regressed"
			regressions++
		}
		fmt.Fprintf(w, "%-20s %-18s %14.6g %14.6g %37s\n", name, "failed_share", of, nf, verdict)
	}
	if regressions > 0 {
		return fmt.Errorf("%d regressions", regressions)
	}
	return nil
}
