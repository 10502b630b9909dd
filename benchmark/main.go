// Command benchmark is the repository's benchmark: four workloads, each
// measured on two clocks — the simulated HopsFS-CL on the virtual clock and
// the simulator itself on the host's — with every layer named. See README.md.
//
//	bash benchmark/run.sh --workload spotify_cl33 --seed 1 --seconds 10 --trace 0
//
// prints, as the last line of standard output, one JSON object with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// logw receives progress and diagnostics; standard output carries results.
var logw io.Writer = os.Stderr

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the line the benchmark prints.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is what -out appends: the report, and what it takes to compare
// it with another run.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	report
	// W1Ops and W1SliceSpread say how much the host metrics rest on.
	W1Ops         int       `json:"w1_ops"`
	W1SliceSpread float64   `json:"w1_slice_spread"`
	SetupAllS     []float64 `json:"setup_all_s"`
	Violations    []string  `json:"violations,omitempty"`
	Go            string    `json:"go"`
	NProc         int       `json:"nproc"`
	GoMaxProcs    int       `json:"gomaxprocs"`
	Git           string    `json:"git"`
}

func main() {
	// The cooperative kernel only ever has one runnable goroutine; a second
	// P just bounces it between cores (34 µs/vop ±16 % at 2, 22 µs/vop ±4 %
	// at 1 on the 12-NN Spotify point), so the benchmark fixes the protocol.
	runtime.GOMAXPROCS(1)
	if err := realMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func realMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed of the deployment and of every client's generator")
	seconds := fs.Float64("seconds", 10, "length of the measurement; sets the virtual window, see README")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the profiled and traced windows")
	out := fs.String("out", "", "append the run's record, one JSON line, to this file")
	profiles := fs.String("profiles", "", "with -trace 1: keep the raw CPU profile and folded span stacks in this directory")
	compare := fs.Bool("compare", false, "compare two -out files: benchmark -compare OLD NEW")
	manifest := fs.Bool("manifest", false, "print BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *manifest:
		_, err := stdout.Write(manifestJSON())
		return err
	case *compare:
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two files, OLD and NEW")
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	}
	s, ok := specByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q; have %s", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 || *seconds > 60 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need 0 < -seconds <= 60 and -trace 0 or 1")
	}

	res, err := run(s, *seed, *seconds, *trace == 1)
	if err != nil {
		return err
	}
	rep := report{Attempted: len(res.lat), Failed: res.failed, Metrics: map[string]value{}}
	var values map[string]float64
	defs := endToEnd
	if res.traced {
		values, defs = res.perLayerValues(), perLayer
	} else {
		var bad []string
		values, bad = res.endToEndValues()
		res.violations = append(res.violations, bad...)
	}
	for _, d := range defs {
		rep.Metrics[d.Name] = value{values[d.Name], d.Unit}
	}
	rep.Correct = len(res.violations) == 0
	for _, v := range res.violations {
		fmt.Fprintln(logw, "violation:", v)
	}
	fmt.Fprintf(logw, "%s seed %d: %d ops in %v virtual, W1 %d ops in %.2fs host (%d slices, spread %.1f%%), set-up %.2fs\n",
		s.name, *seed, len(res.lat), time.Duration(res.delta["x.now_ns"]), res.w1.ops, float64(res.w1.hostNS)/1e9, len(res.w1.sliceUS), 100*res.w1.spread(), median(res.setupS))

	if *profiles != "" && res.traced {
		if err := keepProfiles(*profiles, s.name, res); err != nil {
			return err
		}
	}
	if *out != "" {
		rec := record{
			Workload: s.name, Seed: *seed, Seconds: *seconds, Trace: *trace, report: rep,
			W1Ops: res.w1.ops, W1SliceSpread: res.w1.spread(), SetupAllS: res.setupS, Violations: res.violations,
			Go: runtime.Version(), NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), Git: gitHead(),
		}
		if err := appendRecord(*out, rec); err != nil {
			return err
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct {
		return fmt.Errorf("%s: %d violations, the result above is not to be used", s.name, len(res.violations))
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, s := range specs {
		out = append(out, s.name)
	}
	return out
}

// gitHead names the commit measured; a checkout that is not a repository
// has none.
func gitHead() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func keepProfiles(dir, workload string, res *result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, workload+".cpu.pprof"), res.cpuProfile, 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".spans.folded"), []byte(res.folded), 0o644)
}

// manifestJSON is BENCHMARK.json, printed from the tables in this package.
func manifestJSON() []byte {
	type workloadDef struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	m := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, s := range specs {
		m.Workloads = append(m.Workloads, workloadDef{s.name, s.why})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // the tables hold only strings and numbers
	}
	return append(b, '\n')
}
