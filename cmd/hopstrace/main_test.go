package main

import (
	"encoding/csv"
	"errors"
	"flag"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"hopsfscl/internal/nsmodel"
	"hopsfscl/internal/sim"
	"hopsfscl/internal/trace"
)

// countFS counts the calls made on it, by op name; every call succeeds.
type countFS map[string]int

func (c countFS) Mkdir(*sim.Proc, string) error          { c["mkdir"]++; return nil }
func (c countFS) Create(*sim.Proc, string) error         { c["create"]++; return nil }
func (c countFS) Stat(*sim.Proc, string) error           { c["stat"]++; return nil }
func (c countFS) Read(*sim.Proc, string) error           { c["read"]++; return nil }
func (c countFS) List(*sim.Proc, string) error           { c["list"]++; return nil }
func (c countFS) Delete(*sim.Proc, string) error         { c["delete"]++; return nil }
func (c countFS) Rename(*sim.Proc, string, string) error { c["rename"]++; return nil }
func (c countFS) SetPermission(*sim.Proc, string) error  { c["setPermission"]++; return nil }

// everyCall is the trace of all eight workload.FS calls, one each.
var everyCall = []nsmodel.Op{
	{Name: "mkdir", Path: "/d"},
	{Name: "create", Path: "/d/f"},
	{Name: "stat", Path: "/d/f"},
	{Name: "read", Path: "/d/f"},
	{Name: "list", Path: "/d"},
	{Name: "rename", Path: "/d/f", Dst: "/d/g"},
	{Name: "setPermission", Path: "/d/g"},
	{Name: "delete", Path: "/d/g"},
}

// TestRecorderCapturesEveryOp makes all eight workload.FS calls on a
// recorder: each is recorded once, in order, a rename with its destination.
func TestRecorderCapturesEveryOp(t *testing.T) {
	env := sim.New(1)
	defer env.Close()
	var rec recorder
	env.Spawn("driver", func(p *sim.Proc) {
		_ = rec.Mkdir(p, "/d")
		_ = rec.Create(p, "/d/f")
		_ = rec.Stat(p, "/d/f")
		_ = rec.Read(p, "/d/f")
		_ = rec.List(p, "/d")
		_ = rec.Rename(p, "/d/f", "/d/g")
		_ = rec.SetPermission(p, "/d/g")
		_ = rec.Delete(p, "/d/g")
	})
	env.Run()
	if !slices.Equal([]nsmodel.Op(rec), everyCall) {
		t.Fatalf("recorded %+v, want %+v", rec, everyCall)
	}
}

// TestTraceRoundTripAndReplay replays the trace of all eight workload.FS
// calls: each fsCalls row dispatches to its own call, which runs exactly
// once, with no error.
func TestTraceRoundTripAndReplay(t *testing.T) {
	env := sim.New(1)
	defer env.Close()
	counts := countFS{}
	var errs int
	env.Spawn("replay", func(p *sim.Proc) { errs = replayOps(p, counts, everyCall) })
	env.Run()
	if errs != 0 {
		t.Errorf("replay errors: %d", errs)
	}
	for _, op := range everyCall {
		if counts[op.Name] != 1 {
			t.Errorf("%s replayed %d times, want once", op.Name, counts[op.Name])
		}
	}
	if len(counts) != len(everyCall) {
		t.Errorf("replayed %v: want exactly the eight calls", counts)
	}
}

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// checkGolden compares got against the named golden file byte-for-byte,
// rewriting it under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/hopstrace -run Golden -update` to create)", err)
	}
	if got != string(want) {
		t.Fatalf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// profileArgs is a small fixed-seed profiling run shared by the golden
// tests: big enough to exercise every op type, small enough to stay fast.
func profileArgs(format string) []string {
	return []string{"profile", "-ops", "300", "-seed", "7", "-clients", "6", "-format", format}
}

func TestProfileGolden(t *testing.T) {
	var out strings.Builder
	if err := run(profileArgs("text"), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "critical-path attribution") {
		t.Fatalf("missing attribution table:\n%s", out.String())
	}
	checkGolden(t, "profile.golden", out.String())

	// Byte-identical across runs in the same process too.
	var again strings.Builder
	if err := run(profileArgs("text"), &again); err != nil {
		t.Fatal(err)
	}
	if out.String() != again.String() {
		t.Fatal("profile output not deterministic across same-seed runs")
	}
}

func TestProfileChromeGolden(t *testing.T) {
	var out strings.Builder
	if err := run(profileArgs("chrome"), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.HasPrefix(got, `{"displayTimeUnit":"ms"`) || !strings.Contains(got, `"ph":"X"`) {
		t.Fatalf("not a chrome trace:\n%.200s", got)
	}
	checkGolden(t, "profile_chrome.golden", got)
}

func TestProfileFoldedGolden(t *testing.T) {
	var out strings.Builder
	if err := run(profileArgs("folded"), &out); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		if len(strings.Fields(line)) != 2 {
			t.Fatalf("malformed folded line %q", line)
		}
	}
	checkGolden(t, "profile_folded.golden", out.String())
}

func TestTimelineCSV(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"timeline", "-ops", "300", "-seed", "7", "-clients", "6", "-interval", "10ms"}, &out); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(out.String())).ReadAll()
	if err != nil {
		t.Fatalf("timeline is not valid CSV: %v", err)
	}
	if len(rows) < 3 {
		t.Fatalf("timeline too short:\n%s", out.String())
	}
	header := strings.Join(rows[0], "|")
	if rows[0][0] != "t_ms" || !strings.Contains(header, "net.link.bytes") {
		t.Fatalf("timeline header = %q", header)
	}
	for _, name := range rows[0][1:] {
		if !slices.ContainsFunc(timelineKeeps, func(p string) bool { return strings.HasPrefix(name, p) }) {
			t.Errorf("column %q is outside the kept families %v", name, timelineKeeps)
		}
	}
	for i, r := range rows[1:] {
		if len(r) != len(rows[0]) {
			t.Fatalf("row %d has %d fields, header has %d", i+1, len(r), len(rows[0]))
		}
	}

	var again strings.Builder
	if err := run([]string{"timeline", "-ops", "300", "-seed", "7", "-clients", "6", "-interval", "10ms"}, &again); err != nil {
		t.Fatal(err)
	}
	if out.String() != again.String() {
		t.Fatal("timeline not deterministic across same-seed runs")
	}
}

// TestTimelineRefusesNonPositiveInterval: a ticker with a zero or negative
// -interval would tick forever at one virtual instant, so timeline refuses
// one, naming the flag, before it replays anything or writes a CSV.
func TestTimelineRefusesNonPositiveInterval(t *testing.T) {
	for _, interval := range []string{"-1ms", "0s"} {
		csvPath := filepath.Join(t.TempDir(), "timeline.csv")
		var out strings.Builder
		err := run([]string{"timeline", "-ops", "10", "-interval", interval, "-out", csvPath}, &out)
		if err == nil || !strings.Contains(err.Error(), "-interval") {
			t.Errorf("-interval %s: %v, want an error naming -interval", interval, err)
		}
		if _, statErr := os.Stat(csvPath); !errors.Is(statErr, fs.ErrNotExist) {
			t.Errorf("-interval %s wrote %s (stat: %v)", interval, csvPath, statErr)
		}
		if out.Len() != 0 {
			t.Errorf("-interval %s wrote %q", interval, out.String())
		}
	}
}

// TestTimelineKeepsEveryFrame samples a run past 1,024 frames: every tick
// of the -interval ticker is a row, the first one interval in, and nothing
// is written to stderr.
func TestTimelineKeepsEveryFrame(t *testing.T) {
	stderr, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = stderr
	var out strings.Builder
	err = run([]string{"timeline", "-ops", "1000", "-seed", "1", "-interval", "150us"}, &out)
	os.Stderr = saved
	if err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(out.String())).ReadAll()
	if err != nil {
		t.Fatalf("timeline is not valid CSV: %v", err)
	}
	if len(rows) != 1+1333 {
		t.Fatalf("timeline has %d rows, want the header and 1333 frames", len(rows))
	}
	if rows[1][0] != "0.15" {
		t.Fatalf("first frame at t_ms %s, want 0.15", rows[1][0])
	}
	if logged, _ := os.ReadFile(stderr.Name()); len(logged) != 0 {
		t.Fatalf("timeline wrote to stderr: %s", logged)
	}
}

// TestWriteTimelineCSV: counters print as per-frame deltas (the first
// frame's delta is the value), gauges and maxima as their values, a column
// first seen in a later frame reads 0 before it, a name holding a comma or a
// quote is quoted, a frame that kept no sample prints its instant alone, and
// no frame at all leaves the header.
func TestWriteTimelineCSV(t *testing.T) {
	counter := func(name string, v float64) trace.Sample {
		return trace.Sample{Name: name, Kind: trace.KindCounter, Value: v}
	}
	gauge := func(name string, v float64) trace.Sample {
		return trace.Sample{Name: name, Kind: trace.KindGauge, Value: v}
	}
	peak := func(name string, v float64) trace.Sample {
		return trace.Sample{Name: name, Kind: trace.KindMax, Value: v}
	}
	for _, tc := range []struct {
		name   string
		frames []frame
		want   string
	}{
		{"deltas and values", []frame{
			{at: 10 * time.Millisecond, samples: []trace.Sample{counter("op.stat.count", 3), peak("op.stat.max_ns", 7), gauge("op.stat.p99_ms", 0.25)}},
			{at: 20 * time.Millisecond, samples: []trace.Sample{counter("net.link.bytes{from=a,to=b}", 4), gauge(`op."q"`, 1),
				counter("op.stat.count", 8), peak("op.stat.max_ns", 7), gauge("op.stat.p99_ms", 2.5)}},
		}, `t_ms,"net.link.bytes{from=a,to=b}","op.""q""",op.stat.count,op.stat.max_ns,op.stat.p99_ms
10,0,0,3,7,0.25
20,4,1,5,7,2.5
`},
		{"single frame", []frame{{at: 10 * time.Millisecond, samples: []trace.Sample{
			counter("op.stat.count", 7), gauge("op.stat.idle", 0), gauge("op.stat.p99_ms", 2.5)}}},
			"t_ms,op.stat.count,op.stat.idle,op.stat.p99_ms\n10,7,0,2.5\n"},
		{"sample-free frames", []frame{{at: 10 * time.Millisecond}, {at: 20 * time.Millisecond}}, "t_ms\n10\n20\n"},
		{"empty window", nil, "t_ms\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var b strings.Builder
			if err := writeTimelineCSV(&b, tc.frames); err != nil {
				t.Fatal(err)
			}
			if b.String() != tc.want {
				t.Fatalf("csv:\n%s\nwant:\n%s", b.String(), tc.want)
			}
		})
	}
}

func TestBadInvocations(t *testing.T) {
	var out strings.Builder
	if err := run(nil, &out); err == nil {
		t.Fatal("no args accepted")
	}
	// An unknown subcommand gets the usage text, which names every row.
	err := run([]string{"frob"}, &out)
	if err == nil || !strings.Contains(err.Error(), "subcommands:") {
		t.Fatalf("unknown subcommand: want the usage text, got: %v", err)
	}
	for _, sc := range subcommands {
		if !strings.Contains(err.Error(), sc.name) {
			t.Errorf("usage does not name %q: %v", sc.name, err)
		}
		// Every row dispatches: its flag set answers -h.
		if err := run([]string{sc.name, "-h"}, &out); !errors.Is(err, flag.ErrHelp) {
			t.Errorf("%s -h: %v, want flag.ErrHelp", sc.name, err)
		}
	}
	// The trace-file subcommands are gone.
	for _, gone := range []string{"gen", "replay"} {
		if err := run([]string{gone}, &out); err == nil || !strings.Contains(err.Error(), "unknown subcommand") {
			t.Errorf("%s: %v, want unknown subcommand", gone, err)
		}
	}
	if err := run([]string{"profile", "-setup", "nope"}, &out); err == nil || !strings.Contains(err.Error(), "unknown setup") {
		t.Fatalf("unknown setup: %v", err)
	}
	// A replay needs a server and a client; each refusal names its flag.
	for _, args := range [][]string{
		{"profile", "-servers", "0"},
		{"timeline", "-clients", "0"},
		{"hotspots", "-servers", "-1"},
		{"profile", "-clients", "-2"},
	} {
		if err := run(args, &out); err == nil || !strings.Contains(err.Error(), args[1]) {
			t.Errorf("%v: %v, want an error naming %s", args, err, args[1])
		}
	}
	if out.Len() != 0 {
		t.Errorf("a refused invocation wrote %q", out.String())
	}
}

// hotspotsArgs is the fixed seed-1 hotspots run the golden file pins.
var hotspotsArgs = []string{"hotspots", "-ops", "800", "-seed", "1", "-clients", "8", "-exemplars"}

func TestHotspotsGolden(t *testing.T) {
	var out strings.Builder
	if err := run(hotspotsArgs, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"hottest subtree depth 1", "hottest table", "hottest partition", "exemplars:", "critical-path attribution"} {
		if !strings.Contains(got, want) {
			t.Fatalf("missing %q in hotspots report:\n%s", want, got)
		}
	}
	checkGolden(t, "hotspots_seed1.golden", got)

	// Byte-identical across runs in the same process too.
	var again strings.Builder
	if err := run(hotspotsArgs, &again); err != nil {
		t.Fatal(err)
	}
	if got != again.String() {
		t.Fatal("hotspots output not deterministic across same-seed runs")
	}
}

func TestUnknownSubcommandSuggestion(t *testing.T) {
	// A near miss gets no guess, only the usage text naming every row.
	err := run([]string{"timline"}, &strings.Builder{})
	if err == nil || strings.Contains(err.Error(), "did you mean") {
		t.Fatalf("want no suggestion for %q, got: %v", "timline", err)
	}
	if !strings.Contains(err.Error(), `unknown subcommand "timline"`) || !strings.Contains(err.Error(), "subcommands:") {
		t.Fatalf("want the unknown-subcommand error with usage, got: %v", err)
	}
	if !strings.Contains(err.Error(), "hotspots") || !strings.Contains(err.Error(), "slo") {
		t.Fatalf("usage in error should list every subcommand, got: %v", err)
	}
}
