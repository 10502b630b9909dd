package main

import (
	"encoding/csv"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"hopsfscl/internal/nsmodel"
	"hopsfscl/internal/sim"
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

// TestTraceRoundTripAndReplay writes the trace of all eight workload.FS
// calls, reads it back unchanged, and replays it: each call runs exactly
// once, with no error.
func TestTraceRoundTripAndReplay(t *testing.T) {
	var buf strings.Builder
	if err := nsmodel.WriteOps(&buf, everyCall); err != nil {
		t.Fatal(err)
	}
	ops, err := nsmodel.ReadOps(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ops, everyCall) {
		t.Fatalf("read back %+v, wrote %+v", ops, everyCall)
	}
	if err := checkRunnable(ops); err != nil {
		t.Fatal(err)
	}
	env := sim.New(1)
	defer env.Close()
	counts := countFS{}
	var errs int
	env.Spawn("replay", func(p *sim.Proc) { errs = replayOps(p, counts, ops) })
	env.Run()
	if errs != 0 {
		t.Errorf("replay errors: %d", errs)
	}
	if len(counts) != 8 {
		t.Fatalf("replayed %v: want all eight calls", counts)
	}
	for name, n := range counts {
		if n != 1 {
			t.Errorf("%s replayed %d times, want once", name, n)
		}
	}
}

// TestReplayRefusesWhatFSCannotRun: a trace op with no workload.FS call —
// one the client API has, or a recursive delete — is refused, quoted,
// before any deployment is built or any op runs.
func TestReplayRefusesWhatFSCannotRun(t *testing.T) {
	dir := t.TempDir()
	for i, c := range []struct{ text, quoted string }{
		{"mkdir /a\nsetOwner /a\n", `op 2, "setOwner /a"`},
		{"# comment\nmkdir /a\ncreate /a/f\ndelete -r /a\n", `op 3, "delete -r /a"`},
	} {
		path := filepath.Join(dir, "trace"+string(rune('0'+i)))
		if err := os.WriteFile(path, []byte(c.text), 0o644); err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		err := run([]string{"replay", "-in", path}, &out)
		if err == nil || !strings.Contains(err.Error(), c.quoted) {
			t.Errorf("replay of %q: %v, want an error quoting %s", c.text, err, c.quoted)
		}
		if out.Len() != 0 {
			t.Errorf("replay of %q ran: %q", c.text, out.String())
		}
	}
}

func TestGenReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.txt")
	var out strings.Builder
	if err := run([]string{"gen", "-ops", "500", "-out", trace}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(data), "\n")
	if lines < 400 {
		t.Fatalf("trace has %d lines, want ~500", lines)
	}
	out.Reset()
	if err := run([]string{"replay", "-in", trace, "-servers", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	report := out.String()
	if !strings.Contains(report, "errors: 0") {
		t.Fatalf("replay errored:\n%s", report)
	}
	if !strings.Contains(report, "HopsFS-CL (3,3)") {
		t.Fatalf("unexpected report:\n%s", report)
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

func TestBadInvocations(t *testing.T) {
	var out strings.Builder
	if err := run(nil, &out); err == nil {
		t.Fatal("no args accepted")
	}
	if err := run([]string{"frob"}, &out); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
	if err := run([]string{"replay", "-setup", "nope", "-in", "/dev/null"}, &out); err == nil {
		t.Fatal("unknown setup accepted")
	}
	if err := run([]string{"replay", "-in", "/nonexistent-file"}, &out); err == nil {
		t.Fatal("missing trace file accepted")
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
	err := run([]string{"timline"}, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), `did you mean "timeline"?`) {
		t.Fatalf("want a timeline suggestion, got: %v", err)
	}
	if !strings.Contains(err.Error(), "hotspots") || !strings.Contains(err.Error(), "slo") {
		t.Fatalf("usage in error should list every subcommand, got: %v", err)
	}
	// Nothing plausibly close: no suggestion, usage still shown.
	err = run([]string{"frobnicate"}, &strings.Builder{})
	if err == nil || strings.Contains(err.Error(), "did you mean") {
		t.Fatalf("want no suggestion for %q, got: %v", "frobnicate", err)
	}
	if !strings.Contains(err.Error(), "subcommands:") {
		t.Fatalf("usage missing from error: %v", err)
	}
}
