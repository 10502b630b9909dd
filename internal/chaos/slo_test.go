package chaos

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hopsfscl/internal/slo"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// renderDetection flattens the SLO-dependent slice of a campaign report —
// per-fault time-to-detect plus the full alert/health event log — into the
// stable text form the golden file pins.
func renderDetection(rep *Report) string {
	var b strings.Builder
	b.WriteString("detection:\n")
	for _, de := range rep.Detect {
		state := "detected"
		if !de.Detected {
			state = "NOT-DETECTED"
		}
		fmt.Fprintf(&b, "  %8v  %-12s ttd=%-10v %-13s %s\n",
			de.At, de.Step.Kind, de.TTD, state, de.Signal)
	}
	b.WriteString("events:\n")
	for _, ev := range rep.SLO.Events {
		b.WriteString("  " + ev.String() + "\n")
	}
	return b.String()
}

// TestDetectionCampaignGolden runs the canonical three-class detection
// schedule under the live SLO engine and pins the resulting alert log and
// time-to-detect table byte-for-byte. Re-generate with `go test -run
// DetectionCampaignGolden -update` after an intentional behavior change.
func TestDetectionCampaignGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full detection campaign in -short mode")
	}
	rep, err := RunCampaign(1, CampaignOptions{Schedule: DetectionSchedule(), SLO: &slo.Spec{}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("campaign not clean:\n%s", rep.Render())
	}

	// Acceptance gate: the campaign must report a measured (non-censored)
	// time-to-detect for all three fault classes.
	wantKinds := map[FaultKind]bool{FaultCrashDN: false, FaultPartition: false, FaultSlowLink: false}
	for _, de := range rep.Detect {
		if _, ok := wantKinds[de.Step.Kind]; !ok {
			continue
		}
		if !de.Detected {
			t.Errorf("%s not detected (censored ttd=%v)", de.Step.Kind, de.TTD)
			continue
		}
		if de.TTD < 0 || de.TTD > 30*time.Second {
			t.Errorf("%s ttd=%v out of range", de.Step.Kind, de.TTD)
		}
		wantKinds[de.Step.Kind] = true
	}
	for kind, seen := range wantKinds {
		if !seen {
			t.Errorf("no detection entry for fault class %s:\n%s", kind, rep.Render())
		}
	}
	if rep.SLO == nil || len(rep.SLO.Events) == 0 {
		t.Fatal("campaign produced no SLO events")
	}

	got := renderDetection(rep)
	golden := filepath.Join("testdata", "detection_seed1.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("detection output drifted from golden (run with -update if intended):\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestDetectionCampaignDeterminism re-runs the same seeded campaign and
// demands a byte-identical alert log — the property the golden file (and
// any TTD comparison across code versions) rests on.
func TestDetectionCampaignDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full detection campaign in -short mode")
	}
	run := func() string {
		rep, err := RunCampaign(3, CampaignOptions{Schedule: DetectionSchedule(), SLO: &slo.Spec{}})
		if err != nil {
			t.Fatal(err)
		}
		return renderDetection(rep)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different detection output:\n%s\nvs\n%s", a, b)
	}
}
