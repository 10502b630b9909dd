package main

import (
	"os"
	"strings"
	"testing"

	"hopsfscl/internal/bench"
)

func TestRunRejectsBadInput(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("no arguments accepted")
	}
	if err := run([]string{"fig99"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if err := run([]string{"-bogus", "fig5"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func TestRunListAndQuickExperiment(t *testing.T) {
	if err := run([]string{"list"}); err != nil {
		t.Fatal(err)
	}
	// table1/table2 are cheap end-to-end smoke tests of the CLI path.
	if err := run([]string{"table1", "table2"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunChecksEveryArgumentFirst: a flag after an experiment id (or a typo
// in a later id) is reported before the first experiment runs, not after.
func TestRunChecksEveryArgumentFirst(t *testing.T) {
	for _, args := range [][]string{{"table2", "-seed", "7"}, {"table2", "fig99"}} {
		out, err := os.CreateTemp(t.TempDir(), "stdout")
		if err != nil {
			t.Fatal(err)
		}
		stdout := os.Stdout
		os.Stdout = out
		runErr := run(args)
		os.Stdout = stdout
		if err := out.Close(); err != nil {
			t.Fatal(err)
		}
		printed, err := os.ReadFile(out.Name())
		if err != nil {
			t.Fatal(err)
		}
		if runErr == nil || !strings.Contains(runErr.Error(), args[1]) {
			t.Errorf("run(%q) = %v, want an error naming %q", args, runErr, args[1])
		}
		if strings.Contains(string(printed), "## ") {
			t.Errorf("run(%q) ran an experiment before rejecting its arguments:\n%s", args, printed)
		}
	}
	if err := run([]string{"table2", "-seed", "7"}); err == nil || !strings.Contains(err.Error(), "flags go before experiment ids") {
		t.Errorf("misplaced flag: got %v, want the flags-first hint", err)
	}
}

// TestRunFailsOnAFlippedClaim: a claim that holds but is recorded as not
// holding, and one that fails without being recorded so, each make run fail
// with an error naming the claim, after every experiment has run.
func TestRunFailsOnAFlippedClaim(t *testing.T) {
	registered := bench.Experiments
	t.Cleanup(func() { bench.Experiments = registered })
	claim := func(c bench.Claim) func(bench.ExpOptions) (string, []bench.Claim, error) {
		return func(bench.ExpOptions) (string, []bench.Claim, error) { return "report\n", []bench.Claim{c}, nil }
	}
	bench.Experiments = append(registered[:len(registered):len(registered)],
		bench.Experiment{ID: "holds-with-why", Title: "test", Run: claim(bench.Claim{ID: "test/holds-with-why", Holds: true, Why: "recorded as not holding"})},
		bench.Experiment{ID: "fails-without-why", Title: "test", Run: claim(bench.Claim{ID: "test/fails-without-why"})},
		bench.Experiment{ID: "as-recorded", Title: "test", Run: claim(bench.Claim{ID: "test/as-recorded", Why: "recorded as not holding"})})
	for _, id := range []string{"holds-with-why", "fails-without-why"} {
		err := run([]string{id, "as-recorded"})
		if err == nil || !strings.Contains(err.Error(), "test/"+id) || strings.Contains(err.Error(), "as-recorded") {
			t.Errorf("run(%s) = %v, want an error naming test/%s alone", id, err, id)
		}
	}
	if err := run([]string{"as-recorded"}); err != nil {
		t.Errorf("a claim failing as recorded: %v", err)
	}
}
