package main

import (
	"os"
	"strings"
	"testing"
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
		if strings.Contains(string(printed), "=== ") {
			t.Errorf("run(%q) ran an experiment before rejecting its arguments:\n%s", args, printed)
		}
	}
	if err := run([]string{"table2", "-seed", "7"}); err == nil || !strings.Contains(err.Error(), "flags go before experiment ids") {
		t.Errorf("misplaced flag: got %v, want the flags-first hint", err)
	}
}
