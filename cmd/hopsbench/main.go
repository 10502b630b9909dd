// Command hopsbench regenerates the tables and figures of "Distributed
// Hierarchical File Systems strike back in the Cloud" (ICDCS 2020) against
// this repository's HopsFS-CL reproduction, and judges the paper's claims on
// what it measured.
//
// Usage:
//
//	hopsbench [flags] <experiment>... | all | list
//
// Flags go before experiment ids:
//
//	-full       run the paper's complete server-count grid (slower)
//	-seed N     simulation seed (default 1)
//	-clients N  closed-loop clients per metadata server (default 64)
//
// Stdout is markdown: each experiment's section, its tables followed by a
// table of its claims, then a summary of every claim. Wall times go to
// stderr. Arguments are checked before anything runs. hopsbench exits 1,
// naming each one, when a claim flips: it holds but is recorded as not
// holding, or fails without being recorded so.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"hopsfscl/internal/bench"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hopsbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("hopsbench", flag.ContinueOnError)
	full := fs.Bool("full", false, "run the paper's complete server-count grid")
	seed := fs.Int64("seed", 1, "simulation seed")
	clients := fs.Int("clients", 0, "closed-loop clients per metadata server (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ids := fs.Args()
	if len(ids) == 0 {
		usage()
		return fmt.Errorf("no experiment given")
	}
	if len(ids) == 1 && ids[0] == "list" {
		usage()
		return nil
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = nil
		for _, e := range bench.Experiments {
			ids = append(ids, e.ID)
		}
	}
	// Every argument is checked before the first experiment runs: a typo in
	// the last id must not cost the minutes the first ones take.
	exps := make([]bench.Experiment, 0, len(ids))
	for _, id := range ids {
		if strings.HasPrefix(id, "-") {
			return fmt.Errorf("flag %s follows an experiment id: flags go before experiment ids", id)
		}
		exp, ok := bench.ExperimentByID(id)
		if !ok {
			return fmt.Errorf("unknown experiment %q (try: hopsbench list)", id)
		}
		exps = append(exps, exp)
	}
	opts := bench.ExpOptions{Full: *full, Seed: *seed, ClientsPerServer: *clients}
	var claims []bench.Claim
	for _, exp := range exps {
		t0 := time.Now()
		md, expClaims, err := exp.Section(opts)
		if err != nil {
			return err
		}
		fmt.Println(md)
		fmt.Fprintf(os.Stderr, "(%s completed in %s)\n", exp.ID, time.Since(t0).Round(time.Millisecond))
		claims = append(claims, expClaims...)
	}
	fmt.Print(summary(claims))
	if flips := bench.Flips(claims); len(flips) > 0 {
		return fmt.Errorf("%d claims flipped: %s", len(flips), strings.Join(flips, ", "))
	}
	return nil
}

// summary renders the closing section: how many claims hold, then each
// claim that does not or that flipped, with its verdict.
func summary(claims []bench.Claim) string {
	var b strings.Builder
	held := 0
	for _, c := range claims {
		if c.Holds {
			held++
		}
	}
	fmt.Fprintf(&b, "## Summary\n\n%d of %d claims hold.\n\n", held, len(claims))
	for _, c := range claims {
		if !c.Holds || c.Flipped() {
			fmt.Fprintf(&b, "- %s: %s\n", c.ID, c.Verdict())
		}
	}
	return b.String()
}

func usage() {
	fmt.Println("hopsbench — regenerate the paper's tables and figures")
	fmt.Println("\nexperiments:")
	for _, e := range bench.Experiments {
		fmt.Printf("  %-9s %s\n", e.ID, e.Title)
	}
	fmt.Println("\nusage: hopsbench [-full] [-seed N] [-clients N] <experiment>... | all | list")
}
