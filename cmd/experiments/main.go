// Command experiments regenerates the reproduction tables of
// internal/experiments. The underlying paper has no empirical section, so
// each table validates one of its analytical claims, which the table
// states in its header.
//
// Usage:
//
//	experiments [-id E4] [-full] [-seed 1]
//
// Without -id, the entire suite runs in registry order. -full disables the
// quick (benchmark-sized) configuration and runs the publication-sized
// sweeps, which take minutes rather than seconds.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"nodedp/internal/experiments"
)

func main() {
	id := flag.String("id", "", "run a single experiment (E0..E17, E19, E20, E22, F1..F3); empty runs all")
	full := flag.Bool("full", false, "run publication-sized sweeps instead of the quick configuration")
	seed := flag.Uint64("seed", 1, "base seed for all randomness")
	flag.Parse()

	cfg := experiments.Config{Quick: !*full, Seed: *seed}
	if err := run(cfg, *id); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(cfg experiments.Config, id string) error {
	mode := "quick"
	if !cfg.Quick {
		mode = "full"
	}
	fmt.Printf("# node-DP connected components — reproduction suite (%s mode, seed %d)\n\n", mode, cfg.Seed)
	if id != "" {
		runner, err := experiments.Lookup(id)
		if err != nil {
			return err
		}
		return runOne(cfg, id, runner)
	}
	for _, entry := range experiments.Registry() {
		if err := runOne(cfg, entry.ID, entry.Run); err != nil {
			return err
		}
	}
	return nil
}

func runOne(cfg experiments.Config, id string, runner experiments.Runner) error {
	start := time.Now()
	table, err := runner(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", id, err)
	}
	table.Fprint(os.Stdout)
	fmt.Printf("   (%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	return nil
}
