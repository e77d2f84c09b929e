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
// sweeps, which take minutes rather than seconds. The output depends only
// on -seed and -full; internal/experiments/testdata pins the quick suite
// at seeds 1 and 7.
package main

import (
	"flag"
	"fmt"
	"os"

	"nodedp/internal/experiments"
)

func main() {
	id := flag.String("id", "", "run a single experiment (E0..E15, F1..F3); empty runs all")
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
	return experiments.Render(os.Stdout, cfg, id)
}
