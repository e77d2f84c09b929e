package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"nodedp/internal/generate"
	"nodedp/internal/graph"
	"nodedp/internal/serve"
)

// Runner is one experiment driver.
type Runner func(Config) (*Table, error)

// Registry maps experiment ids to drivers, in suite order: the E-series by
// number, then the F-series figures.
func Registry() []struct {
	ID  string
	Run Runner
} {
	return []struct {
		ID  string
		Run Runner
	}{
		{"E0", RationalCrossCheck},
		{"E1", E1ExtensionProperties},
		{"E2", E2AnchorSets},
		{"E3", E3MainAlgorithm},
		{"E4", E4ErdosRenyi},
		{"E5", E5Geometric},
		{"E6", E6DownSensitivity},
		{"E7", E7LocalRepair},
		{"E8", E8LipschitzTightness},
		{"E9", E9Optimality},
		{"E10", E10Baselines},
		{"E11", E11GEM},
		{"E12", E12PrivacyAudit},
		{"E13", E13GenericExtension},
		{"E14", E14LPScaling},
		{"E15", EpsilonSweep},
		{"F1", F1RepairTrace},
		{"F2", F2Lemma52},
		{"F3", F3WinDecomposition},
	}
}

// Lookup returns the driver for an id, or an error listing valid ids.
func Lookup(id string) (Runner, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e.Run, nil
		}
	}
	var ids []string
	for _, e := range Registry() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return nil, fmt.Errorf("experiments: unknown id %q (valid: %v)", id, ids)
}

// Render writes the suite's header and the table of experiment id, or of
// every experiment in registry order when id is empty. The bytes depend on
// cfg alone: no table reads a clock.
func Render(w io.Writer, cfg Config, id string) error {
	size := "quick"
	if !cfg.Quick {
		size = "full"
	}
	fmt.Fprintf(w, "# node-DP connected components — reproduction suite (%s mode, seed %d)\n\n", size, cfg.Seed)
	if id != "" {
		runner, err := Lookup(id)
		if err != nil {
			return err
		}
		return renderOne(w, cfg, id, runner)
	}
	for _, e := range Registry() {
		if err := renderOne(w, cfg, e.ID, e.Run); err != nil {
			return err
		}
	}
	return nil
}

func renderOne(w io.Writer, cfg Config, id string, runner Runner) error {
	table, err := runner(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", id, err)
	}
	table.Fprint(w)
	return nil
}

// releaseSession opens a session for drivers that draw many releases from
// one grid evaluation: its unseeded queries draw one stream from
// NewRand(seed), and its budget is one no driver exhausts.
func releaseSession(g *graph.Graph, seed uint64, discrete bool) (*serve.Session, error) {
	return serve.Open(context.Background(), g, serve.SessionOptions{
		TotalBudget:     1e12,
		Rand:            generate.NewRand(seed),
		DiscreteRelease: discrete,
	})
}
