package analysis

// The detlint driver: load packages, collect cross-package facts, run each
// analyzer over the packages in its scope, and apply suppressions. Scope
// lives here rather than in the analyzers so the same analyzer logic runs
// unscoped in tests and scoped in CI.

import (
	"fmt"
	"sort"
	"strings"
)

// Finding is one unsuppressed diagnostic, position pre-rendered as
// file:line:col.
type Finding struct {
	Analyzer string
	Pos      string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// Scope decides which packages an analyzer runs on, by import-path suffix
// match against its entries (an empty list means every package).
type Scope map[string][]string

// DefaultScope is the repo's contract map.
//
//   - maporder runs on the determinism-critical packages named in the
//     contract: everything between a seeded query and its released bytes,
//     plus the snapshot and wire layers whose output must be stable, and
//     the reproduction suite, whose tables are pinned byte for byte.
//   - rngsource covers the release path end to end — any ambient
//     randomness or wall-clock read there either breaks seeded
//     reproducibility or is an operational clock that must be annotated —
//     and the reproduction suite, whose output depends on its seed alone.
//   - floatorder runs where float64 values are merged across workers or
//     compared: the LP engine, the evaluator, and the serving layers.
//   - wireleak runs everywhere; //privacy:secret annotations and the
//     sinks decide what is flagged.
var DefaultScope = Scope{
	"maporder": {
		"internal/forestlp", "internal/lp", "internal/core", "internal/graph",
		"internal/maxflow", "internal/serve", "internal/snapshot", "internal/httpapi",
		"internal/experiments", "cmd/ccdp", "cmd/detlint", "cmd/experiments",
	},
	"rngsource": {
		"internal/forestlp", "internal/lp", "internal/core", "internal/graph",
		"internal/maxflow", "internal/serve", "internal/snapshot", "internal/httpapi",
		"internal/dpnoise", "internal/mechanism", "internal/privacy",
		"internal/spanning", "internal/downsens", "internal/lipschitz",
		"internal/unionfind", "internal/enumerate", "internal/generate",
		"internal/baseline", "internal/experiments", "nodedp", "cmd/ccdp",
		"cmd/experiments",
	},
	"floatorder": {
		"internal/forestlp", "internal/lp", "internal/core", "internal/graph",
		"internal/maxflow", "internal/serve", "internal/snapshot", "internal/httpapi",
		"internal/mechanism", "internal/dpnoise", "internal/privacy", "nodedp",
	},
	"wireleak": nil, // everywhere
}

// inScope reports whether the analyzer runs on pkgPath under s.
func (s Scope) inScope(analyzer, pkgPath string) bool {
	pats, ok := s[analyzer]
	if !ok || len(pats) == 0 {
		return true
	}
	for _, p := range pats {
		if pkgPath == p || strings.HasSuffix(pkgPath, "/"+p) {
			return true
		}
	}
	return false
}

// Run loads the packages matching patterns from dir, runs every analyzer
// over its in-scope packages, and returns the unsuppressed findings sorted
// by position. Suppression problems (unexplained or malformed
// //detlint:allow directives anywhere in the loaded packages) are returned
// as findings regardless of scope.
func Run(dir string, patterns []string, analyzers []*Analyzer, scope Scope) ([]Finding, error) {
	pkgs, err := Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	return RunPackages(pkgs, analyzers, scope)
}

// RunPackages is Run over already-loaded packages.
func RunPackages(pkgs []*Package, analyzers []*Analyzer, scope Scope) ([]Finding, error) {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}

	// Phase 1: cross-package facts. Every collector sees every loaded
	// package — run detlint over ./... so annotations in one package are
	// visible when analyzing another.
	facts := make(map[string]bool)
	for _, a := range analyzers {
		if a.Collect == nil {
			continue
		}
		for _, pkg := range pkgs {
			for k, v := range a.Collect(passFor(a, pkg, facts, nil)) {
				facts[k] = v
			}
		}
	}

	// Phase 2: run analyzers, filter through suppressions.
	var findings []Finding
	for _, pkg := range pkgs {
		idx, bad := collectSuppressions(pkg, known)
		findings = append(findings, bad...)
		for _, a := range analyzers {
			if !scope.inScope(a.Name, pkg.PkgPath) {
				continue
			}
			var diags []Diagnostic
			pass := passFor(a, pkg, facts, func(d Diagnostic) { diags = append(diags, d) })
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %v", a.Name, pkg.PkgPath, err)
			}
			for _, d := range diags {
				pos := pkg.Fset.Position(d.Pos)
				if idx.suppressed(a.Name, pos) {
					continue
				}
				findings = append(findings, Finding{Analyzer: a.Name, Pos: pos.String(), Message: d.Message})
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		if findings[i].Pos != findings[j].Pos {
			return findings[i].Pos < findings[j].Pos
		}
		return findings[i].Analyzer < findings[j].Analyzer
	})
	return findings, nil
}

func passFor(a *Analyzer, pkg *Package, facts map[string]bool, report func(Diagnostic)) *Pass {
	return &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.TypesInfo,
		Facts:     facts,
		Report:    report,
	}
}
