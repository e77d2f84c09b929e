package analysis

import "testing"

func TestScopeInScope(t *testing.T) {
	s := Scope{
		"maporder": {"internal/forestlp", "cmd/ccdp"},
		"wireleak": nil,
	}
	cases := []struct {
		analyzer, pkg string
		want          bool
	}{
		{"maporder", "nodedp/internal/forestlp", true},
		{"maporder", "internal/forestlp", true}, // exact match, no module prefix
		{"maporder", "nodedp/internal/lp", false},
		{"maporder", "nodedp/internal/forestlpx", false}, // suffix match is per path segment
		{"maporder", "nodedp/cmd/ccdp", true},
		{"wireleak", "nodedp/internal/anything", true}, // empty list = everywhere
		{"rngsource", "nodedp/internal/lp", true},      // unlisted analyzer = everywhere
	}
	for _, c := range cases {
		if got := s.inScope(c.analyzer, c.pkg); got != c.want {
			t.Errorf("inScope(%s, %s) = %v, want %v", c.analyzer, c.pkg, got, c.want)
		}
	}
}

func TestDefaultScopeCoversExperiments(t *testing.T) {
	// The reproduction suite's tables are pinned byte for byte, so no map
	// order, clock or ambient randomness may reach them.
	for _, analyzer := range []string{"maporder", "rngsource"} {
		for _, pkg := range []string{"nodedp/internal/experiments", "nodedp/cmd/experiments"} {
			if !DefaultScope.inScope(analyzer, pkg) {
				t.Errorf("%s must cover %s", analyzer, pkg)
			}
		}
	}
	if !DefaultScope.inScope("rngsource", "nodedp/internal/forestlp") {
		t.Error("rngsource must cover the release-path engine")
	}
	if !DefaultScope.inScope("wireleak", "nodedp/internal/experiments") {
		t.Error("wireleak runs everywhere, including experiments")
	}
}
