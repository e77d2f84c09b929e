package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// quickGoldenPath pins the quick suite's output at one seed: the bytes
// `go run ./cmd/experiments -seed <seed>` prints. A change that is meant to
// leave every table alone must reproduce it exactly. Regenerate it ONLY in
// a change that moves a table on purpose:
// NODEDP_UPDATE_GOLDEN=1 go test -run TestQuickSuiteGolden ./internal/experiments
func quickGoldenPath(seed uint64) string {
	return filepath.Join("testdata", fmt.Sprintf("quick-seed%d.txt", seed))
}

// TestQuickSuiteGolden renders the quick suite at seeds 1 and 7 and
// requires the committed fixtures line for line.
func TestQuickSuiteGolden(t *testing.T) {
	for _, seed := range []uint64{1, 7} {
		var buf bytes.Buffer
		if err := Render(&buf, Config{Quick: true, Seed: seed}, ""); err != nil {
			t.Fatal(err)
		}
		path := quickGoldenPath(seed)
		if os.Getenv("NODEDP_UPDATE_GOLDEN") == "1" {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading golden fixture: %v", err)
		}
		got, want := strings.Split(buf.String(), "\n"), strings.Split(string(raw), "\n")
		for i := 0; i < max(len(got), len(want)); i++ {
			var g, w string
			if i < len(got) {
				g = got[i]
			}
			if i < len(want) {
				w = want[i]
			}
			if g != w {
				t.Fatalf("seed %d: %s line %d differs:\ngot  %q\nwant %q", seed, path, i+1, g, w)
			}
		}
	}
}
