package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestAllExperimentsQuick runs every registered experiment in quick mode —
// the integration test for the whole reproduction pipeline. Each table must
// render and must not report violations in its failure columns.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite skipped in -short mode")
	}
	cfg := Config{Quick: true, Seed: 1}
	for _, entry := range Registry() {
		entry := entry
		t.Run(entry.ID, func(t *testing.T) {
			table, err := entry.Run(cfg)
			if err != nil {
				t.Fatalf("%s failed: %v", entry.ID, err)
			}
			if table.ID != entry.ID && entry.ID != "E0" {
				t.Fatalf("table id %q under registry id %q", table.ID, entry.ID)
			}
			if len(table.Columns) == 0 || len(table.Rows) == 0 {
				t.Fatalf("%s: empty table", entry.ID)
			}
			var buf bytes.Buffer
			table.Fprint(&buf)
			out := buf.String()
			if !strings.Contains(out, table.Title) {
				t.Fatalf("%s: rendering lost the title:\n%s", entry.ID, out)
			}
			for _, note := range table.Notes {
				if strings.Contains(note, "UNEXPECTED") {
					t.Fatalf("%s: %s", entry.ID, note)
				}
			}
			assertNoViolations(t, table)
		})
	}
}

// assertNoViolations inspects the table's violation-style columns: any
// column whose name contains "violation" or "fails" must be all zeros, and
// boolean "pass"/"tight" columns must be all true.
func assertNoViolations(t *testing.T, table *Table) {
	t.Helper()
	for ci, col := range table.Columns {
		lower := strings.ToLower(col)
		wantZero := strings.Contains(lower, "violation") || strings.Contains(lower, "fails") ||
			strings.Contains(lower, "exceeded") || strings.Contains(lower, "not-spanning")
		wantTrue := lower == "pass" || lower == "tight"
		if !wantZero && !wantTrue {
			continue
		}
		for _, row := range table.Rows {
			if ci >= len(row) {
				continue
			}
			cell := row[ci]
			if wantZero && cell != "0" {
				t.Fatalf("table %s: column %q has value %q, want 0 (row %v)", table.ID, col, cell, row)
			}
			if wantTrue && cell != "true" {
				t.Fatalf("table %s: column %q has value %q, want true (row %v)", table.ID, col, cell, row)
			}
		}
	}
}

func TestLookup(t *testing.T) {
	if _, err := Lookup("E4"); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup("bogus"); err == nil {
		t.Fatal("unknown id should fail")
	}
}

func TestTableFormatting(t *testing.T) {
	table := &Table{
		ID:      "X",
		Title:   "demo",
		Claim:   "none",
		Columns: []string{"a", "bb"},
	}
	table.AddRow(1.0, "x")
	table.AddRow(123.456, 2.5)
	var buf bytes.Buffer
	table.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== X: demo", "a", "bb", "123.5", "2.500"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestStatHelpers(t *testing.T) {
	xs := []float64{3, 1, 2}
	if mean(xs) != 2 {
		t.Fatal("mean broken")
	}
	if percentile(xs, 0.5) != 2 {
		t.Fatal("median broken")
	}
	if percentile(xs, 0) != 1 || percentile(xs, 1) != 3 {
		t.Fatal("extreme percentiles broken")
	}
	if maxFloat(xs) != 3 {
		t.Fatal("max broken")
	}
	if absErr(5, 7) != 2 {
		t.Fatal("absErr broken")
	}
}

func TestModeBreaksTiesTowardSmallest(t *testing.T) {
	cases := []struct {
		xs    []float64
		value float64
		count int
	}{
		{nil, 0, 0},
		{[]float64{4, 2, 4, 2, 8}, 2, 2},
		{[]float64{2, 4, 4, 2, 8}, 2, 2},
		{[]float64{8, 4, 2}, 2, 1},
		{[]float64{8, 4, 8, 2}, 8, 2},
	}
	for _, c := range cases {
		if value, count := mode(c.xs); value != c.value || count != c.count {
			t.Errorf("mode(%v) = %v (%d), want %v (%d)", c.xs, value, count, c.value, c.count)
		}
	}
}
