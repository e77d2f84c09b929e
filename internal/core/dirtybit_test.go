package core

// Tests for the dirty-bit snapshot gate: SaveFileIfChanged must skip the
// write when nothing a snapshot persists has changed since the last save,
// and must write again after any persisted mutation — an insert, a hit
// (recency and credit are persisted state), or a load.

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"nodedp/internal/generate"
)

// mtime-free helper: read the snapshot bytes so "file rewritten" can be
// asserted by content identity rather than timestamps (which have coarse
// granularity on some filesystems).
func snapBytes(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSaveFileIfChangedSkipsWhenClean(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "plans.snap")
	c := NewPlanCacheWeighted(1 << 30)
	g := generate.ErdosRenyi(40, 0.05, generate.NewRand(5))
	if _, _, err := c.GridEval(ctx, g, Options{Epsilon: 1}); err != nil {
		t.Fatal(err)
	}

	n, saved, err := c.SaveFileIfChanged(path)
	if err != nil || !saved || n != 1 {
		t.Fatalf("first save: n=%d saved=%v err=%v, want a real write of 1 entry", n, saved, err)
	}

	// Nothing changed: the next two periodic saves must be skipped, counted,
	// and leave the file untouched.
	before := snapBytes(t, path)
	for i := 0; i < 2; i++ {
		n, saved, err = c.SaveFileIfChanged(path)
		if err != nil || saved || n != 0 {
			t.Fatalf("clean save %d: n=%d saved=%v err=%v, want skip", i, n, saved, err)
		}
	}
	if got := c.Stats().SnapshotSavesSkipped; got != 2 {
		t.Fatalf("SnapshotSavesSkipped = %d, want 2", got)
	}
	if got := c.Stats().SnapshotSaves; got != 1 {
		t.Fatalf("SnapshotSaves = %d, want 1 (skips must not count as saves)", got)
	}
	if string(snapBytes(t, path)) != string(before) {
		t.Fatal("skipped save rewrote the snapshot file")
	}
}

func TestSaveFileIfChangedDirtyTriggers(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "plans.snap")
	c := NewPlanCacheWeighted(1 << 30)
	g1 := generate.ErdosRenyi(40, 0.05, generate.NewRand(5))
	g2 := generate.Grid(6, 6)
	if _, _, err := c.GridEval(ctx, g1, Options{Epsilon: 1}); err != nil {
		t.Fatal(err)
	}
	if _, saved, err := c.SaveFileIfChanged(path); err != nil || !saved {
		t.Fatalf("initial save: saved=%v err=%v", saved, err)
	}

	// A cache hit is a persisted mutation: it refreshes the entry's recency
	// and GreedyDual-Size credit, both of which Save serializes.
	if _, hit, err := c.GridEval(ctx, g1, Options{Epsilon: 1}); err != nil || !hit {
		t.Fatalf("expected hit: hit=%v err=%v", hit, err)
	}
	if _, saved, err := c.SaveFileIfChanged(path); err != nil || !saved {
		t.Fatalf("save after hit: saved=%v err=%v, want a write", saved, err)
	}

	// An insert dirties the cache.
	if _, _, err := c.GridEval(ctx, g2, Options{Epsilon: 1}); err != nil {
		t.Fatal(err)
	}
	n, saved, err := c.SaveFileIfChanged(path)
	if err != nil || !saved || n != 2 {
		t.Fatalf("save after insert: n=%d saved=%v err=%v, want 2 entries", n, saved, err)
	}
}

// TestSaveFileIfChangedLoadDirties: merging snapshot entries into a cache
// is an insert, so a freshly loaded cache saves once and then goes quiet.
func TestSaveFileIfChangedLoadDirties(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	src := filepath.Join(dir, "src.snap")
	dst := filepath.Join(dir, "dst.snap")

	c := NewPlanCacheWeighted(1 << 30)
	g := generate.ErdosRenyi(40, 0.05, generate.NewRand(5))
	if _, _, err := c.GridEval(ctx, g, Options{Epsilon: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SaveFile(src); err != nil {
		t.Fatal(err)
	}

	warm := NewPlanCacheWeighted(1 << 30)
	if rep, err := warm.LoadFile(src); err != nil || rep.Loaded != 1 {
		t.Fatalf("load: %+v, %v", rep, err)
	}
	if _, saved, err := warm.SaveFileIfChanged(dst); err != nil || !saved {
		t.Fatalf("save after load: saved=%v err=%v, want a write", saved, err)
	}
	if _, saved, err := warm.SaveFileIfChanged(dst); err != nil || saved {
		t.Fatalf("second save after load: saved=%v err=%v, want skip", saved, err)
	}
}
