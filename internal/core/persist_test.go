package core

// Conformance tests for plan-cache persistence: a snapshot-reloaded plan
// must be indistinguishable — bit for bit, including seeded private
// releases, plan keys, and admission weights — from the live plan that
// was saved, across graph families and separation-worker configurations;
// and damaged snapshots must degrade by skipping entries, never by loading
// a wrong plan or panicking.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nodedp/internal/generate"
	"nodedp/internal/graph"
	"nodedp/internal/snapshot"
)

// persistFamilies spans the structurally distinct regimes: a sparse ER
// graph (many components, fast paths), a grid (one structured component),
// and a supercritical ER giant component (LP-heavy, the case warm starts
// and cut pools exist for).
func persistFamilies(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	return map[string]*graph.Graph{
		"er-sparse": generate.ErdosRenyi(60, 0.02, generate.NewRand(11)),
		"grid":      generate.Grid(7, 7),
		"er-giant":  generate.ErdosRenyi(40, 0.12, generate.NewRand(12)),
	}
}

// releaseTriple runs the three seeded release paths on one grid evaluation.
func releaseTriple(t *testing.T, ge *GridEval, seed uint64) [3]Result {
	t.Helper()
	var out [3]Result
	for i, run := range []func(context.Context, *GridEval, Options) (Result, error){
		EstimateComponentCountFromGrid,
		EstimateComponentCountKnownNFromGrid,
		EstimateSpanningForestSizeFromGrid,
	} {
		res, err := run(context.Background(), ge, Options{Epsilon: 0.7, Rand: generate.NewRand(seed + uint64(i))})
		if err != nil {
			t.Fatalf("release %d: %v", i, err)
		}
		out[i] = res
	}
	return out
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestPlanCacheSaveLoadBitIdentity is the core of the conformance suite:
// for every graph family and Workers ∈ {1, 8}, a cache saved and
// reloaded into a fresh cache serves the lookup as a hit, with the same
// plan key and admission weight, and seeded releases from the reloaded
// plan are bit-identical to releases from the live plan.
func TestPlanCacheSaveLoadBitIdentity(t *testing.T) {
	ctx := context.Background()
	for name, g := range persistFamilies(t) {
		for _, workers := range []int{1, 8} {
			opts := Options{Epsilon: 1}
			opts.ForestLP.Workers = workers

			live := NewPlanCacheWeighted(1 << 30)
			geLive, hit, err := live.GridEval(ctx, g, opts)
			if err != nil {
				t.Fatalf("%s/workers=%d: %v", name, workers, err)
			}
			if hit {
				t.Fatalf("%s/workers=%d: first lookup was a hit", name, workers)
			}

			var buf bytes.Buffer
			n, err := live.Save(&buf)
			if err != nil || n != 1 {
				t.Fatalf("%s/workers=%d: Save = %d, %v", name, workers, n, err)
			}

			warm := NewPlanCacheWeighted(1 << 30)
			rep, err := warm.Load(bytes.NewReader(buf.Bytes()))
			if err != nil || rep.Loaded != 1 || rep.Skipped() != 0 {
				t.Fatalf("%s/workers=%d: Load report %+v, err %v", name, workers, rep, err)
			}

			geWarm, hit, err := warm.GridEval(ctx, g, opts)
			if err != nil {
				t.Fatalf("%s/workers=%d: warm lookup: %v", name, workers, err)
			}
			if !hit {
				t.Fatalf("%s/workers=%d: reloaded cache missed — the restart would replan", name, workers)
			}

			// The reloaded evaluation IS the saved one, field for field.
			if geWarm.fingerprint != geLive.fingerprint || geWarm.n != geLive.n || geWarm.m != geLive.m {
				t.Fatalf("%s/workers=%d: identity fields changed across reload", name, workers)
			}
			if !sameBits(geWarm.fsf, geLive.fsf) {
				t.Fatalf("%s/workers=%d: fsf changed across reload", name, workers)
			}
			for i := range geLive.fdeltas {
				if !sameBits(geWarm.fdeltas[i], geLive.fdeltas[i]) || !sameBits(geWarm.grid[i], geLive.grid[i]) {
					t.Fatalf("%s/workers=%d: grid value %d changed across reload", name, workers, i)
				}
			}
			if geWarm.stats != geLive.stats {
				t.Fatalf("%s/workers=%d: engine counters changed across reload:\nlive %+v\nwarm %+v",
					name, workers, geLive.stats, geWarm.stats)
			}

			// Seeded releases from the reloaded plan are bit-identical.
			for _, seed := range []uint64{1, 42, 9999} {
				want := releaseTriple(t, geLive, seed)
				got := releaseTriple(t, geWarm, seed)
				for i := range want {
					if !sameBits(got[i].Value, want[i].Value) || !sameBits(got[i].Delta, want[i].Delta) ||
						!sameBits(got[i].NoiseScale, want[i].NoiseScale) || !sameBits(got[i].NHat, want[i].NHat) ||
						!sameBits(got[i].FDelta, want[i].FDelta) {
						t.Fatalf("%s/workers=%d seed=%d release %d differs after reload:\nlive %+v\nwarm %+v",
							name, workers, seed, i, want[i], got[i])
					}
				}
			}

			// CacheStats weights — the GreedyDual-Size admission state — carry
			// across: same entry weights, same total.
			ls, ws := live.Stats(), warm.Stats()
			if ls.Weight != ws.Weight || !reflect.DeepEqual(ls.EntryWeights, ws.EntryWeights) {
				t.Fatalf("%s/workers=%d: weights changed across reload: live %v/%v warm %v/%v",
					name, workers, ls.Weight, ls.EntryWeights, ws.Weight, ws.EntryWeights)
			}
			if ws.SnapshotLoads != 1 || ws.SnapshotEntriesLoaded != 1 || ls.SnapshotSaves != 1 || ls.SnapshotEntriesSaved != 1 {
				t.Fatalf("%s/workers=%d: snapshot counters wrong: live %+v warm %+v", name, workers, ls, ws)
			}
		}
	}
}

// TestSaveLoadMultiEntryOrderAndCredit: a multi-entry cache round-trips its
// recency order and eviction credits, so the reloaded cache evicts in the
// same order the live one would have.
func TestSaveLoadMultiEntryOrderAndCredit(t *testing.T) {
	ctx := context.Background()
	live := NewPlanCacheWeighted(1 << 30)
	for name, g := range persistFamilies(t) {
		if _, _, err := live.GridEval(ctx, g, Options{Epsilon: 1}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}

	var buf bytes.Buffer
	if _, err := live.Save(&buf); err != nil {
		t.Fatal(err)
	}
	warm := NewPlanCacheWeighted(1 << 30)
	if rep, err := warm.Load(bytes.NewReader(buf.Bytes())); err != nil || rep.Loaded != 3 {
		t.Fatalf("load: %+v, %v", rep, err)
	}

	if got, want := cachedFingerprints(warm), cachedFingerprints(live); !reflect.DeepEqual(got, want) {
		t.Fatalf("recency order changed across reload:\nlive %v\nwarm %v", want, got)
	}
	// Per-entry GreedyDual-Size credits survive: compare the internal h
	// values relative to each cache's clock.
	liveCredits := entryCredits(live)
	warmCredits := entryCredits(warm)
	if !reflect.DeepEqual(liveCredits, warmCredits) {
		t.Fatalf("eviction credits changed across reload:\nlive %v\nwarm %v", liveCredits, warmCredits)
	}
}

// entryCredits returns each entry's credit above the cache clock in MRU
// order (clamped the way Save clamps).
// cachedFingerprints lists the cached entries' graph fingerprints in
// most-recently-used-first order.
func cachedFingerprints(c *PlanCache) []graph.Fingerprint {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []graph.Fingerprint
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*cacheEntry).fp)
	}
	return out
}

func entryCredits(c *PlanCache) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []float64
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		credit := e.h - c.clock
		if credit < 0 {
			credit = 0
		}
		if cost := float64(e.ge.Cost()); credit > cost {
			credit = cost
		}
		out = append(out, credit)
	}
	return out
}

// TestLoadRespectsBounds: loading a big snapshot into a small cache evicts
// exactly as live inserts would — the bound holds, nothing overflows.
func TestLoadRespectsBounds(t *testing.T) {
	ctx := context.Background()
	live := NewPlanCacheWeighted(1 << 30)
	for _, g := range persistFamilies(t) {
		if _, _, err := live.GridEval(ctx, g, Options{Epsilon: 1}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := live.Save(&buf); err != nil {
		t.Fatal(err)
	}

	small := NewPlanCache(2) // entry-bounded
	rep, err := small.Load(bytes.NewReader(buf.Bytes()))
	if err != nil || rep.Loaded != 3 {
		t.Fatalf("load: %+v, %v", rep, err)
	}
	if small.Len() != 2 {
		t.Fatalf("entry bound violated after load: %d entries", small.Len())
	}
	if s := small.Stats(); s.Evictions != 1 {
		t.Fatalf("expected 1 eviction during bounded load, got %+v", s)
	}
}

// TestLoadSkipsDamagedEntries: a snapshot with one bit-flipped entry loads
// the healthy entries and reports the damage with a typed error; nothing
// wrong enters the cache and nothing panics.
func TestLoadSkipsDamagedEntries(t *testing.T) {
	ctx := context.Background()
	live := NewPlanCacheWeighted(1 << 30)
	for _, g := range persistFamilies(t) {
		if _, _, err := live.GridEval(ctx, g, Options{Epsilon: 1}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := live.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip a byte inside the first entry's payload (after 16-byte header +
	// 4-byte length prefix + a few fields).
	raw[16+4+20] ^= 0x10

	warm := NewPlanCacheWeighted(1 << 30)
	rep, err := warm.Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if rep.Loaded != 2 || rep.SkippedCorrupt != 1 {
		t.Fatalf("report %+v, want 2 loaded + 1 corrupt", rep)
	}
	var cerr *snapshot.CorruptEntryError
	if len(rep.Errs) == 0 || !errors.As(rep.Errs[0], &cerr) {
		t.Fatalf("errs %v, want a typed CorruptEntryError", rep.Errs)
	}
	if s := warm.Stats(); s.SnapshotEntriesSkipped != 1 || s.SnapshotEntriesLoaded != 2 {
		t.Fatalf("snapshot counters %+v", s)
	}
}

// TestLoadRejectsInvariantViolations: an entry that passes its checksum but
// violates a grid-evaluation invariant (here: a value above f_sf, a grid
// that disagrees with its DeltaMax, or a DeltaMax other than max(N, 1)) is
// skipped with a typed *InvalidEntryError — the "never load a
// silently-wrong plan" half of the contract that checksums alone cannot
// give.
func TestLoadRejectsInvariantViolations(t *testing.T) {
	mk := func(mutate func(*snapshot.Entry)) []byte {
		e := snapshot.Entry{
			Fingerprint: graph.Fingerprint{Hi: 3, Lo: 4},
			OptsDigest:  planOptionsDigest(4),
			N:           4, M: 3,
			DeltaMax: 4,
			FSF:      3,
			Grid:     []float64{1, 2, 4},
			FDeltas:  []float64{2, 3, 3},
		}
		mutate(&e)
		var buf bytes.Buffer
		if err := snapshot.Encode(&buf, &snapshot.Snapshot{Entries: []snapshot.Entry{e}}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	cases := map[string]func(*snapshot.Entry){
		"value above fsf":     func(e *snapshot.Entry) { e.FDeltas[1] = 5 },
		"negative value":      func(e *snapshot.Entry) { e.FDeltas[0] = -1 },
		"grid/deltaMax clash": func(e *snapshot.Entry) { e.Grid = []float64{1, 3, 4} },
		"fsf above n-1":       func(e *snapshot.Entry) { e.FSF = 9; e.FDeltas = []float64{2, 3, 3} },
		"zero fingerprint":    func(e *snapshot.Entry) { e.Fingerprint = graph.Fingerprint{} },
		"empty digest":        func(e *snapshot.Entry) { e.OptsDigest = "" },
		"other dmax digest":   func(e *snapshot.Entry) { e.OptsDigest = planOptionsDigest(8) },
		// Saved under a DeltaMax option of 2: grid, values and digest agree
		// with it, but no lookup of a 4-vertex graph asks for that grid.
		"deltaMax not max(N, 1)": func(e *snapshot.Entry) {
			e.DeltaMax, e.Grid, e.FDeltas = 2, []float64{1, 2}, []float64{2, 3}
			e.OptsDigest = planOptionsDigest(2)
		},
		"NaN value": func(e *snapshot.Entry) { e.FDeltas[0] = math.NaN() },
	}
	for name, mutate := range cases {
		c := NewPlanCache(4)
		rep, err := c.Load(bytes.NewReader(mk(mutate)))
		if err != nil {
			t.Fatalf("%s: Load: %v", name, err)
		}
		if rep.Loaded != 0 || rep.SkippedInvalid != 1 {
			t.Fatalf("%s: report %+v, want the entry skipped as invalid", name, rep)
		}
		var ierr *InvalidEntryError
		if len(rep.Errs) != 1 || !errors.As(rep.Errs[0], &ierr) {
			t.Fatalf("%s: errs %v, want InvalidEntryError", name, rep.Errs)
		}
		if c.Len() != 0 {
			t.Fatalf("%s: invalid entry entered the cache", name)
		}
	}

	// The control encodes cleanly, and its stalled pieces reach CacheStats.
	c := NewPlanCache(4)
	control := mk(func(e *snapshot.Entry) { e.Stats.StalledPieces = 2 })
	if rep, err := c.Load(bytes.NewReader(control)); err != nil || rep.Loaded != 1 {
		t.Fatalf("control entry did not load: %+v, %v", rep, err)
	}
	if got := c.Stats().EngineStalledPieces; got != 2 {
		t.Fatalf("EngineStalledPieces = %d, want 2", got)
	}
}

// TestLoadKeysByFingerprint: the plan key is the fingerprint, and an entry
// loads only under the digest its vertex count implies. The digest written
// under default options when the engine's settings were still options
// loads and hits; one written under a wave width of 32 can never be asked
// for and is skipped as invalid.
func TestLoadKeysByFingerprint(t *testing.T) {
	ctx := context.Background()
	g := generate.Grid(5, 5)
	live := NewPlanCache(4)
	geLive, _, err := live.GridEval(ctx, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := live.Save(&buf); err != nil {
		t.Fatal(err)
	}
	snap, _, err := snapshot.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	const defaultDigest = "dmax=25 tol=1e-07 rounds=1000 cuts=48 drop=3 stall=80 nofast=false nopeel=false " +
		"nowarm=false noincr=false exh=false wave=16 lp={Tol:0 MaxPivots:0 BlandAfter:0 Basis:[]}"
	if got := snap.Entries[0].OptsDigest; got != defaultDigest {
		t.Fatalf("saved digest\n got %s\nwant %s", got, defaultDigest)
	}
	load := func(digest string) (*PlanCache, LoadReport) {
		t.Helper()
		e := snap.Entries[0]
		e.OptsDigest = digest
		var b bytes.Buffer
		if err := snapshot.Encode(&b, &snapshot.Snapshot{Entries: []snapshot.Entry{e}}); err != nil {
			t.Fatal(err)
		}
		c := NewPlanCache(4)
		rep, err := c.Load(&b)
		if err != nil {
			t.Fatal(err)
		}
		return c, rep
	}

	c, rep := load(defaultDigest)
	if rep.Loaded != 1 || rep.Skipped() != 0 {
		t.Fatalf("default digest: report %+v, want 1 loaded", rep)
	}
	ge, hit, err := c.GridEval(ctx, g, Options{})
	if err != nil || !hit {
		t.Fatalf("default digest: hit=%v err=%v, want a hit", hit, err)
	}
	for i := range geLive.fdeltas {
		if !sameBits(ge.fdeltas[i], geLive.fdeltas[i]) {
			t.Fatalf("grid value %d changed across reload", i)
		}
	}

	c, rep = load(strings.Replace(defaultDigest, "wave=16", "wave=32", 1))
	var ierr *InvalidEntryError
	if rep.Loaded != 0 || rep.SkippedInvalid != 1 || len(rep.Errs) != 1 || !errors.As(rep.Errs[0], &ierr) {
		t.Fatalf("wave=32 digest: report %+v, want the entry skipped as invalid", rep)
	}
	if c.Len() != 0 {
		t.Fatal("wave=32 entry entered the cache")
	}
}

// TestLoadDefaultsV2Fixture: testdata/defaults-v2.snap holds two entries
// that a plan cache saved under default options while DeltaMax, Beta and
// the count share were still options: generate.Grid(5, 5) and the
// three-component graph below. The file is never regenerated. Both
// entries load, both graphs hit, and the loaded grid values and work
// counters are bit-identical to a fresh evaluation, so snapshots saved
// under the defaults keep serving across the removal.
func TestLoadDefaultsV2Fixture(t *testing.T) {
	three, err := graph.FromEdges(12, []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 1, V: 2}, {U: 1, V: 3}, {U: 2, V: 3}, // K4
		{U: 4, V: 5}, {U: 5, V: 6}, // path
		{U: 7, V: 8}, {U: 8, V: 9}, {U: 9, V: 10}, {U: 10, V: 11}, {U: 11, V: 7}, // 5-cycle
	})
	if err != nil {
		t.Fatal(err)
	}
	c := NewPlanCache(4)
	rep, err := c.LoadFile(filepath.Join("testdata", "defaults-v2.snap"))
	if err != nil || rep.Loaded != 2 || rep.Skipped() != 0 {
		t.Fatalf("Load report %+v, err %v, want 2 loaded and 0 skipped", rep, err)
	}
	ctx := context.Background()
	for name, g := range map[string]*graph.Graph{"grid-5x5": generate.Grid(5, 5), "three-components": three} {
		ge, hit, err := c.GridEval(ctx, g, Options{})
		if err != nil || !hit {
			t.Fatalf("%s: hit=%v err=%v, want a hit", name, hit, err)
		}
		fresh, _, err := (*PlanCache)(nil).GridEval(ctx, g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if ge.n != fresh.n || ge.m != fresh.m || !sameBits(ge.fsf, fresh.fsf) || len(ge.grid) != len(fresh.grid) {
			t.Fatalf("%s: loaded (n=%d m=%d fsf=%v %d points), fresh (n=%d m=%d fsf=%v %d points)", name,
				ge.n, ge.m, ge.fsf, len(ge.grid), fresh.n, fresh.m, fresh.fsf, len(fresh.grid))
		}
		for i := range fresh.grid {
			if !sameBits(ge.grid[i], fresh.grid[i]) || !sameBits(ge.fdeltas[i], fresh.fdeltas[i]) {
				t.Fatalf("%s: point %d is (Δ=%v, %v) loaded, (Δ=%v, %v) fresh", name, i,
					ge.grid[i], ge.fdeltas[i], fresh.grid[i], fresh.fdeltas[i])
			}
		}
		// Workers is the pool size resolved on the saving machine.
		loaded, want := ge.stats, fresh.stats
		loaded.Workers, want.Workers = 0, 0
		if loaded != want {
			t.Fatalf("%s: work counters\nloaded %+v\nfresh  %+v", name, loaded, want)
		}
	}
}

// TestLoadDuplicateKeepsLiveEntry: loading a snapshot over a cache that
// already holds the key keeps the live entry and reports a duplicate.
func TestLoadDuplicateKeepsLiveEntry(t *testing.T) {
	ctx := context.Background()
	g := generate.Grid(5, 5)
	c := NewPlanCacheWeighted(1 << 30)
	geLive, _, err := c.GridEval(ctx, g, Options{Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Load(bytes.NewReader(buf.Bytes()))
	if err != nil || rep.Loaded != 0 || rep.Duplicates != 1 {
		t.Fatalf("report %+v, err %v, want 1 duplicate", rep, err)
	}
	geAgain, hit, err := c.GridEval(ctx, g, Options{Epsilon: 1})
	if err != nil || !hit || geAgain != geLive {
		t.Fatalf("live entry was displaced by the loaded duplicate")
	}
}

// TestLoadFileMissingAndCorruptHeader: the daemon's two cold-start cases —
// no file yet (fs.ErrNotExist) and an unreadable file (typed error) — both
// leave the cache empty and usable.
func TestLoadFileMissingAndCorruptHeader(t *testing.T) {
	dir := t.TempDir()
	c := NewPlanCache(4)

	if _, err := c.LoadFile(filepath.Join(dir, "absent.snap")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: err = %v, want ErrNotExist", err)
	}

	bad := filepath.Join(dir, "garbage.snap")
	if err := os.WriteFile(bad, []byte("this is not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := c.LoadFile(bad); !errors.Is(err, snapshot.ErrBadMagic) {
		t.Fatalf("garbage file: err = %v, want ErrBadMagic", err)
	}

	future := filepath.Join(dir, "future.snap")
	var buf bytes.Buffer
	if err := snapshot.Encode(&buf, &snapshot.Snapshot{}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	binary.LittleEndian.PutUint32(raw[8:12], snapshot.FormatVersion+3)
	if err := os.WriteFile(future, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var verr *snapshot.UnsupportedVersionError
	if _, err := c.LoadFile(future); !errors.As(err, &verr) {
		t.Fatalf("future file: err = %v, want UnsupportedVersionError", err)
	}

	if c.Len() != 0 {
		t.Fatal("failed loads left entries behind")
	}

	// Usable: the cold cache still plans a graph, and a second open of it
	// hits the entry the first admitted.
	g := generate.Grid(3, 3)
	for _, wantHit := range []bool{false, true} {
		if _, hit, err := c.GridEval(context.Background(), g, Options{}); err != nil || hit != wantHit {
			t.Fatalf("GridEval after the failed loads: hit=%v err=%v, want hit=%v", hit, err, wantHit)
		}
	}
}

// TestSaveFileAtomic: SaveFile writes a decodable file, and a failed save
// (nonexistent directory) neither creates the file nor counts a save.
func TestSaveFileAtomic(t *testing.T) {
	ctx := context.Background()
	c := NewPlanCacheWeighted(1 << 30)
	if _, _, err := c.GridEval(ctx, generate.Grid(4, 4), Options{Epsilon: 1}); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "cache.snap")
	if n, err := c.SaveFile(path); err != nil || n != 1 {
		t.Fatalf("SaveFile = %d, %v", n, err)
	}
	warm := NewPlanCacheWeighted(1 << 30)
	if rep, err := warm.LoadFile(path); err != nil || rep.Loaded != 1 {
		t.Fatalf("reload: %+v, %v", rep, err)
	}

	before := c.Stats().SnapshotSaves
	if _, err := c.SaveFile(filepath.Join(t.TempDir(), "no-such", "cache.snap")); err == nil {
		t.Fatal("save into nonexistent directory succeeded")
	}
	if after := c.Stats().SnapshotSaves; after != before {
		t.Fatalf("failed save still counted: %d → %d", before, after)
	}
}
