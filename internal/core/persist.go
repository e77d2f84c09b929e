package core

// This file implements plan-cache persistence: Save serializes every cached
// grid evaluation through the versioned codec in internal/snapshot, and
// Load merges a snapshot back into a (possibly warm) cache. Together with
// the daemon wiring in cmd/ccdp this is what survives the expensive half of
// Algorithm 1 — the Δ-grid of Lipschitz-extension LPs — across process
// restarts: a reloaded entry is bit-for-bit the evaluation that was saved,
// so a seeded release from a reloaded plan is bit-identical to one from the
// live cache that produced it (certified by the conformance tests in this
// package and internal/serve).
//
// Load is deliberately forgiving about the file and strict about the
// entries: corrupt or unknown-version entries are skipped with typed errors
// (a daemon boot must never be held hostage by one damaged record), but an
// entry that decodes is still re-validated against the format's invariants
// — DeltaMax must be max(n, 1), the options digest the one for that n, the
// grid exactly the power-of-two grid of DeltaMax, values must lie in
// [0, f_sf], the fingerprint must be set — before it can ever serve a
// query, so a silently-wrong plan cannot enter the cache.

import (
	"fmt"
	"io"
	"math"

	"nodedp/internal/mechanism"
	"nodedp/internal/snapshot"
)

// LoadReport describes what PlanCache.Load salvaged and skipped. Errs
// carries one typed error per skipped entry (snapshot.CorruptEntryError,
// snapshot.EntryVersionError, snapshot.TruncatedError, or *InvalidEntryError),
// so callers can log exactly what was lost.
type LoadReport struct {
	// Loaded counts entries inserted into the cache; Duplicates counts
	// decoded entries whose key was already cached (the live entry wins —
	// it is at least as fresh).
	Loaded, Duplicates int
	// SkippedCorrupt and SkippedVersion mirror the codec's report;
	// SkippedInvalid counts entries that decoded but failed the grid
	// evaluation invariants.
	SkippedCorrupt, SkippedVersion, SkippedInvalid int
	// Truncated reports that the snapshot ended before its declared
	// entries (the prefix still loads).
	Truncated bool
	// Errs holds one typed error per skipped entry.
	Errs []error
}

// Skipped returns the total number of snapshot entries that did not make it
// into the cache (duplicates excluded: those were not lost, just already
// present).
func (r *LoadReport) Skipped() int {
	return r.SkippedCorrupt + r.SkippedVersion + r.SkippedInvalid
}

// InvalidEntryError reports a snapshot entry that decoded cleanly but
// violates a grid-evaluation invariant; loading it could serve wrong
// values, so it is skipped instead.
type InvalidEntryError struct {
	Index  int
	Reason string
}

func (e *InvalidEntryError) Error() string {
	return fmt.Sprintf("core: snapshot entry %d invalid: %s; skipped", e.Index, e.Reason)
}

// Save serializes the cache's current entries to w in most-recently-used-
// first order, including each entry's GreedyDual-Size credit so eviction
// priority survives a reload. It returns the number of entries written.
// Cached GridEvals are immutable, so Save holds the cache lock only long
// enough to snapshot the entry list — concurrent lookups and inserts
// proceed while the bytes are written.
func (c *PlanCache) Save(w io.Writer) (int, error) {
	return c.save(func(snap *snapshot.Snapshot) error { return snapshot.Encode(w, snap) })
}

// SaveFile is Save with atomic write-then-rename file semantics: a crash or
// error mid-save leaves any previous snapshot at path intact.
func (c *PlanCache) SaveFile(path string) (int, error) {
	return c.save(func(snap *snapshot.Snapshot) error { return snapshot.WriteFileAtomic(path, snap) })
}

// SaveFileIfChanged is SaveFile gated by the cache's generation counter:
// when nothing that a snapshot persists has changed since the last
// successful save — no inserts, loads, hits, or evictions —
// the serialization and the atomic rename are skipped entirely and the
// skip is counted in Stats().SnapshotSavesSkipped. saved reports whether a
// file was written. This is the daemon's periodic-save path; explicit
// saves (drain, admin endpoint) keep using SaveFile, which always writes.
func (c *PlanCache) SaveFileIfChanged(path string) (entries int, saved bool, err error) {
	c.mu.Lock()
	dirty := c.gen != c.savedGen
	if !dirty {
		c.stats.SnapshotSavesSkipped++
	}
	c.mu.Unlock()
	if !dirty {
		return 0, false, nil
	}
	entries, err = c.SaveFile(path)
	return entries, err == nil, err
}

// save snapshots the entry list under the lock, hands it to write, and
// counts a successful pass.
func (c *PlanCache) save(write func(*snapshot.Snapshot) error) (int, error) {
	c.mu.Lock()
	snapGen := c.gen
	snap := &snapshot.Snapshot{Entries: make([]snapshot.Entry, 0, c.ll.Len())}
	for el := c.ll.Front(); el != nil; el = el.Next() {
		entry := el.Value.(*cacheEntry)
		snap.Entries = append(snap.Entries, entryToSnapshot(entry, c.clock))
	}
	c.mu.Unlock()

	if err := write(snap); err != nil {
		return 0, err
	}
	c.mu.Lock()
	c.stats.SnapshotSaves++
	c.stats.SnapshotEntriesSaved += int64(len(snap.Entries))
	// The bytes on disk now reflect generation snapGen. Changes that raced
	// the write keep the cache dirty (snapGen < gen), so the next periodic
	// save still runs.
	c.savedGen = snapGen
	c.mu.Unlock()
	return len(snap.Entries), nil
}

// entryToSnapshot renders one cache entry for the codec. The GreedyDual-
// Size credit is stored relative to the cache clock (clamped into
// [0, cost]) so it stays meaningful in the loading cache, whose clock
// differs.
func entryToSnapshot(entry *cacheEntry, clock float64) snapshot.Entry {
	ge := entry.ge
	credit := entry.h - clock
	if credit < 0 {
		credit = 0
	}
	if cost := float64(ge.Cost()); credit > cost {
		credit = cost
	}
	return snapshot.Entry{
		Fingerprint: entry.fp,
		OptsDigest:  planOptionsDigest(ge.n),
		N:           ge.n,
		M:           ge.m,
		DeltaMax:    deltaMax(ge.n),
		FSF:         ge.fsf,
		Grid:        ge.grid,
		FDeltas:     ge.fdeltas,
		Credit:      credit,
		Stats:       ge.stats,
	}
}

// Load decodes a snapshot from r and merges its entries into the cache,
// respecting the cache's entry and weight bounds (loading into a small
// cache evicts exactly as live inserts would). Entries already present are
// left untouched. Corrupt, unknown-version, and invariant-violating entries
// are skipped with typed errors in the report — never a panic, never a
// silently-wrong plan, and never a failed load of the healthy entries. The
// returned error is non-nil only when the file itself is unreadable (bad
// magic, unsupported format version, truncated header); the daemon treats
// that as "continue with a cold cache", not a boot failure.
func (c *PlanCache) Load(r io.Reader) (LoadReport, error) {
	snap, codecRep, err := snapshot.Decode(r)
	return c.load(snap, codecRep, err)
}

// LoadFile is Load reading from path. A missing file surfaces as the open
// error (errors.Is(err, fs.ErrNotExist)), which callers treat as a cold
// first boot rather than damage.
func (c *PlanCache) LoadFile(path string) (LoadReport, error) {
	snap, codecRep, err := snapshot.ReadFile(path)
	return c.load(snap, codecRep, err)
}

// load maps the codec's outcome to a LoadReport and, when the file itself
// was readable, merges the decoded entries.
func (c *PlanCache) load(snap *snapshot.Snapshot, codecRep *snapshot.Report, err error) (LoadReport, error) {
	rep := LoadReport{}
	if codecRep != nil {
		rep.SkippedCorrupt = codecRep.SkippedCorrupt
		rep.SkippedVersion = codecRep.SkippedVersion
		rep.Truncated = codecRep.Truncated
		rep.Errs = codecRep.Errs
	}
	if err != nil {
		return rep, err
	}
	c.mergeEntries(snap, &rep)
	return rep, nil
}

// mergeEntries validates and inserts decoded entries. The snapshot lists
// entries most-recently-used first; inserting in reverse order reproduces
// that recency order in the loading cache.
func (c *PlanCache) mergeEntries(snap *snapshot.Snapshot, rep *LoadReport) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.SnapshotLoads++
	for i := len(snap.Entries) - 1; i >= 0; i-- {
		e := &snap.Entries[i]
		ge, err := gridEvalFromSnapshot(e)
		if err != nil {
			rep.SkippedInvalid++
			rep.Errs = append(rep.Errs, &InvalidEntryError{Index: i, Reason: err.Error()})
			c.stats.SnapshotEntriesSkipped++
			continue
		}
		if _, ok := c.entries[e.Fingerprint]; ok {
			rep.Duplicates++
			continue
		}
		credit := e.Credit
		if credit < 0 || math.IsNaN(credit) {
			credit = 0
		}
		if cost := float64(ge.Cost()); credit > cost {
			credit = cost
		}
		c.admitLocked(e.Fingerprint, ge, c.clock+credit)
		rep.Loaded++
		c.stats.SnapshotEntriesLoaded++
	}
	c.stats.SnapshotEntriesSkipped += int64(rep.SkippedCorrupt + rep.SkippedVersion)
}

// gridEvalFromSnapshot reconstructs a GridEval from a decoded entry,
// enforcing the invariants every live evaluation satisfies. The grid checks
// are exact — DeltaMax must be max(n, 1) and the stored grid bit-identical
// to the power-of-two grid it implies — so a plan that somehow decodes
// under the wrong geometry can never serve releases. An entry saved when
// the cache still took a DeltaMax option fails the first check: no lookup
// can ask for it.
func gridEvalFromSnapshot(e *snapshot.Entry) (*GridEval, error) {
	if e.Fingerprint.IsZero() {
		return nil, fmt.Errorf("zero fingerprint")
	}
	if e.N < 0 || e.M < 0 {
		return nil, fmt.Errorf("negative dimensions n=%d m=%d", e.N, e.M)
	}
	if want := deltaMax(e.N); math.Float64bits(e.DeltaMax) != math.Float64bits(want) {
		return nil, fmt.Errorf("deltaMax %v is not max(n, 1) = %v", e.DeltaMax, want)
	}
	if want := planOptionsDigest(e.N); e.OptsDigest != want {
		return nil, fmt.Errorf("options digest %q is not %q, the only one a lookup asks for", e.OptsDigest, want)
	}
	wantGrid, err := mechanism.PowerOfTwoGrid(e.DeltaMax)
	if err != nil {
		return nil, fmt.Errorf("deltaMax %v yields no grid: %v", e.DeltaMax, err)
	}
	if len(e.Grid) != len(wantGrid) {
		return nil, fmt.Errorf("grid has %d points, deltaMax %v implies %d", len(e.Grid), e.DeltaMax, len(wantGrid))
	}
	for i, v := range e.Grid {
		if math.Float64bits(v) != math.Float64bits(wantGrid[i]) {
			return nil, fmt.Errorf("grid point %d is %v, want %v", i, v, wantGrid[i])
		}
	}
	if len(e.FDeltas) != len(e.Grid) {
		return nil, fmt.Errorf("grid has %d points but %d values", len(e.Grid), len(e.FDeltas))
	}
	maxFSF := float64(e.N - 1)
	if e.N == 0 {
		maxFSF = 0
	}
	if !(e.FSF >= 0 && e.FSF <= maxFSF) {
		return nil, fmt.Errorf("fsf %v outside [0, %v]", e.FSF, maxFSF)
	}
	for i, v := range e.FDeltas {
		if !(v >= 0 && v <= e.FSF) {
			return nil, fmt.Errorf("f_%v value %v outside [0, fsf=%v]", e.Grid[i], v, e.FSF)
		}
	}
	return &GridEval{
		n:           e.N,
		m:           e.M,
		fingerprint: e.Fingerprint,
		grid:        e.Grid,
		fdeltas:     e.FDeltas,
		fsf:         e.FSF,
		stats:       e.Stats,
	}, nil
}
