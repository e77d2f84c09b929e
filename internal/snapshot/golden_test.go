package snapshot

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"nodedp/internal/forestlp"
	"nodedp/internal/graph"
)

// goldenSnapshot is the canonical fixture content: hand-picked values that
// exercise every field — including the version-2 parametric-engine
// counters — frozen so the checked-in bytes pin the current format.
func goldenSnapshot() *Snapshot {
	return &Snapshot{Entries: []Entry{
		{
			Fingerprint: graph.Fingerprint{Hi: 0xdeadbeefcafef00d, Lo: 0x0123456789abcdef},
			OptsDigest:  "dmax=16 tol=1e-07 rounds=1000 cuts=48 drop=3 stall=80 nofast=false nopeel=false nowarm=false noincr=false exh=false wave=16 lp={Basis:[]}",
			N:           16, M: 24,
			DeltaMax: 16,
			FSF:      15,
			Grid:     []float64{1, 2, 4, 8, 16},
			FDeltas:  []float64{7.5, 11.25, 14, 15, 15},
			Credit:   205,
			Stats: forestlp.Stats{
				Components: 2, FastPathHits: 6, LPSolves: 31, CutsAdded: 57,
				MaxFlowCalls: 113, SimplexPivots: 421, CutsRevived: 12,
				WarmCutsReused: 29, WarmBasisHits: 17,
				Refactorizations: 3, ParametricSlides: 9,
				ParametricCheapSolves: 7, IncrementalFallbacks: 1,
				StalledPieces: 1,
				StallGap:      0.0625, Workers: 8,
			},
		},
		{
			Fingerprint: graph.Fingerprint{Hi: 0x1000000000000001, Lo: 0x2000000000000002},
			OptsDigest:  "dmax=4 tol=1e-07 rounds=1000 cuts=48 drop=3 stall=80 nofast=false nopeel=false nowarm=true noincr=true exh=true wave=16 lp={Basis:[]}",
			N:           4, M: 3,
			DeltaMax: 4,
			FSF:      3,
			Grid:     []float64{1, 2, 4},
			FDeltas:  []float64{3, 3, 3},
			Credit:   0,
			Stats:    forestlp.Stats{Components: 1, FastPathHits: 3, Workers: 1},
		},
	}}
}

const goldenPath = "testdata/v2.snap"

// goldenPathV1 is the retained entry-version-1 fixture, written by the v1
// encoder before the parametric-engine counters existed. It is never
// regenerated: it pins that such a file still opens, every entry skipped.
const goldenPathV1 = "testdata/v1.snap"

// TestGoldenFixture pins the entry-version-2 wire format: the current
// encoder must reproduce the checked-in fixture byte for byte, and the
// current decoder must read it back exactly. If this test fails after a
// codec change, the change altered the serialized format — bump
// EntryVersion (or FormatVersion), write a new fixture alongside the old
// one, and keep this one decodable or explicitly version-skipped.
// Regenerate the fixture ONLY together with a version bump:
// NODEDP_UPDATE_GOLDEN=1 go test ./internal/snapshot
func TestGoldenFixture(t *testing.T) {
	want := encodeToBytes(t, goldenSnapshot())

	if os.Getenv("NODEDP_UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	got, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden fixture: %v (regenerate with NODEDP_UPDATE_GOLDEN=1 only alongside a version bump)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoder output drifted from the checked-in v%d fixture (%d vs %d bytes): the wire format changed without a version bump",
			FormatVersion, len(want), len(got))
	}

	snap, rep, err := ReadFile(goldenPath)
	if err != nil || rep.Skipped() != 0 || rep.Truncated {
		t.Fatalf("decoding golden fixture: %v (report %+v)", err, rep)
	}
	if !reflect.DeepEqual(snap.Entries, goldenSnapshot().Entries) {
		t.Fatalf("golden fixture decoded to different entries:\ngot  %+v\nwant %+v", snap.Entries, goldenSnapshot().Entries)
	}
}

// TestGoldenV1EntriesSkipped: a file of entry-version-1 records, written
// before the parametric engine with options digests no plan cache accepts,
// decodes without error to no entries and one *EntryVersionError per
// record, so a daemon booting from it starts cold.
func TestGoldenV1EntriesSkipped(t *testing.T) {
	snap, rep, err := ReadFile(goldenPathV1)
	if err != nil || rep.Truncated {
		t.Fatalf("decoding v1 fixture: %v (report %+v)", err, rep)
	}
	if len(snap.Entries) != 0 || rep.Decoded != 0 || rep.SkippedVersion != 2 || rep.SkippedCorrupt != 0 || len(rep.Errs) != 2 {
		t.Fatalf("v1 fixture: %d entries, report %+v; want none decoded and two version skips", len(snap.Entries), rep)
	}
	for i, e := range rep.Errs {
		var verr *EntryVersionError
		if !errors.As(e, &verr) || *verr != (EntryVersionError{Index: i, Version: 1}) {
			t.Errorf("skip %d: %v, want *EntryVersionError{Index: %d, Version: 1}", i, e, i)
		}
	}
}
