// Package snapshot implements the versioned binary codec behind persistent
// plan-cache snapshots: the serialized form of internal/core's GridEval
// entries (grid values, spanning-forest target, plan-option digest, graph
// fingerprint, engine work counters, and the GreedyDual-Size admission
// credit), so a serving daemon can save its plan cache on shutdown and
// reload it on the next boot instead of re-paying the Δ-grid of
// Lipschitz-extension LPs — the dominant cost of serving Algorithm 1.
//
// Format (all integers little-endian):
//
//	magic   [8]byte  "NDPSNAP\x00"
//	u32     format version (currently 1)
//	u32     entry count
//	entries, each:
//	  u32   payload length in bytes
//	  []byte payload (see below)
//	  u64   CRC-64/ECMA of the payload
//
// Entry payload (version 2):
//
//	u32  entry version
//	u64  fingerprint hi, u64 fingerprint lo
//	u32  digest length, []byte plan-option digest (UTF-8)
//	u64  n, u64 m
//	f64  deltaMax, f64 fsf, f64 credit
//	u32  grid length,    f64 × length
//	u32  fdeltas length, f64 × length
//	u64  × 14 engine counters (components, fast-path hits, LP solves,
//	     cuts added, max-flow calls, simplex pivots, cuts revived,
//	     warm cuts reused, warm basis hits, refactorizations,
//	     parametric slides, parametric cheap solves, incremental
//	     fallbacks, stalled pieces)
//	f64  stall gap
//	u64  workers
//
// Version-1 entries (10 counters, written before the parametric engine)
// are skipped like any other unknown version: their options digest
// predates every digest the plan cache accepts, so none could be used.
//
// Robustness contract: Decode never panics on malformed input and never
// returns a silently corrupted entry. Every entry is length-prefixed and
// checksummed independently, so a corrupt or unknown-version entry is
// skipped — recorded in the Report with a typed error — while the rest of
// the file still loads; only a header-level failure (bad magic, unsupported
// format version, truncated header) makes Decode itself return an error.
// Any change to the payload layout MUST bump EntryVersion (or
// FormatVersion for header changes); the golden-fixture test in this
// package fails loudly when the encoded bytes drift without a bump.
//
// The codec carries no confidentiality: a snapshot file holds exact
// data-dependent values (f_Δ(G), f_sf(G), fingerprints) that were never
// privatized. Treat snapshot files with exactly the sensitivity of the
// graphs themselves.
package snapshot

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"os"
	"path/filepath"

	"nodedp/internal/fault"
	"nodedp/internal/forestlp"
	"nodedp/internal/graph"
)

// FormatVersion is the file-header version this package writes. A reader
// seeing any other value refuses the whole file (it cannot know where
// entries begin).
const FormatVersion = 1

// EntryVersion is the per-entry payload version this package writes and
// the only one it reads. A reader seeing any other version skips that
// entry and keeps going.
const EntryVersion = 2

// magic identifies a plan-cache snapshot file.
var magic = [8]byte{'N', 'D', 'P', 'S', 'N', 'A', 'P', 0}

const (
	// maxEntryBytes caps one entry's declared payload length. Real entries
	// are a few hundred bytes (the grid has ~log₂ n points); the cap exists
	// so a corrupt length field cannot make the reader allocate gigabytes.
	maxEntryBytes = 1 << 26
	// maxDigestBytes caps the plan-option digest string.
	maxDigestBytes = 1 << 16
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// Entry is the serialized form of one cached grid evaluation, mirroring the
// fields internal/core persists.
type Entry struct {
	// Fingerprint is the canonical 128-bit digest of the evaluated graph,
	// the plan-cache key.
	Fingerprint graph.Fingerprint
	// OptsDigest is the plan-option digest, from when the evaluator had
	// value-affecting options. Those are all fixed now, so internal/core
	// accepts one digest per N. It is an opaque string whose bytes a saved
	// entry must match to load.
	OptsDigest string
	// N, M are the evaluated graph's vertex and edge counts.
	N, M int
	// DeltaMax is the top of the Δ grid, which internal/core requires to
	// be max(N, 1); FSF the exact spanning-forest size the grid values are
	// scored against.
	DeltaMax float64
	FSF      float64
	// Grid and FDeltas are the Δ grid points and the evaluated f_Δ values,
	// index-aligned.
	Grid    []float64
	FDeltas []float64
	// Credit is the entry's GreedyDual-Size eviction credit above the
	// cache's clock at save time, so reloaded entries keep their relative
	// eviction priority.
	Credit float64
	// Stats are the engine work counters of the original evaluation.
	Stats forestlp.Stats
}

// Snapshot is the decoded content of one snapshot file, entries in
// most-recently-used-first order.
type Snapshot struct {
	Entries []Entry
}

// ErrBadMagic reports a file that is not a plan-cache snapshot at all.
var ErrBadMagic = errors.New("snapshot: bad magic: not a plan-cache snapshot file")

// UnsupportedVersionError reports a file-header format version this reader
// does not understand; nothing can be decoded from such a file.
type UnsupportedVersionError struct {
	Version uint32
}

func (e *UnsupportedVersionError) Error() string {
	return fmt.Sprintf("snapshot: unsupported format version %d (this reader understands %d)", e.Version, FormatVersion)
}

// EntryVersionError reports one entry whose payload version is unknown; the
// entry is skipped and the rest of the file still loads.
type EntryVersionError struct {
	Index   int
	Version uint32
}

func (e *EntryVersionError) Error() string {
	return fmt.Sprintf("snapshot: entry %d has unsupported version %d (this reader understands %d); skipped", e.Index, e.Version, EntryVersion)
}

// CorruptEntryError reports one entry that failed its checksum or whose
// payload did not parse; the entry is skipped.
type CorruptEntryError struct {
	Index  int
	Reason string
}

func (e *CorruptEntryError) Error() string {
	return fmt.Sprintf("snapshot: entry %d corrupt: %s; skipped", e.Index, e.Reason)
}

// TruncatedError reports a file that ended before the declared entries (or
// the header) were complete. Entries decoded before the truncation point
// are still returned.
type TruncatedError struct {
	Index  int // entry being read when the file ended; -1 for the header
	Reason string
}

func (e *TruncatedError) Error() string {
	if e.Index < 0 {
		return fmt.Sprintf("snapshot: truncated header: %s", e.Reason)
	}
	return fmt.Sprintf("snapshot: truncated at entry %d: %s", e.Index, e.Reason)
}

// Report describes what a Decode pass salvaged and skipped. Every skip
// carries a typed error in Errs (EntryVersionError, CorruptEntryError, or
// TruncatedError), so callers can log exactly what was lost without
// aborting on it.
type Report struct {
	// Decoded is the number of entries successfully decoded.
	Decoded int
	// SkippedCorrupt counts damaged records: entries dropped for checksum
	// or structural failures, plus trailing data after the declared
	// entries. SkippedVersion counts entries with an unknown payload
	// version (written by an older or a newer codec).
	SkippedCorrupt, SkippedVersion int
	// Truncated reports that the file ended before its declared entries.
	Truncated bool
	// Errs holds one typed error per skipped entry or truncation.
	Errs []error
}

// Skipped returns the total number of entries the decoder had to drop.
func (r *Report) Skipped() int { return r.SkippedCorrupt + r.SkippedVersion }

// Encode writes s to w in the current format. The encoding is
// deterministic: identical snapshots produce identical bytes (the golden
// test depends on this).
func Encode(w io.Writer, s *Snapshot) error {
	if err := fault.Hit("snapshot.encode"); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	writeU32(bw, FormatVersion)
	if len(s.Entries) > math.MaxUint32 {
		return fmt.Errorf("snapshot: too many entries (%d)", len(s.Entries))
	}
	writeU32(bw, uint32(len(s.Entries)))
	for i := range s.Entries {
		payload, err := encodeEntry(&s.Entries[i])
		if err != nil {
			return fmt.Errorf("snapshot: encoding entry %d: %w", i, err)
		}
		writeU32(bw, uint32(len(payload)))
		if _, err := bw.Write(payload); err != nil {
			return err
		}
		writeU64(bw, crc64.Checksum(payload, crcTable))
	}
	return bw.Flush()
}

// encodeEntry renders one entry's payload.
func encodeEntry(e *Entry) ([]byte, error) {
	if len(e.OptsDigest) > maxDigestBytes {
		return nil, fmt.Errorf("options digest is %d bytes (max %d)", len(e.OptsDigest), maxDigestBytes)
	}
	if len(e.Grid) != len(e.FDeltas) {
		return nil, fmt.Errorf("grid has %d points but %d values", len(e.Grid), len(e.FDeltas))
	}
	var b []byte
	b = binary.LittleEndian.AppendUint32(b, EntryVersion)
	b = binary.LittleEndian.AppendUint64(b, e.Fingerprint.Hi)
	b = binary.LittleEndian.AppendUint64(b, e.Fingerprint.Lo)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(e.OptsDigest)))
	b = append(b, e.OptsDigest...)
	b = binary.LittleEndian.AppendUint64(b, uint64(e.N))
	b = binary.LittleEndian.AppendUint64(b, uint64(e.M))
	b = appendF64(b, e.DeltaMax)
	b = appendF64(b, e.FSF)
	b = appendF64(b, e.Credit)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(e.Grid)))
	for _, v := range e.Grid {
		b = appendF64(b, v)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(e.FDeltas)))
	for _, v := range e.FDeltas {
		b = appendF64(b, v)
	}
	for _, c := range statsCounters(&e.Stats) {
		b = binary.LittleEndian.AppendUint64(b, uint64(c))
	}
	b = appendF64(b, e.Stats.StallGap)
	b = binary.LittleEndian.AppendUint64(b, uint64(e.Stats.Workers))
	if len(b) > maxEntryBytes {
		return nil, fmt.Errorf("entry payload is %d bytes (max %d)", len(b), maxEntryBytes)
	}
	return b, nil
}

// statsCounters lists the persisted counter fields in payload order,
// mirroring the Stats struct.
func statsCounters(s *forestlp.Stats) [14]int {
	return [14]int{
		s.Components, s.FastPathHits, s.LPSolves, s.CutsAdded, s.MaxFlowCalls,
		s.SimplexPivots, s.CutsRevived, s.WarmCutsReused, s.WarmBasisHits,
		s.Refactorizations, s.ParametricSlides, s.ParametricCheapSolves,
		s.IncrementalFallbacks, s.StalledPieces,
	}
}

// Decode reads a snapshot from r. The returned error is non-nil only for
// header-level failures (ErrBadMagic, *UnsupportedVersionError, or a
// *TruncatedError before any entry); per-entry failures are skipped and
// reported. Decode never panics on malformed input, and — because every
// entry is independently checksummed — never returns an entry whose bytes
// were damaged in flight.
func Decode(r io.Reader) (*Snapshot, *Report, error) {
	rep := &Report{}
	if err := fault.Hit("snapshot.decode"); err != nil {
		rep.Errs = append(rep.Errs, err)
		return nil, rep, err
	}
	br := bufio.NewReader(r)

	var head [16]byte // magic + version + count
	if _, err := io.ReadFull(br, head[:]); err != nil {
		terr := &TruncatedError{Index: -1, Reason: "file shorter than the 16-byte header"}
		rep.Truncated = true
		rep.Errs = append(rep.Errs, terr)
		return nil, rep, terr
	}
	if [8]byte(head[:8]) != magic {
		rep.Errs = append(rep.Errs, ErrBadMagic)
		return nil, rep, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint32(head[8:12]); v != FormatVersion {
		verr := &UnsupportedVersionError{Version: v}
		rep.Errs = append(rep.Errs, verr)
		return nil, rep, verr
	}
	count := binary.LittleEndian.Uint32(head[12:16])

	snap := &Snapshot{}
	for i := 0; i < int(count); i++ {
		var lenBuf [4]byte
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			rep.truncate(i, fmt.Sprintf("file ended before the length prefix (%d of %d entries declared)", i, count))
			return snap, rep, nil
		}
		plen := binary.LittleEndian.Uint32(lenBuf[:])
		if plen > maxEntryBytes {
			// The length field itself is implausible; no resync is possible
			// past it, so salvage what was decoded and stop.
			rep.skipCorrupt(i, fmt.Sprintf("declared payload length %d exceeds the %d-byte cap", plen, maxEntryBytes))
			rep.Truncated = true
			return snap, rep, nil
		}
		payload := make([]byte, plen)
		if _, err := io.ReadFull(br, payload); err != nil {
			rep.truncate(i, fmt.Sprintf("file ended inside a %d-byte payload", plen))
			return snap, rep, nil
		}
		var crcBuf [8]byte
		if _, err := io.ReadFull(br, crcBuf[:]); err != nil {
			rep.truncate(i, "file ended before the entry checksum")
			return snap, rep, nil
		}
		if got, want := crc64.Checksum(payload, crcTable), binary.LittleEndian.Uint64(crcBuf[:]); got != want {
			rep.skipCorrupt(i, fmt.Sprintf("checksum mismatch (stored %016x, computed %016x)", want, got))
			continue
		}
		entry, err := decodeEntry(payload)
		if err != nil {
			var verr *EntryVersionError
			if errors.As(err, &verr) {
				verr.Index = i
				rep.SkippedVersion++
				rep.Errs = append(rep.Errs, verr)
			} else {
				rep.skipCorrupt(i, err.Error())
			}
			continue
		}
		snap.Entries = append(snap.Entries, *entry)
		rep.Decoded++
	}
	// Anything after the declared entries is damage — possibly a record a
	// newer writer appended that this reader cannot see. Counting it in
	// SkippedCorrupt makes Skipped() nonzero, so callers that warn on
	// skips (the daemon boot path) surface it.
	if _, err := br.ReadByte(); err == nil {
		rep.skipCorrupt(int(count), "trailing data after the declared entries")
	}
	return snap, rep, nil
}

func (r *Report) skipCorrupt(index int, reason string) {
	r.SkippedCorrupt++
	r.Errs = append(r.Errs, &CorruptEntryError{Index: index, Reason: reason})
}

func (r *Report) truncate(index int, reason string) {
	r.Truncated = true
	r.Errs = append(r.Errs, &TruncatedError{Index: index, Reason: reason})
}

// decodeEntry parses one checksummed payload. Every read is bounds-checked
// against the payload length, so a structurally damaged entry fails with an
// error instead of panicking or reading out of bounds.
func decodeEntry(payload []byte) (*Entry, error) {
	c := cursor{buf: payload}
	version, err := c.u32("entry version")
	if err != nil {
		return nil, err
	}
	if version != EntryVersion {
		return nil, &EntryVersionError{Version: version}
	}
	e := &Entry{}
	if e.Fingerprint.Hi, err = c.u64("fingerprint hi"); err != nil {
		return nil, err
	}
	if e.Fingerprint.Lo, err = c.u64("fingerprint lo"); err != nil {
		return nil, err
	}
	if e.OptsDigest, err = c.str("options digest", maxDigestBytes); err != nil {
		return nil, err
	}
	if e.N, err = c.count("n"); err != nil {
		return nil, err
	}
	if e.M, err = c.count("m"); err != nil {
		return nil, err
	}
	if e.DeltaMax, err = c.f64("deltaMax"); err != nil {
		return nil, err
	}
	if e.FSF, err = c.f64("fsf"); err != nil {
		return nil, err
	}
	if e.Credit, err = c.f64("credit"); err != nil {
		return nil, err
	}
	if e.Grid, err = c.f64s("grid"); err != nil {
		return nil, err
	}
	if e.FDeltas, err = c.f64s("fdeltas"); err != nil {
		return nil, err
	}
	if len(e.Grid) != len(e.FDeltas) {
		return nil, fmt.Errorf("grid has %d points but %d values", len(e.Grid), len(e.FDeltas))
	}
	counters := []*int{
		&e.Stats.Components, &e.Stats.FastPathHits, &e.Stats.LPSolves,
		&e.Stats.CutsAdded, &e.Stats.MaxFlowCalls, &e.Stats.SimplexPivots,
		&e.Stats.CutsRevived, &e.Stats.WarmCutsReused, &e.Stats.WarmBasisHits,
		&e.Stats.Refactorizations, &e.Stats.ParametricSlides,
		&e.Stats.ParametricCheapSolves, &e.Stats.IncrementalFallbacks,
		&e.Stats.StalledPieces,
	}
	for i, dst := range counters {
		if *dst, err = c.count(fmt.Sprintf("stats counter %d", i)); err != nil {
			return nil, err
		}
	}
	if e.Stats.StallGap, err = c.f64("stall gap"); err != nil {
		return nil, err
	}
	if e.Stats.Workers, err = c.count("workers"); err != nil {
		return nil, err
	}
	if c.off != len(c.buf) {
		return nil, fmt.Errorf("%d trailing bytes inside the entry payload", len(c.buf)-c.off)
	}
	return e, nil
}

// cursor is a bounds-checked reader over one entry payload.
type cursor struct {
	buf []byte
	off int
}

func (c *cursor) take(n int, field string) ([]byte, error) {
	if n < 0 || c.off > len(c.buf)-n {
		return nil, fmt.Errorf("payload ends inside field %q", field)
	}
	b := c.buf[c.off : c.off+n]
	c.off += n
	return b, nil
}

func (c *cursor) u32(field string) (uint32, error) {
	b, err := c.take(4, field)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (c *cursor) u64(field string) (uint64, error) {
	b, err := c.take(8, field)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (c *cursor) f64(field string) (float64, error) {
	u, err := c.u64(field)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(u), nil
}

// count reads a u64 that must fit a non-negative int.
func (c *cursor) count(field string) (int, error) {
	u, err := c.u64(field)
	if err != nil {
		return 0, err
	}
	if u > math.MaxInt64 {
		return 0, fmt.Errorf("field %q value %d overflows int", field, u)
	}
	return int(u), nil
}

func (c *cursor) str(field string, maxLen int) (string, error) {
	n, err := c.u32(field + " length")
	if err != nil {
		return "", err
	}
	if int64(n) > int64(maxLen) {
		return "", fmt.Errorf("field %q length %d exceeds cap %d", field, n, maxLen)
	}
	b, err := c.take(int(n), field)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func (c *cursor) f64s(field string) ([]float64, error) {
	n, err := c.u32(field + " length")
	if err != nil {
		return nil, err
	}
	// 8 bytes per element must fit in the remaining payload; this bounds
	// the allocation by the (already capped) payload size.
	if int64(n)*8 > int64(len(c.buf)-c.off) {
		return nil, fmt.Errorf("field %q declares %d elements but only %d payload bytes remain", field, n, len(c.buf)-c.off)
	}
	out := make([]float64, n)
	for i := range out {
		if out[i], err = c.f64(field); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// WriteFileAtomic encodes s to path with write-then-rename semantics: the
// bytes land in a temporary file in the same directory, are flushed and
// fsynced, and only then renamed over path. A crash mid-save therefore
// leaves the previous snapshot intact, and readers never observe a
// half-written file.
func WriteFileAtomic(path string, s *Snapshot) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("snapshot: creating temporary file: %w", err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err = Encode(f, s); err != nil {
		return err
	}
	// Failpoints for the two crash windows of the atomic-write protocol:
	// before the fsync (bytes may not be durable) and between write and
	// rename (the torn-write window — tmp is complete but path still names
	// the previous snapshot). Both leave the previous file intact.
	if err = fault.Hit("snapshot.write.sync"); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = fault.Hit("snapshot.write.rename"); err != nil {
		return err
	}
	if err = os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// ReadFile decodes the snapshot at path. Open errors come back unwrapped
// enough for errors.Is(err, fs.ErrNotExist) to distinguish a cold first
// boot from a damaged file.
func ReadFile(path string) (*Snapshot, *Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, &Report{}, err
	}
	defer f.Close()
	return Decode(f)
}

// appendF64 appends a float64's IEEE-754 bits little-endian.
func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// writeU32 and writeU64 write little-endian integers to a bufio.Writer,
// whose Write never returns a short count without an error (checked at
// Flush).
func writeU32(w *bufio.Writer, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.Write(b[:])
}

func writeU64(w *bufio.Writer, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.Write(b[:])
}
