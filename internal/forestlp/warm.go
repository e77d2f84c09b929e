package forestlp

// This file implements the cross-Δ warm-start state threaded through
// Plan.Sweep. Subtour constraints x(E[S]) ≤ |S|−1 are valid for every
// Δ — the degree budgets are the only Δ-dependent rows — so a cut
// discovered while evaluating f_Δ is a legitimate (and usually binding)
// constraint at the neighboring grid points too. The grid sweep therefore
// carries two kinds of state from Δ to Δ' per shard:
//
//   - a cut pool in shard-local vertex ids: every subtour constraint ever
//     generated, re-validated (injected and aged by the normal slack
//     machinery) instead of re-discovered by max-flow calls; and
//   - a per-piece simplex basis: the final basis and active-cut row layout
//     of the last LP on a structurally identical piece, fed to
//     lp.Options.Basis so the next grid point resumes from the old optimum
//     instead of re-pivoting from the all-slack basis. (A piece is
//     identified by its vertex set: peel only ever removes vertices whose
//     edges die with them, so equal vertex sets imply equal edge sets and
//     an identical LP column layout.)
//
// Determinism: the warm state is owned by one Sweep call and accessed per
// shard — a shard's whole grid is one job, which one worker runs grid
// point after grid point — so no locking is needed and the pool contents
// are bit-for-bit independent of Workers.

import "nodedp/internal/lp"

// warmPoolCap bounds the cut pool per shard; beyond it, new cuts are still
// used by the solve that found them but are not pooled.
const warmPoolCap = 4096

// incrSolverCap bounds the LIVE standing solvers retained per shard. A
// standing tableau is O(rows × (cols+rows)) floats — far heavier than a
// basis memo — so only the most recently completed pieces keep theirs;
// an evicted memo keeps its basis and cut layout and warm-restores the
// rebuild way. Eviction is insertion-ordered, hence deterministic.
const incrSolverCap = 4

// gridWarm is the whole-plan warm-start state of one grid sweep.
type gridWarm struct {
	shards []*shardWarm
}

func newGridWarm(p *Plan) *gridWarm {
	gw := &gridWarm{shards: make([]*shardWarm, len(p.shards))}
	for i, ps := range p.shards {
		gw.shards[i] = newShardWarm(ps.n)
	}
	return gw
}

// shard returns shard i's state; nil on a nil gridWarm (no cross-Δ state).
func (gw *gridWarm) shard(i int) *shardWarm {
	if gw == nil {
		return nil
	}
	return gw.shards[i]
}

// warmCut is one pooled subtour constraint in shard-local vertex ids
// (sorted ascending).
type warmCut struct {
	ids []int32
	key cutKey
}

// pieceMemo stores the simplex state of a piece's last solve: the final
// basis and the active-cut row layout it indexes into, plus — for the
// incrSolverCap most recent pieces — the standing incremental solver
// itself, ready to slide to the next grid point.
type pieceMemo struct {
	basis   []int
	cutKeys []cutKey
	incr    *lp.Incremental
}

// shardWarm is one shard's warm-start state.
type shardWarm struct {
	pool  []warmCut
	index map[cutKey]int32
	memos map[cutKey]*pieceMemo // keyed by piece signature

	// incrSigs lists, in insertion order, the piece signatures whose memos
	// currently hold a live solver (eviction pops the front).
	incrSigs []cutKey

	inv []int32 // shard-id → piece-id scratch, -1 outside the piece
}

func newShardWarm(n int) *shardWarm {
	sw := &shardWarm{
		index: make(map[cutKey]int32),
		memos: make(map[cutKey]*pieceMemo),
		inv:   make([]int32, n),
	}
	for i := range sw.inv {
		sw.inv[i] = -1
	}
	return sw
}

// addCut pools a cut found on a piece, translated back to shard ids via
// orig (piece-local id i lives at shard id orig[i]; orig ascending, so the
// translated ids stay sorted). Duplicates and overflow are ignored.
func (sw *shardWarm) addCut(orig []int, ids []int32) {
	if len(sw.pool) >= warmPoolCap {
		return
	}
	shardIDs := make([]int32, len(ids))
	for i, v := range ids {
		shardIDs[i] = int32(orig[v])
	}
	key := keyOfIDs(shardIDs)
	if _, dup := sw.index[key]; dup {
		return
	}
	sw.index[key] = int32(len(sw.pool))
	sw.pool = append(sw.pool, warmCut{ids: shardIDs, key: key})
}

// pieceSig canonically identifies a piece by its shard-local vertex ids.
func pieceSig(orig []int) cutKey {
	ids := make([]int32, len(orig))
	for i, v := range orig {
		ids[i] = int32(v)
	}
	return keyOfIDs(ids)
}

// inject prepares a piece's warm start and reports how many pool cuts were
// seeded. When the piece matches a stored memo, the memoized active rows
// are reconstructed in order (the basis indexes slack columns by row
// position, so order is load-bearing) and the stored simplex basis is
// returned for the first solve. Every other pool cut contained in the
// piece is parked with the separator: the zero-flow revive pass activates
// whichever the LP points actually violate, so stale pool entries cost a
// dot product each instead of an LP row.
func (sw *shardWarm) inject(sp *separator, orig []int) (active []*cut, basis []int, seeded int) {
	inv := sw.inv
	for i, v := range orig {
		inv[v] = int32(i)
	}
	defer func() {
		for _, v := range orig {
			inv[v] = -1
		}
	}()

	translate := func(wc warmCut) ([]int32, bool) {
		ids := make([]int32, len(wc.ids))
		for i, v := range wc.ids {
			p := inv[v]
			if p < 0 {
				return nil, false
			}
			ids[i] = p
		}
		return ids, true
	}

	if memo := sw.memos[pieceSig(orig)]; memo != nil {
		restored := true
		for _, key := range memo.cutKeys {
			idx, found := sw.index[key]
			if !found {
				restored = false
				break
			}
			ids, ok := translate(sw.pool[idx])
			if !ok {
				restored = false
				break
			}
			ct, ok := sp.adopt(ids)
			if !ok {
				restored = false
				break
			}
			active = append(active, ct)
		}
		if !restored {
			// Defensive (memo cuts are pooled and piece-local by
			// construction, so these failures should not occur): the cuts
			// adopted so far are registered with the separator and must
			// stay reachable — park them and drop the basis.
			for _, ct := range active {
				sp.park(ct)
			}
			active, basis = nil, nil
		} else {
			basis = memo.basis
		}
		seeded += len(active)
	}
	// Park the remaining translatable pool cuts (adopt dedups the ones
	// already activated above).
	for _, wc := range sw.pool {
		if ids, ok := translate(wc); ok {
			if ct, ok := sp.adopt(ids); ok {
				sp.park(ct)
				seeded++
			}
		}
	}
	return active, basis, seeded
}

// store memoizes a piece's final simplex state for the next grid point,
// reporting whether a memo was recorded. basis and the active row layout
// must describe the same solve (the last lp.Maximize of the piece). Cut
// keys are recomputed in shard-id space — the pool's key space — because
// the active cuts carry piece-local keys. Storing replaces any previous
// memo, releasing its live solver (whose layout the new memo obsoletes).
func (sw *shardWarm) store(orig []int, active []*cut, basis []int) bool {
	if basis == nil {
		return false
	}
	keys := make([]cutKey, len(active))
	for i, ct := range active {
		shardIDs := make([]int32, len(ct.ids))
		for j, v := range ct.ids {
			shardIDs[j] = int32(orig[v])
		}
		keys[i] = keyOfIDs(shardIDs)
		// A basis is only replayable if its cuts are in the pool; cuts past
		// the pool cap make the memo unusable, so skip storing it.
		if _, ok := sw.index[keys[i]]; !ok {
			return false
		}
	}
	sig := pieceSig(orig)
	sw.dropIncrSig(sig)
	sw.memos[sig] = &pieceMemo{basis: basis, cutKeys: keys}
	return true
}

// storeIncr memoizes a piece's final state like store and additionally
// parks the standing solver on the memo so the next grid point can slide
// it, evicting the oldest parked solver beyond incrSolverCap. When store
// declines the memo (unpooled cut), the solver is discarded with it: a
// solver whose layout cannot be re-derived next round is unusable.
func (sw *shardWarm) storeIncr(orig []int, active []*cut, pi *lp.Incremental) {
	if pi == nil {
		return
	}
	if !sw.store(orig, active, pi.Basis()) {
		return
	}
	sig := pieceSig(orig)
	sw.memos[sig].incr = pi
	sw.incrSigs = append(sw.incrSigs, sig)
	if len(sw.incrSigs) > incrSolverCap {
		old := sw.incrSigs[0]
		sw.incrSigs = append(sw.incrSigs[:0], sw.incrSigs[1:]...)
		if m := sw.memos[old]; m != nil {
			m.incr = nil
		}
	}
}

// injectIncr is inject plus the standing solver: when the piece's memo was
// fully restored AND holds a live solver, that solver is returned for a
// parametric slide. A memo that failed to restore invalidates its solver
// (same stale layout), which is dropped on the spot.
func (sw *shardWarm) injectIncr(sp *separator, orig []int) (active []*cut, basis []int, seeded int, pi *lp.Incremental) {
	sig := pieceSig(orig)
	memo := sw.memos[sig]
	active, basis, seeded = sw.inject(sp, orig)
	if memo != nil && memo.incr != nil {
		if basis != nil {
			pi = memo.incr
		} else {
			sw.dropIncrSig(sig)
		}
	}
	return active, basis, seeded, pi
}

// dropIncr releases a piece's standing solver (fallback, layout mismatch,
// distress), keeping the basis/cut memo for a rebuild-style warm start.
func (sw *shardWarm) dropIncr(orig []int) { sw.dropIncrSig(pieceSig(orig)) }

func (sw *shardWarm) dropIncrSig(sig cutKey) {
	m := sw.memos[sig]
	if m == nil || m.incr == nil {
		return
	}
	m.incr = nil
	for i, s := range sw.incrSigs {
		if s == sig {
			sw.incrSigs = append(sw.incrSigs[:i], sw.incrSigs[i+1:]...)
			return
		}
	}
}
