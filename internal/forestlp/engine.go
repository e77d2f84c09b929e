package forestlp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"

	"nodedp/internal/obs"
)

// This file implements the parallel evaluation engine: the shards of a
// Plan are independent LPs (f_Δ is additive over components), so they are
// solved concurrently on a bounded worker pool, one job per shard covering
// the whole Δ-grid, largest shard first, and merged per Δ in shard-index
// order. The merge order — not the completion order — determines every
// floating-point sum and every aggregated statistic, so the result is
// bit-for-bit identical for every worker count, including 1.

// shardResult carries one shard's outcome at one Δ from a worker to the
// merger.
type shardResult struct {
	done  bool // false for evaluations that never ran (early error exit)
	value float64
	stats Stats
	err   error
}

// resolveWorkers clamps the configured worker count, GOMAXPROCS when not
// positive, to [1, shards]; the separation oracle resolves its pool the
// same way, with the wave width for shards.
func resolveWorkers(configured, shards int) int {
	w := configured
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > shards {
		w = shards
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Value computes f_Δ of the planned graph, solving independent component
// LPs concurrently on opts.Workers workers (default runtime.GOMAXPROCS).
// The result is deterministic in the worker count and clamped to
// [0, f_sf] to preserve the underestimation property (Lemma 3.3) exactly
// even under floating-point slack. It is the one-point case of the sweep
// scheduler, without cross-Δ state or trace spans of its own.
//
// ctx cancels long solves: cancelation is checked between cutting-plane
// rounds and before each shard starts, so Value returns promptly with
// ctx.Err() after the deadline.
func (p *Plan) Value(ctx context.Context, delta float64, opts Options) (float64, Stats, error) {
	points, err := p.evaluate(ctx, []float64{delta}, opts, nil, false)
	if err != nil {
		return 0, Stats{}, err
	}
	return points[0].total, points[0].stats, nil
}

// gridPoint is the merge of every planned shard's evaluation at one Δ.
type gridPoint struct {
	total  float64       // shard values summed in shard order, clamped to [0, f_sf]
	shards []shardResult // in shard order
	stats  Stats         // the shards' Stats merged in shard order
}

// evaluate is the engine's scheduler: it evaluates every planned shard at
// every Δ of grid and merges the results per Δ. A shard's whole grid is one
// job — its evaluations at grid[0], grid[1], … in order, on one worker — so
// warm, when non-nil, can carry each shard's cut pool, piece memos and
// standing solvers from Δ to Δ without synchronization: a shard's state is
// touched only by the job evaluating that shard. Jobs are dispatched
// largest shard first (by edge count, ties to the lower index) on
// min(Workers, shards) workers, so a giant component never starts last and
// leaves the other workers idle.
//
// The merge order — grid order, then shard-index order — not the
// completion order, fixes every floating-point sum and every aggregated
// statistic, so the result is bit-for-bit identical for every worker count.
// Stats.Workers is resolved over every non-trivial component, supplied
// ones included, so it is a property of the graph and the options, not of
// which components this plan evaluates.
//
// With pointSpans, one "forestlp.point" child span per Δ is opened in grid
// order before any job starts, shard evaluations at grid[j] run under span
// j (so their lp counters land there), and the spans are closed in grid
// order at the merge with that point's Stats — also when the evaluation
// fails. Their durations therefore run to the merge.
//
// On failure evaluate returns the first genuine failure in (Δ, shard)
// order, never a cancelation that failure triggered in other jobs; a
// cancelation of ctx itself surfaces as ctx.Err(). A failed evaluation
// returns no points.
func (p *Plan) evaluate(ctx context.Context, grid []float64, opts Options, warm *gridWarm, pointSpans bool) ([]gridPoint, error) {
	for _, d := range grid {
		if err := checkDelta(d); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	resolved := resolveWorkers(opts.Workers, len(p.shards)+p.supplied)
	workers := min(resolved, len(p.shards))

	// With a pool, an internal cancel stops the other jobs, and the feed,
	// as soon as any evaluation fails. One worker stops on its own.
	ectx := ctx
	var cancel context.CancelFunc
	if workers > 1 {
		ectx, cancel = context.WithCancel(ctx)
		defer cancel()
	}
	spans := make([]*obs.Span, len(grid))
	pctx := make([]context.Context, len(grid))
	results := make([][]shardResult, len(grid)) // results[j][i]: shard i at grid[j]
	for j := range grid {
		pctx[j] = ectx
		if pointSpans {
			spans[j], pctx[j] = obs.StartSpan(ectx, "forestlp.point")
		}
		results[j] = make([]shardResult, len(p.shards))
	}
	// runShard is shard i's job: its evaluations in grid order, stopping
	// at the first failure, which it reports.
	runShard := func(i int) bool {
		ps, sw := p.shards[i], warm.shard(i)
		for j, d := range grid {
			results[j][i] = evalShard(pctx[j], ps, d, opts, sw)
			if results[j][i].err != nil {
				return false
			}
		}
		return true
	}

	if workers <= 1 {
		// One worker: the jobs run on the calling goroutine, no pool.
		for _, i := range p.order {
			if !runShard(i) {
				break
			}
		}
	} else {
		// Results land in their own slots, so no ordering is lost to
		// scheduling.
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					if !runShard(i) {
						cancel()
					}
				}
			}()
		}
	feed:
		for _, i := range p.order {
			select {
			case jobs <- i:
			case <-ectx.Done():
				break feed
			}
		}
		close(jobs)
		wg.Wait()
	}

	// Deterministic merge, per Δ in grid order and within a Δ in shard
	// order, regardless of which worker finished first. Every point span
	// is closed here, the failed evaluation's included.
	points := make([]gridPoint, len(grid))
	var firstErr error
	unevaluated := false
	for j, d := range grid {
		pt := &points[j]
		pt.shards = results[j]
		for i := range results[j] {
			r := &results[j][i]
			if !r.done {
				unevaluated = true
				continue
			}
			if r.err != nil {
				// The first genuine failure outranks the cancelations it
				// triggered in other jobs, at whichever Δ they stopped.
				if firstErr == nil || errIsCancel(firstErr) && !errIsCancel(r.err) {
					firstErr = r.err
				}
				continue
			}
			//detlint:allow floatorder — deterministic merge: the loop visits results in grid order, then shard-index order, after every job has finished, so the summation order is fixed regardless of completion order
			pt.total += r.value
			pt.stats.MergeComponent(r.stats)
		}
		pt.stats.Components = p.components - p.supplied
		pt.stats.Workers = resolved
		if fsf := float64(p.fsf); pt.total > fsf {
			pt.total = fsf
		}
		if pt.total < 0 {
			pt.total = 0
		}
		setStatAttrs(spans[j], pt.stats)
		spans[j].SetLabel("delta", strconv.FormatFloat(d, 'g', -1, 64))
		spans[j].End()
	}
	if firstErr != nil {
		// A parent-context cancelation outranks the per-shard view of it.
		if err := ctx.Err(); err != nil && errIsCancel(firstErr) {
			return nil, err
		}
		return nil, firstErr
	}
	if unevaluated {
		// A cancelation can race every in-flight job to completion, leaving
		// unfed shards silently unevaluated; a partial sum must never be
		// returned as f_Δ.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, errors.New("forestlp: internal: a shard was never evaluated")
	}
	return points, nil
}

// evalShard evaluates one shard at one Δ.
func evalShard(ctx context.Context, ps *planShard, delta float64, opts Options, sw *shardWarm) shardResult {
	if err := ctx.Err(); err != nil {
		return shardResult{done: true, err: err}
	}
	v, st, err := ps.eval(ctx, delta, opts, sw)
	if err != nil {
		return shardResult{done: true, err: fmt.Errorf("forestlp: evaluating f_%v on a component of size %d: %w", delta, ps.n, err)}
	}
	return shardResult{done: true, value: v, stats: st}
}

// errIsCancel reports whether err is a context cancelation or deadline.
func errIsCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
