package forestlp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// This file implements the parallel evaluation engine: the shards of a
// Plan are independent LPs (f_Δ is additive over components), so they are
// solved concurrently on a bounded worker pool and merged in shard-index
// order. The merge order — not the completion order — determines every
// floating-point sum and every aggregated statistic, so the result is
// bit-for-bit identical for every worker count, including 1.

// ShardTiming is the per-shard diagnostic record of one evaluation.
type ShardTiming struct {
	// Shard is the shard index (component order, planned non-trivial
	// shards only).
	Shard int
	// Vertices and Edges describe the shard.
	Vertices int
	Edges    int
	// FastPath reports whether the shard was settled without any simplex
	// work — by a spanning Δ-forest certificate or by exact leaf peeling.
	FastPath bool
	// LPSolves counts simplex solves spent on this shard.
	LPSolves int
	// Duration is the shard's wall-clock evaluation time. Durations are
	// measurements, not results: they vary run to run even though the
	// returned value does not.
	Duration time.Duration
}

// shardResult carries one shard's outcome from a worker to the merger.
type shardResult struct {
	done   bool // false for shards never evaluated (early error exit)
	value  float64
	stats  Stats
	timing ShardTiming
	err    error
}

// resolveWorkers clamps the configured worker count to [1, shards].
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
// even under floating-point slack.
//
// ctx cancels long solves: cancelation is checked between cutting-plane
// rounds and before each shard starts, so Value returns promptly with
// ctx.Err() after the deadline.
func (p *Plan) Value(ctx context.Context, delta float64, opts Options) (float64, Stats, error) {
	v, _, stats, err := p.point(ctx, delta, opts, nil)
	return v, stats, err
}

// point evaluates every planned shard at one Δ on the worker pool and
// returns f_Δ of the planned shards — their values summed in shard order
// and clamped to [0, f_sf] — together with the per-shard results in shard
// order and their Stats merged in that order. warm, when non-nil, carries
// per-shard cut pools and basis memos between the calls of one Sweep; each
// shard's state is touched only by the one worker evaluating that shard,
// so no synchronization is needed. Stats.Workers is resolved over every
// non-trivial component, supplied ones included, so it is a property of
// the graph and the options, not of which components this plan evaluates.
func (p *Plan) point(ctx context.Context, delta float64, opts Options, warm *gridWarm) (float64, []shardResult, Stats, error) {
	var stats Stats
	if err := checkDelta(delta); err != nil {
		return 0, nil, stats, err
	}
	if opts.SepWaveWidth < 0 {
		return 0, nil, stats, fmt.Errorf("forestlp: SepWaveWidth must be ≥ 0 (0 = default %d), got %d",
			sepWaveDefault, opts.SepWaveWidth)
	}
	if err := ctx.Err(); err != nil {
		return 0, nil, stats, err
	}
	opts = opts.withDefaults()
	stats.Workers = resolveWorkers(opts.Workers, len(p.shards)+p.supplied)
	shardWarmState := func(i int) *shardWarm {
		if warm == nil {
			return nil
		}
		return warm.shards[i]
	}

	results := make([]shardResult, len(p.shards))
	if workers := min(stats.Workers, len(p.shards)); workers <= 1 {
		for i, ps := range p.shards {
			results[i] = p.evalShard(ctx, i, ps, delta, opts, shardWarmState(i))
			if results[i].err != nil {
				break
			}
		}
	} else {
		// Fan out shard indices; an internal cancel stops idle workers as
		// soon as any shard fails. Results land in their own slot, so no
		// ordering is lost to scheduling.
		ectx, cancel := context.WithCancel(ctx)
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					results[i] = p.evalShard(ectx, i, p.shards[i], delta, opts, shardWarmState(i))
					if results[i].err != nil {
						cancel()
					}
				}
			}()
		}
	feed:
		for i := range p.shards {
			select {
			case jobs <- i:
			case <-ectx.Done():
				break feed
			}
		}
		close(jobs)
		wg.Wait()
		cancel()
	}

	// Deterministic merge: values and statistics accumulate in shard-index
	// order regardless of which worker finished first.
	total := 0.0
	var firstErr error
	for i := range results {
		r := &results[i]
		if !r.done {
			continue
		}
		if r.err != nil {
			// Prefer the lowest-indexed genuine failure over the
			// cancelations it triggered in sibling workers.
			if firstErr == nil || errIsCancel(firstErr) && !errIsCancel(r.err) {
				firstErr = r.err
			}
			continue
		}
		//detlint:allow floatorder — deterministic merge: the loop visits results in shard-index order after every worker has finished, so the summation order is fixed regardless of completion order
		total += r.value
		stats.MergeComponent(r.stats)
		if opts.ShardTimings {
			stats.Shards = append(stats.Shards, r.timing)
		}
	}
	stats.Components = p.components - p.supplied
	if firstErr == nil {
		// A cancelation can race every in-flight shard to completion,
		// leaving unfed shards silently unevaluated; a partial sum must
		// never be returned as f_Δ.
		for i := range results {
			if !results[i].done {
				if err := ctx.Err(); err != nil {
					return 0, nil, stats, err
				}
				return 0, nil, stats, fmt.Errorf("forestlp: internal: shard %d was never evaluated", i)
			}
		}
	}
	if firstErr != nil {
		// A parent-context cancelation outranks the per-shard view of it.
		if err := ctx.Err(); err != nil && errIsCancel(firstErr) {
			return 0, nil, stats, err
		}
		return 0, nil, stats, firstErr
	}
	if fsf := float64(p.fsf); total > fsf {
		total = fsf
	}
	if total < 0 {
		total = 0
	}
	return total, results, stats, nil
}

// evalShard runs one shard and packages the outcome with its timing (the
// timing record is discarded by the merger unless Options.ShardTimings).
//
//detlint:allow rngsource — operational timing diagnostic: ShardTiming.Duration is reporting-only (opt-in via Options.ShardTimings) and never enters grid values or releases
func (p *Plan) evalShard(ctx context.Context, i int, ps *planShard, delta float64, opts Options, sw *shardWarm) shardResult {
	if err := ctx.Err(); err != nil {
		return shardResult{done: true, err: err}
	}
	start := time.Now()
	v, st, err := ps.eval(ctx, delta, opts, sw)
	if err != nil {
		return shardResult{done: true, err: fmt.Errorf("forestlp: component of size %d: %w", ps.n, err)}
	}
	return shardResult{
		done:  true,
		value: v,
		stats: st,
		timing: ShardTiming{
			Shard:    i,
			Vertices: ps.n,
			Edges:    ps.m,
			FastPath: st.LPSolves == 0,
			LPSolves: st.LPSolves,
			Duration: time.Since(start),
		},
	}
}

// errIsCancel reports whether err is a context cancelation or deadline.
func errIsCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
