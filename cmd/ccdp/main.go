// Command ccdp releases node-differentially private estimates of the
// number of connected components (or the spanning-forest size) of a graph
// read from an edge-list file.
//
// One-shot usage:
//
//	ccdp -epsilon 1.0 [-mode cc|cc-known-n|sf] [-input graph.txt] [-seed 0]
//	     [-workers 0] [-timeout 0] [-v]
//
// Serving usage (one plan, many budget-accounted queries):
//
//	ccdp serve -budget 4.0 -queries queries.txt [-input graph.txt]
//	     [-accountant sequential|advanced] [-acct-delta 0]
//	     [-seed 0] [-workers 0] [-timeout 0] [-v]
//
// Daemon usage (multi-tenant HTTP/JSON front end over sessions):
//
//	ccdp daemon [-listen 127.0.0.1:8080] [-max-inflight 64]
//	     [-read-limit 8388608] [-max-sessions 256] [-max-per-tenant 32]
//	     [-idle-ttl 30m] [-cache-weight 4194304] [-drain-timeout 30s]
//	     [-cache-file plans.snap] [-cache-save-interval 5m]
//	     [-audit-log audit.log] [-trace-ring 128] [-trace-seed 0]
//	     [-slow-query 0] [-pprof] [-profile-dir profiles]
//
// Audit reconciliation (offline verification of an -audit-log file):
//
//	ccdp audit -log audit.log [-v]
//
// The daemon serves POST /v1/graphs (upload a graph, open a budgeted
// session), POST /v1/sessions/{id}/query and /batch (private releases),
// GET /v1/sessions/{id} (budget and plan-cache introspection),
// DELETE /v1/sessions/{id}, GET /healthz, and GET /metrics (Prometheus
// text). Requests beyond -max-inflight are shed with 429 + Retry-After;
// SIGTERM/SIGINT drain gracefully: /healthz flips to 503, in-flight
// requests finish, then the listener closes (bounded by -drain-timeout).
//
// -cache-file enables warm restarts: the plan cache — the expensive Δ-grid
// evaluations behind every session — is persisted to the named snapshot
// file on SIGTERM drain, every -cache-save-interval (0 disables the
// timer; an interval in which nothing changed skips the write), and on
// demand via POST /v1/admin/cache/save; on the next boot
// the snapshot is reloaded, so re-uploading a known graph skips planning
// entirely, and a seeded query answered from the reloaded plan is
// bit-identical to the same query before the restart. Persistence implies
// ONE cache shared by every tenant (its hit/miss behavior is an equality
// oracle on uploaded graphs — use it only among mutually trusting
// tenants), and the snapshot file holds exact data-dependent values, so it
// must be protected like the graphs themselves. A missing snapshot is a
// normal cold start; a corrupt or unreadable one is logged and ignored
// (cold cache), and individually damaged entries inside an otherwise
// healthy snapshot are skipped while the rest load. An unwritable
// -cache-file path fails at boot, not at shutdown.
//
// The input format is one "u v" pair per line with an optional "n <count>"
// header for isolated vertices; '#' starts a comment. With -input omitted,
// the graph is read from stdin. -seed 0 (the default) uses cryptographic
// randomness; any other seed makes releases reproducible (for testing
// only — a reproducible release is not private).
//
// -workers sets how many per-component LPs the evaluation engine solves
// concurrently (0 = all CPUs), and also how many max-flow oracle calls run
// concurrently inside a single component's separation round (at most 16)
// — the parallelism left for graphs whose work is one giant component.
// The released value is identical for every setting. Negative values are
// a usage error.
//
// -timeout bounds the whole run. In one-shot mode an expired deadline
// aborts the single estimation before any noise is drawn, spending no
// budget. In serve mode the deadline covers the one-time session plan
// build plus every query: a query canceled by the deadline fails without
// spending its ε, and the summary reports what the earlier queries spent.
//
// The serve query file has one query per line ('#' comments allowed):
//
//	<mode> <epsilon> [seed | seed=N]
//
// with mode cc, cc-known-n, or sf — e.g. "cc 0.5 7". A malformed line —
// unknown mode, non-positive or non-finite epsilon, zero or duplicate
// seed, extra fields — fails with a line-numbered error and nonzero exit
// before any budget is touched. All queries are admitted against the
// session budget in file order: once a query does not fit, it fails with
// "budget exhausted" and spends nothing.
//
// -accountant selects the session's composition rule: sequential (the
// default, pure-ε Lemma 2.4) or advanced ((ε, δ) advanced composition,
// which admits many more small queries at equal ε_total; -acct-delta is
// then required in (0, 1)).
//
// Observability (daemon and serve): -audit-log appends every privacy-ledger
// operation — opens, reservations, refunds, charges, dedup replays, each
// stamped with the accountant's exact post-operation balance — to a
// CRC-guarded file that `ccdp audit` later replays through a fresh
// accountant, verifying every balance bit-for-bit. The daemon additionally
// retains the last -trace-ring request traces for GET /v1/admin/traces,
// logs requests slower than -slow-query to stderr, mounts net/http/pprof
// when -pprof is set (on its own mux; enable only on trusted listeners),
// and with -profile-dir writes a whole-run CPU profile plus an exit heap
// profile. None of it feeds a release: seeded releases are bit-identical
// with every one of these flags on or off.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"nodedp"
	"nodedp/internal/core"
	"nodedp/internal/fault"
	"nodedp/internal/httpapi"
	"nodedp/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ccdp:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	if len(args) > 0 && args[0] == "serve" {
		return runServe(args[1:], stdin, stdout)
	}
	if len(args) > 0 && args[0] == "daemon" {
		return runDaemon(args[1:], stdout)
	}
	if len(args) > 0 && args[0] == "audit" {
		return runAudit(args[1:], stdout)
	}

	fs := flag.NewFlagSet("ccdp", flag.ContinueOnError)
	epsilon := fs.Float64("epsilon", 0, "total privacy budget ε (required, > 0)")
	mode := fs.String("mode", "cc", "what to estimate: cc (components), cc-known-n (components, public vertex count), sf (spanning-forest size)")
	input := fs.String("input", "", "edge-list file (default: stdin)")
	seed := fs.Uint64("seed", 0, "0 = crypto randomness; nonzero = reproducible (testing only)")
	workers := fs.Int("workers", 0, "concurrent component LP solves, also bounding the concurrent separation oracle calls within one component (0 = all CPUs, ≥ 0; result is identical for any value)")
	timeout := fs.Duration("timeout", 0, "abort the estimation after this long, spending no budget (0 = no deadline)")
	verbose := fs.Bool("v", false, "print selection diagnostics (NOT private; testing only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *epsilon <= 0 {
		return usageError(fs, "-epsilon must be positive")
	}
	if *workers < 0 {
		return usageError(fs, "-workers must be ≥ 0, got %d", *workers)
	}

	g, closeInput, err := readInputGraph(stdin, *input)
	if err != nil {
		return err
	}
	defer closeInput()

	opts := nodedp.Options{Epsilon: *epsilon}
	if *seed != 0 {
		opts.Rand = nodedp.NewRand(*seed)
	}
	opts.ForestLP.Workers = *workers

	ctx, cancel := timeoutContext(*timeout)
	defer cancel()

	var res nodedp.Result
	switch *mode {
	case "cc":
		res, err = nodedp.EstimateComponentCountCtx(ctx, g, opts)
	case "cc-known-n":
		res, err = nodedp.EstimateComponentCountKnownNCtx(ctx, g, opts)
	case "sf":
		res, err = nodedp.EstimateSpanningForestSizeCtx(ctx, g, opts)
	default:
		return usageError(fs, "unknown -mode %q (want cc, cc-known-n or sf)", *mode)
	}
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "graph: n=%d m=%d\n", g.N(), g.M())
	fmt.Fprintf(stdout, "mode: %s  epsilon: %g\n", *mode, *epsilon)
	fmt.Fprintf(stdout, "private estimate: %.2f\n", res.Value)
	if *verbose {
		fmt.Fprintf(stdout, "[config — effective flags]\n")
		printConfigSummary(stdout, "  ", fs)
		fmt.Fprintf(stdout, "[diagnostics — not private]\n")
		fmt.Fprintf(stdout, "  selected Δ̂ = %g, noise scale %.3f\n", res.Delta, res.NoiseScale)
		for _, ev := range res.Evaluations {
			fmt.Fprintf(stdout, "  f_%g(G) = %.3f (q = %.3f)\n", ev.Delta, ev.FDelta, ev.Q)
		}
		fmt.Fprintf(stdout, "  engine: %d components, %d workers, %d fast-path hits, %d LP solves\n",
			res.Stats.Components, res.Stats.Workers, res.Stats.FastPathHits, res.Stats.LPSolves)
		fmt.Fprintf(stdout, "  solver: %d pivots, %d parametric slides (%d in ≤%d pivots), %d refactorizations, %d fallbacks\n",
			res.Stats.SimplexPivots, res.Stats.ParametricSlides, res.Stats.ParametricCheapSolves,
			nodedp.IncrementalCheapPivots, res.Stats.Refactorizations, res.Stats.IncrementalFallbacks)
	}
	return nil
}

// runDaemon implements the daemon subcommand: the HTTP/JSON front end of
// internal/httpapi behind a graceful-drain lifecycle. SIGTERM or SIGINT
// starts the drain: /healthz flips to 503 so load balancers stop routing
// here, in-flight requests complete, and the listener closes once idle (or
// after -drain-timeout, whichever comes first).
func runDaemon(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ccdp daemon", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:8080", "address to listen on (host:port; port 0 picks a free port)")
	maxInflight := fs.Int("max-inflight", httpapi.DefaultMaxInflight, "maximum concurrently executing /v1 requests; excess requests are shed with 429 + Retry-After")
	readLimit := fs.Int64("read-limit", httpapi.DefaultReadLimit, "maximum request body size in bytes")
	maxSessions := fs.Int("max-sessions", httpapi.DefaultMaxSessions, "maximum live sessions across all tenants")
	maxPerTenant := fs.Int("max-per-tenant", httpapi.DefaultMaxPerTenant, "maximum live sessions per tenant")
	idleTTL := fs.Duration("idle-ttl", httpapi.DefaultIdleTTL, "evict sessions idle longer than this")
	cacheWeight := fs.Int64("cache-weight", httpapi.DefaultCacheWeight, "plan-cache budget in grid-evaluation cost units (≈ (n+m)·grid points per plan; must be positive); per tenant by default, but with -cache-file it sizes the ONE cache shared by all tenants")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "maximum time to wait for in-flight requests on shutdown")
	cacheFile := fs.String("cache-file", "", "snapshot file for warm restarts: load the plan cache from it on boot, persist on drain/interval/admin request (implies ONE cache shared across tenants)")
	cacheSaveInterval := fs.Duration("cache-save-interval", 5*time.Minute, "periodically persist the plan cache to -cache-file (0 disables the timer; drain and admin saves still run)")
	auditLog := fs.String("audit-log", "", "append every privacy-ledger operation to this CRC-guarded file (verify offline with `ccdp audit -log <file>`)")
	traceRing := fs.Int("trace-ring", httpapi.DefaultTraceRing, "retain the most recent N request traces for GET /v1/admin/traces (0 disables the endpoint)")
	traceSeed := fs.Uint64("trace-seed", 0, "base seed for span identity of requests without a request ID (0 = default; request IDs derive their own)")
	slowQuery := fs.Duration("slow-query", 0, "log requests slower than this to stderr (0 disables the slow-query log)")
	enablePprof := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the API listener (operational data only; never expose publicly)")
	profileDir := fs.String("profile-dir", "", "write a whole-run CPU profile and an exit heap profile into this directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *maxInflight <= 0 || *readLimit <= 0 || *maxSessions <= 0 || *maxPerTenant <= 0 {
		return usageError(fs, "-max-inflight, -read-limit, -max-sessions and -max-per-tenant must be positive")
	}
	if *cacheWeight <= 0 {
		return usageError(fs, "-cache-weight must be positive, got %d", *cacheWeight)
	}
	if *cacheSaveInterval < 0 {
		return usageError(fs, "-cache-save-interval must be ≥ 0, got %v", *cacheSaveInterval)
	}
	if *cacheFile == "" {
		intervalSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "cache-save-interval" {
				intervalSet = true
			}
		})
		if intervalSet {
			return usageError(fs, "-cache-save-interval requires -cache-file")
		}
	}

	if *traceRing < 0 {
		return usageError(fs, "-trace-ring must be ≥ 0, got %d", *traceRing)
	}
	if *slowQuery < 0 {
		return usageError(fs, "-slow-query must be ≥ 0, got %v", *slowQuery)
	}

	// The privacy audit log opens before the listener: a daemon that served
	// even one query without its ledger on disk has already failed the
	// audit contract. OpenAuditLog verifies an existing file end to end and
	// continues its sequence numbers, so restarts append rather than fork.
	var audit *obs.AuditLog
	if *auditLog != "" {
		var err error
		if audit, err = obs.OpenAuditLog(*auditLog); err != nil {
			return fmt.Errorf("-audit-log: %w", err)
		}
		defer func() {
			if err := audit.Close(); err != nil {
				fmt.Fprintf(stdout, "ccdp daemon: WARNING: audit log: %v\n", err)
			}
		}()
		fmt.Fprintf(stdout, "ccdp daemon: privacy audit log at %s\n", *auditLog)
	}

	// Whole-run profiling: a CPU profile spanning boot to drain plus a heap
	// profile at exit. Profiles carry operational data (stacks, allocation
	// sites), never released values, so writing them does not touch the
	// privacy contract.
	if *profileDir != "" {
		stopProfiles, err := startProfiles(*profileDir)
		if err != nil {
			return fmt.Errorf("-profile-dir: %w", err)
		}
		defer func() {
			if err := stopProfiles(); err != nil {
				fmt.Fprintf(stdout, "ccdp daemon: WARNING: writing profiles: %v\n", err)
			}
		}()
	}

	// Chaos drills: arm any failpoints listed in NODEDP_FAILPOINTS before
	// the stack starts. An unset variable leaves every site disabled at
	// zero overhead; a malformed spec fails the boot loudly rather than
	// running a drill with no faults armed.
	if n, err := fault.ArmFromEnv(); err != nil {
		return fmt.Errorf("parsing %s: %w", fault.EnvVar, err)
	} else if n > 0 {
		fmt.Fprintf(stdout, "ccdp daemon: CHAOS: %d failpoint site(s) armed from %s: %s\n",
			n, fault.EnvVar, strings.Join(fault.Sites(), ", "))
	}

	// Warm-restart persistence: one shared cache, loaded from the snapshot
	// before the listener opens so the very first upload can hit.
	var cache *core.PlanCache
	if *cacheFile != "" {
		// Fail fast on an unwritable path — discovering it at SIGTERM would
		// silently lose every plan the process accumulated.
		if err := probeWritable(*cacheFile); err != nil {
			return fmt.Errorf("-cache-file %s is not writable: %w", *cacheFile, err)
		}
		cache = core.NewPlanCacheWeighted(*cacheWeight)
		rep, err := cache.LoadFile(*cacheFile)
		switch {
		case errors.Is(err, os.ErrNotExist):
			fmt.Fprintf(stdout, "ccdp daemon: no plan-cache snapshot at %s yet (cold start)\n", *cacheFile)
		case err != nil:
			fmt.Fprintf(stdout, "ccdp daemon: WARNING: ignoring unreadable plan-cache snapshot %s: %v (continuing with a cold cache)\n", *cacheFile, err)
		default:
			fmt.Fprintf(stdout, "ccdp daemon: loaded %d cached plans from %s\n", rep.Loaded, *cacheFile)
			if rep.Skipped() > 0 {
				fmt.Fprintf(stdout, "ccdp daemon: WARNING: skipped %d damaged snapshot entries (first: %v)\n", rep.Skipped(), rep.Errs[0])
			}
		}
	}

	cfg := httpapi.Config{
		MaxInflight:        *maxInflight,
		ReadLimit:          *readLimit,
		CacheWeight:        *cacheWeight,
		Cache:              cache,
		CacheFile:          *cacheFile,
		TraceSeed:          *traceSeed,
		TraceRing:          *traceRing,
		SlowQueryThreshold: *slowQuery,
		EnablePprof:        *enablePprof,
		Registry: httpapi.RegistryConfig{
			MaxSessions:  *maxSessions,
			MaxPerTenant: *maxPerTenant,
			IdleTTL:      *idleTTL,
		},
	}
	if *traceRing == 0 {
		cfg.TraceRing = -1 // flag 0 = off; Config zero value means "default"
	}
	if audit != nil {
		cfg.Audit = audit
	}
	api := httpapi.New(cfg)
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: api, ReadHeaderTimeout: 10 * time.Second}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The listening line is the supervision handshake (tests and wrappers
	// wait for it before sending traffic or signals), so the drain handler
	// must be registered before it prints.
	fmt.Fprintf(stdout, "ccdp daemon config:\n")
	printConfigSummary(stdout, "  ", fs)
	fmt.Fprintf(stdout, "ccdp daemon listening on %s\n", ln.Addr())

	// Idle sessions must expire even when no request ever sweeps them; the
	// same goroutine runs the periodic plan-cache save so a crash between
	// drains loses at most one interval of planning work. tickerDone is
	// closed when the goroutine exits: the final drain save must wait for
	// it, or an in-flight periodic save could rename a stale pre-drain
	// snapshot over the complete post-drain one.
	sweeper := time.NewTicker(time.Minute)
	defer sweeper.Stop()
	var saveC <-chan time.Time
	if *cacheFile != "" && *cacheSaveInterval > 0 {
		saver := time.NewTicker(*cacheSaveInterval)
		defer saver.Stop()
		saveC = saver.C
	}
	tickerDone := make(chan struct{})
	go func() {
		defer close(tickerDone)
		for {
			// Check for shutdown first: after the signal lands, a pending
			// tick must not win the select race and start a save the drain
			// path would then have to wait out.
			select {
			case <-ctx.Done():
				return
			default:
			}
			select {
			case <-sweeper.C:
				api.Sweep()
			case <-saveC:
				// Dirty-bit gated: a quiet interval (no inserts, hits, or
				// evictions since the last save) skips the serialization and
				// the rename entirely. Drain and admin saves stay
				// unconditional.
				if _, _, err := api.SaveCacheIfChanged(); err != nil {
					fmt.Fprintf(stdout, "ccdp daemon: WARNING: periodic plan-cache save failed: %v\n", err)
				}
			case <-ctx.Done():
				return
			}
		}
	}()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err // listener failed outright
	case <-ctx.Done():
	}

	fmt.Fprintln(stdout, "ccdp daemon draining")
	api.StartDrain()
	sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return fmt.Errorf("drain incomplete: %w", err)
	}
	<-errc       // Serve has returned http.ErrServerClosed
	<-tickerDone // no periodic save may still be racing the final one
	if *cacheFile != "" {
		// Persist after the drain: every in-flight upload has finished, so
		// the snapshot carries the final cache state.
		if n, err := api.SaveCache(); err != nil {
			fmt.Fprintf(stdout, "ccdp daemon: WARNING: final plan-cache save failed: %v\n", err)
		} else {
			fmt.Fprintf(stdout, "ccdp daemon: saved %d cached plans to %s\n", n, *cacheFile)
		}
	}
	fmt.Fprintln(stdout, "ccdp daemon stopped")
	return nil
}

// startProfiles begins a CPU profile at dir/cpu.pprof and returns a stop
// function that ends it and writes a final heap profile to dir/heap.pprof.
func startProfiles(dir string) (func() error, error) {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, err
	}
	cpuF, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(cpuF); err != nil {
		cpuF.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		cerr := cpuF.Close()
		heapF, err := os.Create(filepath.Join(dir, "heap.pprof"))
		if err != nil {
			return errors.Join(cerr, err)
		}
		werr := pprof.Lookup("heap").WriteTo(heapF, 0)
		return errors.Join(cerr, werr, heapF.Close())
	}, nil
}

// probeWritable verifies that a snapshot could be created next to path by
// creating and removing a temporary file in its directory — the same
// operation the atomic save performs.
func probeWritable(path string) error {
	f, err := os.CreateTemp(filepath.Dir(path), ".ccdp-cache-probe-*")
	if err != nil {
		return err
	}
	name := f.Name()
	f.Close()
	return os.Remove(name)
}

// runServe implements the serve subcommand: one session, many queries from
// a query file, each debiting the session budget.
func runServe(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("ccdp serve", flag.ContinueOnError)
	budget := fs.Float64("budget", 0, "total session privacy budget ε (required, > 0); queries debit it under the selected composition accountant")
	accountant := fs.String("accountant", "sequential", "composition accountant: sequential (pure ε) or advanced ((ε, δ); -acct-delta required)")
	acctDelta := fs.Float64("acct-delta", 0, "advanced-composition failure probability δ in (0, 1); only with -accountant advanced")
	queries := fs.String("queries", "", "query file, one \"<mode> <epsilon> [seed]\" per line (required)")
	input := fs.String("input", "", "edge-list file (default: stdin)")
	seed := fs.Uint64("seed", 0, "session noise source: 0 = crypto randomness; nonzero = reproducible (testing only); per-query seeds override")
	workers := fs.Int("workers", 0, "concurrent component LP solves for the one-time plan build, also bounding the concurrent separation oracle calls within one component (0 = all CPUs, ≥ 0)")
	timeout := fs.Duration("timeout", 0, "deadline for plan build + all queries; an expired query fails without spending its ε (0 = no deadline)")
	auditLog := fs.String("audit-log", "", "append every privacy-ledger operation to this CRC-guarded file (verify offline with `ccdp audit -log <file>`)")
	verbose := fs.Bool("v", false, "print per-query selection diagnostics (NOT private; testing only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *budget <= 0 {
		return usageError(fs, "-budget must be positive")
	}
	if *queries == "" {
		return usageError(fs, "-queries is required")
	}
	if *workers < 0 {
		return usageError(fs, "-workers must be ≥ 0, got %d", *workers)
	}

	reqs, err := readQueryFile(*queries)
	if err != nil {
		return err
	}

	g, closeInput, err := readInputGraph(stdin, *input)
	if err != nil {
		return err
	}
	defer closeInput()

	sopts := nodedp.SessionOptions{TotalBudget: *budget, Delta: *acctDelta}
	if *auditLog != "" {
		audit, err := obs.OpenAuditLog(*auditLog)
		if err != nil {
			return fmt.Errorf("-audit-log: %w", err)
		}
		defer func() {
			if err := audit.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "ccdp serve: WARNING: audit log: %v\n", err)
			}
		}()
		sopts.Audit = audit
	}
	switch *accountant {
	case "sequential":
	case "advanced":
		sopts.Composition = nodedp.CompositionAdvanced
	default:
		return usageError(fs, "unknown -accountant %q (want sequential or advanced)", *accountant)
	}
	if *seed != 0 {
		sopts.Rand = nodedp.NewRand(*seed)
	}
	sopts.ForestLP.Workers = *workers

	ctx, cancel := timeoutContext(*timeout)
	defer cancel()

	sess, err := nodedp.Open(ctx, g, sopts)
	if err != nil {
		return err
	}
	acctLabel := sess.AccountantName()
	if d := sess.Delta(); d > 0 {
		acctLabel = fmt.Sprintf("%s (δ=%g)", acctLabel, d)
	}
	fmt.Fprintf(stdout, "session: n=%d m=%d fingerprint=%s budget ε=%g accountant=%s\n",
		g.N(), g.M(), sess.Fingerprint(), *budget, acctLabel)

	resps := sess.Do(ctx, reqs)
	for i, resp := range resps {
		label := fmt.Sprintf("q%d %-10s ε=%-6g", i+1, describeRequest(reqs[i]), reqs[i].Epsilon)
		switch {
		case errors.Is(resp.Err, nodedp.ErrBudgetExhausted):
			fmt.Fprintf(stdout, "%s REJECTED: budget exhausted\n", label)
		case resp.Err != nil:
			fmt.Fprintf(stdout, "%s FAILED: %v\n", label, resp.Err)
		default:
			fmt.Fprintf(stdout, "%s estimate %.2f\n", label, resp.Result.Value)
			if *verbose {
				fmt.Fprintf(stdout, "  [not private] Δ̂ = %g, noise scale %.3f\n",
					resp.Result.Delta, resp.Result.NoiseScale)
			}
		}
	}

	st := sess.Stats()
	fmt.Fprintf(stdout, "session: %d/%d queries admitted, spent ε=%g of %g (remaining %g), plans built %d\n",
		st.Admitted, st.Queries, st.Spent, st.TotalBudget, st.Remaining, st.PlansBuilt)
	return nil
}

// readQueryFile parses the serve query format: "<mode> <epsilon>" followed
// by an optional seed ("7" or "seed=7") per line, '#' comments and blank
// lines allowed. Every malformed line — unknown mode, missing/non-positive/
// non-finite epsilon, zero or duplicate seed, unknown or repeated
// key=value fields — fails with a line-numbered error so a typo never
// silently skips a query or runs it with different randomness than asked.
func readQueryFile(path string) ([]nodedp.BatchRequest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	var reqs []nodedp.BatchRequest
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		req, err := parseQueryLine(fields)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, lineNo, err)
		}
		reqs = append(reqs, req)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s:%d: %w", path, lineNo+1, err)
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("%s: no queries", path)
	}
	return reqs, nil
}

// parseQueryLine parses the fields of one non-empty query line.
func parseQueryLine(fields []string) (nodedp.BatchRequest, error) {
	var req nodedp.BatchRequest
	switch fields[0] {
	case "cc":
		req.Op = nodedp.OpComponentCount
	case "cc-known-n":
		req.Op, req.Mode = nodedp.OpComponentCount, nodedp.ModeKnownN
	case "sf":
		req.Op = nodedp.OpSpanningForestSize
	default:
		return req, fmt.Errorf("unknown mode %q (want cc, cc-known-n or sf)", fields[0])
	}
	if len(fields) < 2 {
		return req, fmt.Errorf("missing epsilon (want \"<mode> <epsilon> [seed]\")")
	}
	eps, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return req, fmt.Errorf("bad epsilon %q: %v", fields[1], err)
	}
	if eps <= 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		// The session would reject this later anyway, but without a line
		// number — and after the plan build.
		return req, fmt.Errorf("epsilon %v must be positive and finite", eps)
	}
	req.Epsilon = eps

	seenSeed := false
	for _, field := range fields[2:] {
		val := field
		if key, v, ok := strings.Cut(field, "="); ok {
			if key != "seed" {
				return req, fmt.Errorf("unknown field %q (only seed=N is allowed)", field)
			}
			val = v
		}
		if seenSeed {
			return req, fmt.Errorf("duplicate seed field %q", field)
		}
		seenSeed = true
		seed, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return req, fmt.Errorf("bad seed %q: %v", val, err)
		}
		if seed == 0 {
			// Seed 0 is the "unseeded" sentinel: accepting it would
			// silently switch the query to crypto randomness.
			return req, fmt.Errorf("seed must be nonzero (omit the field for crypto randomness)")
		}
		req.Seed = seed
	}
	return req, nil
}

// describeRequest renders a request's mode the way the query file spells it.
func describeRequest(r nodedp.BatchRequest) string {
	if r.Op == nodedp.OpSpanningForestSize {
		return "sf"
	}
	if r.Mode == nodedp.ModeKnownN {
		return "cc-known-n"
	}
	return "cc"
}

// readInputGraph reads the graph from path, or from stdin when path is
// empty; the returned closer is a no-op for stdin.
func readInputGraph(stdin io.Reader, path string) (*nodedp.Graph, func(), error) {
	r, closer := stdin, func() {}
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, err
		}
		r, closer = f, func() { f.Close() }
	}
	g, err := nodedp.ReadGraph(r)
	if err != nil {
		closer()
		return nil, nil, err
	}
	return g, closer, nil
}

// timeoutContext returns a background context bounded by d (unbounded when
// d is zero).
func timeoutContext(d time.Duration) (context.Context, context.CancelFunc) {
	if d > 0 {
		return context.WithTimeout(context.Background(), d)
	}
	return context.Background(), func() {}
}

// usageError prints the flag set's usage and returns the formatted error,
// so invalid invocations fail loudly instead of being passed through.
// printConfigSummary renders the effective flag settings, one `-name=value`
// per line. Startup logs get diffed across deployments and seeded runs, so
// the rendering is collect-then-sort — the idiom detlint's maporder
// analyzer enforces — never raw map iteration order.
func printConfigSummary(w io.Writer, indent string, fs *flag.FlagSet) {
	vals := make(map[string]string)
	fs.VisitAll(func(f *flag.Flag) { vals[f.Name] = f.Value.String() })
	names := make([]string, 0, len(vals))
	for name := range vals {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%s-%s=%s\n", indent, name, vals[name])
	}
}

func usageError(fs *flag.FlagSet, format string, args ...interface{}) error {
	fs.Usage()
	return fmt.Errorf(format, args...)
}
