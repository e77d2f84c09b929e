// Command perfbench is the repository benchmark. It drives the ccdp daemon,
// built from the tree under test and run as its own process, with a
// closed-loop load generator over loopback HTTP, checks every reply, and
// prints one JSON result line. With -trace 1 it also replays the operation
// stream in process with a span around every call into a layer, and reports
// per-layer metrics instead. README.md describes the workloads and metrics;
// run.sh builds both binaries and runs one benchmark:
//
//	bash perfbench/run.sh --workload query-http --seed 1 --seconds 15 --trace 0
package main

import (
	"context"
	"crypto/sha256"
	"debug/buildinfo"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// workload is one closed-loop traffic mix on mix2k.
type workload struct {
	name, why string
	// A latency figure is the median over a run's daemons of each daemon's
	// quantile; pooled workloads, whose daemons each complete too few
	// operations for a tail of their own, take the quantile of the samples
	// pooled over the daemons instead. opTail and readTail are the tail
	// percentiles: the highest of p99, p90 and p75 that leaves at least ten
	// samples beyond it in each daemon's share of the window (in the pooled
	// samples for a pooled workload).
	pooled           bool
	opTail, readTail float64
	// countOps is how many leading traced operations the per-layer counts
	// average over, so that they repeat exactly whatever a run's length;
	// maxTracedOps caps the traced run, whose spans stay in memory.
	countOps, maxTracedOps int
}

var workloads = []workload{
	{
		name:     "query-http",
		why:      "the read path: httpapi, serve, privacy and mechanism do all the work and the planner none",
		opTail:   0.99,
		readTail: 0.99,
		countOps: 3, maxTracedOps: 10000,
	},
	{
		name:     "open-cold",
		why:      "upload to first release: graph, forestlp, lp and maxflow do most of the work on both LP paths",
		pooled:   true,
		opTail:   0.75,
		readTail: 0.90,
		countOps: 2, maxTracedOps: 40,
	},
	{
		name:     "live-mutate",
		why:      "PATCH deltas each re-plan one merged component while a reader sends releases beside them",
		opTail:   0.90,
		readTail: 0.99,
		countOps: 64, maxTracedOps: 2000,
	},
}

type config struct {
	w       workload
	seed    uint64
	seconds int
	trace   bool
	daemon  string
	out     string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "query-http, open-cold or live-mutate")
	seed := flag.Uint64("seed", 1, "workload seed: mix2k and every operation stream derive from it")
	seconds := flag.Int("seconds", 15, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 adds the traced in-process run and reports per-layer metrics")
	daemonPath := flag.String("daemon", "", "the ccdp binary under test")
	out := flag.String("out", ".bench_build", "directory for work records and spans")
	flag.Parse()
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == *name })
	if i < 0 || *daemonPath == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -daemon <ccdp> -workload <query-http|open-cold|live-mutate> -seed <n> -seconds <s> -trace <0|1>")
		os.Exit(2)
	}
	cfg := config{w: workloads[i], seed: *seed, seconds: *seconds, trace: *trace == 1, daemon: *daemonPath, out: *out}
	res, prov, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	provLine, _ := json.Marshal(map[string]any{"provenance": prov})
	fmt.Printf("%s\n%s\n", provLine, line)
}

func run(ctx context.Context, cfg config) (result, map[string]any, error) {
	m, err := newMix(cfg.seed)
	if err != nil {
		return result{}, nil, err
	}
	var (
		br  []bridge
		fps []string
	)
	if cfg.w.name == "live-mutate" {
		br = m.bridges(cfg.seed, max(cfg.w.maxTracedOps, 600*cfg.seconds)+1000)
		fps = m.deltaFingerprints(br)
	}
	ref, err := openReference(ctx, m.g.Clone())
	if err != nil {
		return result{}, nil, err
	}

	e, err := runE2E(ctx, cfg, m, ref, br, fps)
	if err != nil {
		return result{}, nil, err
	}
	res := result{Attempted: e.attempted(), Failed: e.failed(), Metrics: e2eMetrics(cfg.w, e)}

	// Identical-work guard: this run's deterministic work against the
	// record an earlier run of the same build and seed left.
	build, err := buildDigest(cfg.daemon)
	if err != nil {
		return result{}, nil, err
	}
	rec := workRecord{
		Workload: cfg.w.name, Seed: cfg.seed, N: m.g.N(), M: m.g.M(),
		Components: m.components, NonTrivial: m.nontrivial, ColdPlan: e.plan,
	}
	if cfg.w.name == "live-mutate" {
		rec.DeltaSubPlanHits, rec.DeltaSubPlanMisses = int64(m.nontrivial-2), 1
	}
	res.Attempted++
	workErr := checkWork(filepath.Join(cfg.out, "work"), build, rec)
	if workErr != nil {
		res.Failed++
		fmt.Fprintln(os.Stderr, "perfbench:", workErr)
	}

	if cfg.trace {
		l, tr, err := runTraced(ctx, cfg.w, m, br, fps, cfg.seconds)
		if err != nil {
			return result{}, nil, err
		}
		res.Metrics = layerMetrics(l, e)
		res.Attempted += l.ops
		res.Failed += l.failed
		if err := os.MkdirAll(filepath.Join(cfg.out, "traces"), 0o755); err != nil {
			return result{}, nil, err
		}
		if err := writeSpans(filepath.Join(cfg.out, "traces", fmt.Sprintf("%s-seed%d.tsv", cfg.w.name, cfg.seed)), tr); err != nil {
			return result{}, nil, err
		}
	}
	res.Correct = res.Failed == 0

	daemonGo := "unknown"
	if bi, err := buildinfo.ReadFile(cfg.daemon); err == nil {
		daemonGo = bi.GoVersion
	}
	prov := map[string]any{
		"workload": cfg.w.name, "why": cfg.w.why, "seed": cfg.seed, "trace": cfg.trace,
		"input": map[string]int{
			"n": m.g.N(), "m": m.g.M(), "components": m.components, "nontrivial_components": m.nontrivial,
			"upload_bytes": len(m.uploadBody(benchTenant, "")), "deltas_generated": len(br),
		},
		"nproc": runtime.NumCPU(), "generator_gomaxprocs": runtime.GOMAXPROCS(0), "daemon_gomaxprocs": e.daemonMaxProcs,
		"go_version": runtime.Version(), "daemon_go_version": daemonGo,
		"daemons": daemonRuns, "window_s": e.window.Seconds(), "ops_per_s_by_daemon": e.opsPerSec, "cold_plan": e.plan,
		"op_samples": len(e.ops.lat), "op_tail": tailName(cfg.w.opTail), "op_tail_beyond": tailBeyond(cfg.w, e.opsByDaemon, cfg.w.opTail),
		"read_samples": len(e.reads.lat), "read_tail": tailName(cfg.w.readTail),
		"read_tail_beyond": tailBeyond(cfg.w, readsByDaemon(cfg.w, e), cfg.w.readTail),
	}
	return res, prov, nil
}

// readsByDaemon are the release latencies beside (live-mutate) or after
// (open-cold) the primary operation; in query-http every operation is a
// release, so its read figures are its operation figures.
func readsByDaemon(w workload, e *e2eRun) [][]time.Duration {
	if w.name == "query-http" {
		return e.opsByDaemon
	}
	return e.readsByDaemon
}

// latency is the run's q-quantile latency (see workload).
func latency(w workload, byDaemon [][]time.Duration, q float64) time.Duration {
	if w.pooled {
		return quantile(sortedDurations(slices.Concat(byDaemon...)), q)
	}
	per := make([]float64, len(byDaemon))
	for i, d := range byDaemon {
		per[i] = float64(quantile(sortedDurations(d), q))
	}
	return time.Duration(median(per))
}

// tailBeyond is the fewest samples beyond the q-quantile that a latency
// figure rests on: in the pooled samples, or in the sparsest daemon.
func tailBeyond(w workload, byDaemon [][]time.Duration, q float64) int {
	if w.pooled {
		return beyond(len(slices.Concat(byDaemon...)), q)
	}
	fewest := -1
	for _, d := range byDaemon {
		if b := beyond(len(d), q); fewest < 0 || b < fewest {
			fewest = b
		}
	}
	return fewest
}

func e2eMetrics(w workload, e *e2eRun) map[string]metric {
	reads := readsByDaemon(w, e)
	return map[string]metric{
		"setup_s":      {medianDuration(e.setups).Seconds(), "s"},
		"ops_per_s":    {median(e.opsPerSec), "1/s"},
		"op_p50_ms":    {ms(latency(w, e.opsByDaemon, 0.5)), "ms"},
		"op_tail_ms":   {ms(latency(w, e.opsByDaemon, w.opTail)), "ms"},
		"peak_rss_mb":  {median(e.peakRSSMiB), "MiB"},
		"read_p50_ms":  {ms(latency(w, reads, 0.5)), "ms"},
		"read_tail_ms": {ms(latency(w, reads, w.readTail)), "ms"},
	}
}

func layerMetrics(l *ledger, e *e2eRun) map[string]metric {
	out := make(map[string]metric)
	timed := func(name string, ns float64) {
		if strings.HasSuffix(name, "_us") {
			out[name] = metric{ns / 1e3, "us"}
		} else {
			out[name] = metric{ns / 1e6, "ms"}
		}
	}
	for name, ns := range l.selfNs {
		timed(name, ns)
	}
	for name, ns := range l.inclusiveNs {
		timed(name, ns)
	}
	timed("unattributed_ms", l.unattributedNs)
	for name, v := range l.counts {
		unit := "count"
		if strings.HasSuffix(name, "_ratio") || strings.HasSuffix(name, "_per_flow") {
			unit = "ratio"
		}
		out[name] = metric{v, unit}
	}
	out["daemon.cpu_ms_per_op"] = metric{float64(e.cpu) / 1e6 / float64(max(len(e.ops.lat), 1)), "ms"}
	out["daemon.cpu_util"] = metric{e.cpu.Seconds() / e.window.Seconds(), "cores"}
	return out
}

// workRecord is the deterministic work a run caused. Two runs of one build
// with one seed must cause the same work, or their timings compare unequal
// operations.
type workRecord struct {
	Workload   string     `json:"workload"`
	Seed       uint64     `json:"seed"`
	N          int        `json:"n"`
	M          int        `json:"m"`
	Components int        `json:"components"`
	NonTrivial int        `json:"nontrivial_components"`
	ColdPlan   planCounts `json:"cold_plan"`
	// DeltaSubPlanHits and DeltaSubPlanMisses are what each PATCH reported;
	// the run's checks already failed any delta that differed.
	DeltaSubPlanHits   int64 `json:"delta_subplan_hits"`
	DeltaSubPlanMisses int64 `json:"delta_subplan_misses"`
}

// checkWork compares rec with the record an earlier run of the same build
// and seed left in dir, or leaves rec there for later runs.
func checkWork(dir, build string, rec workRecord) error {
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", rec.Workload, rec.Seed, build))
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		raw, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(path, raw, 0o644)
	}
	if err != nil {
		return err
	}
	var prev workRecord
	if err := json.Unmarshal(raw, &prev); err != nil {
		return fmt.Errorf("work record %s: %w", path, err)
	}
	if prev != rec {
		return fmt.Errorf("identical-work guard: this run did %+v, an earlier run with seed %d did %+v", rec, rec.Seed, prev)
	}
	return nil
}

// buildDigest names a build — the daemon under test and this generator,
// which makes the inputs — by 12 hex digits of the binaries' SHA-256.
func buildDigest(daemon string) (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for _, path := range []string{daemon, self} {
		f, err := os.Open(path)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:12], nil
}
