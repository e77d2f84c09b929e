package main

// This file is the end-to-end run: the daemon under test as its own
// process, this process as the single load generator, and closed-loop
// callers that each send their next request only after the reply to the
// previous one, like internal/client and `ccdp serve`.

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"nodedp/internal/serve"
)

const (
	// daemonRuns is how many daemons a run boots, one after another. Each
	// plans mix2k cold (setup_s is the median of those set-ups) and then
	// serves an equal share of the timed window. Throughput on two shared
	// cores settles into a different state in each daemon and connection
	// pair; spreading the window over several of them and reporting the
	// median keeps one unlucky state from deciding a run.
	daemonRuns = 10
	// setupRequestID names the setup upload, so its trace can be found.
	setupRequestID = "setup"
)

// tally is one caller's (or a merged set of callers') record.
type tally struct {
	lat               []time.Duration // of the operations that passed their checks
	attempted, failed int64
}

func (t *tally) add(o tally) {
	t.lat = append(t.lat, o.lat...)
	t.attempted += o.attempted
	t.failed += o.failed
}

// fail records a failed check and says why on standard error.
func (t *tally) fail(err error) {
	t.failed++
	if t.failed <= 3 {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
	}
}

// e2eRun is what one run against the daemons measured.
type e2eRun struct {
	setups []time.Duration
	// window is the summed length of the daemons' windows; opsPerSec and
	// peakRSSMiB hold one value per daemon.
	window     time.Duration
	opsPerSec  []float64
	peakRSSMiB []float64
	// ops are the primary operations, pooled over the daemons. reads are
	// live-mutate's reader; in open-cold they hold the releases on each
	// fresh session, latency only, since their outcome counts with the
	// operation.
	ops, reads tally
	// opsByDaemon and readsByDaemon hold the same latencies per daemon.
	opsByDaemon, readsByDaemon [][]time.Duration
	// checks are the seeded probes, the daemon's planner counters and
	// live-mutate's final release check.
	checks         tally
	cpu            time.Duration
	daemonMaxProcs int
	plan           planCounts
}

func (r *e2eRun) attempted() int64 { return r.ops.attempted + r.reads.attempted + r.checks.attempted }
func (r *e2eRun) failed() int64    { return r.ops.failed + r.reads.failed + r.checks.failed }

// runE2E boots daemonRuns daemons in turn; each is set up, checked against
// the reference, and driven through its share of the window.
func runE2E(ctx context.Context, cfg config, m *mix, ref *serve.Session, br []bridge, fps []string) (*e2eRun, error) {
	ps, err := probes(ctx, ref, cfg.seed)
	if err != nil {
		return nil, err
	}
	r := &e2eRun{}
	share := time.Duration(cfg.seconds) * time.Second / daemonRuns
	for i := 0; i < daemonRuns; i++ {
		// Each daemon's session starts from mix2k, so each takes its own
		// segment of the bridge stream: a run's deltas are all distinct.
		seg := len(br) / daemonRuns
		if err := r.daemonRun(ctx, cfg, m, ref, ps, br[i*seg:(i+1)*seg], fps[i*seg:(i+1)*seg], share); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// daemonRun boots one daemon, times its cold set-up, checks it, drives the
// workload for the window share, and stops it.
func (r *e2eRun) daemonRun(ctx context.Context, cfg config, m *mix, ref *serve.Session, ps []probe, br []bridge, fps []string, share time.Duration) error {
	tenant := benchTenant
	if cfg.w.name == "open-cold" {
		tenant = coldTenant
	}
	upload := m.uploadBody(tenant, setupRequestID)
	start := time.Now()
	d, err := startDaemon(cfg.daemon)
	if err != nil {
		return err
	}
	c := newClient(d.addr)
	defer func() {
		c.close()
		if d != nil {
			d.stop()
		}
	}()
	status, raw, err := c.do("POST", "/v1/graphs", upload)
	ready := time.Since(start)
	if err != nil {
		return fmt.Errorf("setup upload: %w", err)
	}
	sessionID, err := checkCreated(status, raw, m.fingerprint)
	if err != nil {
		return fmt.Errorf("setup upload: %w", err)
	}
	r.setups = append(r.setups, ready)

	// Checks, outside the window.
	if r.plan, err = daemonPlanCounts(c, tenant); err != nil {
		return err
	}
	r.checks.attempted++
	if want := countsOf(ref.Stats().Engine); r.plan != want {
		r.checks.fail(fmt.Errorf("the daemon planned mix2k with %+v, the in-process reference with %+v", r.plan, want))
	}
	if r.daemonMaxProcs, err = daemonMaxProcs(c); err != nil {
		return err
	}
	queryPath := "/v1/sessions/" + sessionID + "/query"
	for _, p := range ps {
		r.checks.attempted++
		if err := p.check(c, queryPath); err != nil {
			r.checks.fail(err)
		}
	}
	if cfg.w.name == "open-cold" {
		// The warm-up session goes, and with the tenant's last session its
		// plan cache: every timed upload plans cold.
		status, raw, err := c.do("DELETE", "/v1/sessions/"+sessionID, nil)
		if err != nil || status != http.StatusNoContent {
			return fmt.Errorf("deleting the warm-up session: status %d %s: %v", status, raw, err)
		}
	}

	pid := d.pid()
	cpu0, err := cpuTime(pid)
	if err != nil {
		return err
	}
	var ops, reads tally
	var window time.Duration
	switch cfg.w.name {
	case "query-http":
		var a, b tally
		other := newClient(d.addr)
		defer other.close()
		window = closedLoop(share,
			func(dl time.Time) { queryLoop(c, queryPath, "a", dl, &a) },
			func(dl time.Time) { queryLoop(other, queryPath, "b", dl, &b) })
		ops.add(a)
		ops.add(b)
	case "open-cold":
		body := m.uploadBody(coldTenant, "")
		window = closedLoop(share,
			func(dl time.Time) { openColdLoop(c, body, m.fingerprint, dl, &ops, &reads) })
	case "live-mutate":
		reader := newClient(d.addr)
		defer reader.close()
		last := -1
		wantHits := int64(m.nontrivial - 2)
		window = closedLoop(share,
			func(dl time.Time) { last = patchLoop(c, "/v1/graphs/"+sessionID, br, fps, wantHits, dl, &ops) },
			func(dl time.Time) { queryLoop(reader, queryPath, "r", dl, &reads) })
		r.checks.attempted++
		if err := finalDeltaCheck(ctx, c, queryPath, m, br, last, cfg.seed); err != nil {
			r.checks.fail(err)
		}
	}
	cpu1, err := cpuTime(pid)
	if err != nil {
		return err
	}
	rss, err := peakRSS(pid)
	if err != nil {
		return err
	}
	r.cpu += cpu1 - cpu0
	r.window += window
	r.opsPerSec = append(r.opsPerSec, float64(len(ops.lat))/window.Seconds())
	r.peakRSSMiB = append(r.peakRSSMiB, rss)
	r.ops.add(ops)
	r.reads.add(reads)
	r.opsByDaemon = append(r.opsByDaemon, ops.lat)
	r.readsByDaemon = append(r.readsByDaemon, reads.lat)
	c.close()
	err = d.stop()
	d = nil
	return err
}

// closedLoop runs each caller until the window closes; a caller finishes
// the operation it started before the deadline. It returns the window's
// length, up to the last caller's return.
func closedLoop(length time.Duration, callers ...func(deadline time.Time)) time.Duration {
	start := time.Now()
	deadline := start.Add(length)
	var wg sync.WaitGroup
	for _, call := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			call(deadline)
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// queryLoop sends a query stream: ops rotate cc / cc-known-n / sf.
func queryLoop(c *client, path, stream string, deadline time.Time, t *tally) {
	var body []byte
	for i := 0; time.Now().Before(deadline); i++ {
		op := queryOps[i%len(queryOps)]
		body = appendQuery(body[:0], op, stream, i)
		t.attempted++
		start := time.Now()
		status, raw, err := c.do("POST", path, body)
		lat := time.Since(start)
		if err == nil {
			err = checkQuery(status, raw, op)
		}
		if err != nil {
			t.fail(err)
			continue
		}
		t.lat = append(t.lat, lat)
	}
}

// releasesPerOpen is how many releases open-cold sends on each fresh
// session: the first ends the operation, and all of them are the
// workload's reads, enough per run for a steady read median and tail.
const releasesPerOpen = 8

// openColdLoop times upload-to-first-release of mix2k for a tenant with no
// live session, so every upload plans cold. The remaining releases and a
// DELETE, which drops the tenant's plan cache, follow untimed.
func openColdLoop(c *client, upload []byte, fingerprint string, deadline time.Time, ops, reads *tally) {
	var body []byte
	for i := 0; time.Now().Before(deadline); i++ {
		ops.attempted++
		start := time.Now()
		status, raw, err := c.do("POST", "/v1/graphs", upload)
		var id string
		if err == nil {
			id, err = checkCreated(status, raw, fingerprint)
		}
		if err != nil {
			ops.fail(err)
			continue
		}
		var first time.Time
		legs := make([]time.Duration, 0, releasesPerOpen)
		for j := 0; j < releasesPerOpen && err == nil; j++ {
			body = appendQuery(body[:0], "cc", "cold", i*releasesPerOpen+j)
			leg := time.Now()
			status, raw, err = c.do("POST", "/v1/sessions/"+id+"/query", body)
			end := time.Now()
			if err == nil {
				err = checkQuery(status, raw, "cc")
			}
			if j == 0 {
				first = end
			}
			legs = append(legs, end.Sub(leg))
		}
		status, _, derr := c.do("DELETE", "/v1/sessions/"+id, nil)
		if err == nil && derr == nil && status != http.StatusNoContent {
			derr = fmt.Errorf("delete: status %d", status)
		}
		if err != nil || derr != nil {
			ops.fail(fmt.Errorf("open-cold op %d: %v %v", i, err, derr))
			continue
		}
		ops.lat = append(ops.lat, first.Sub(start))
		reads.lat = append(reads.lat, legs...)
	}
}

// patchLoop sends the bridge stream and returns the index of the last
// delta the daemon applied, or -1.
func patchLoop(c *client, path string, br []bridge, fps []string, wantHits int64, deadline time.Time, t *tally) int {
	var body []byte
	last := -1
	for k := 0; k < len(br) && time.Now().Before(deadline); k++ {
		body = appendPatch(body[:0], br, k)
		t.attempted++
		start := time.Now()
		status, raw, err := c.do("PATCH", path, body)
		lat := time.Since(start)
		if err == nil && status == http.StatusOK {
			last = k
		}
		if err == nil {
			err = checkPatch(status, raw, k, fps[k], wantHits)
		}
		if err != nil {
			t.fail(err)
			continue
		}
		t.lat = append(t.lat, lat)
	}
	return last
}

// finalDeltaCheck compares a seeded release from the mutated session with
// one from a cold in-process open of the final graph.
func finalDeltaCheck(ctx context.Context, c *client, path string, m *mix, br []bridge, last int, seed uint64) error {
	g := m.g.Clone()
	if last >= 0 {
		if err := g.AddEdge(br[last].u, br[last].v); err != nil {
			return err
		}
	}
	sess, err := openReference(ctx, g)
	if err != nil {
		return err
	}
	p, err := newProbe(ctx, sess, queryFinal(seed))
	if err != nil {
		return err
	}
	return p.check(c, path)
}

// daemonMaxProcs reads the daemon's GOMAXPROCS from its build-info metric.
func daemonMaxProcs(c *client) (int, error) {
	status, raw, err := c.do("GET", "/metrics", nil)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("metrics: status %d", status)
	}
	_, rest, ok := strings.Cut(string(raw), `gomaxprocs="`)
	if v, _, ok2 := strings.Cut(rest, `"`); ok && ok2 {
		return strconv.Atoi(v)
	}
	return 0, fmt.Errorf("metrics carry no gomaxprocs label")
}
