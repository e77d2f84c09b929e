package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestRunFromStdin(t *testing.T) {
	in := strings.NewReader("n 6\n0 1\n2 3\n")
	var out bytes.Buffer
	err := run([]string{"-epsilon", "2", "-seed", "7"}, in, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"n=6 m=2", "mode: cc", "private estimate:"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunModes(t *testing.T) {
	for _, mode := range []string{"cc", "cc-known-n", "sf"} {
		in := strings.NewReader("0 1\n1 2\n")
		var out bytes.Buffer
		if err := run([]string{"-epsilon", "1", "-seed", "3", "-mode", mode}, in, &out); err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
	}
}

func TestRunVerboseDiagnostics(t *testing.T) {
	in := strings.NewReader("0 1\n0 2\n0 3\n")
	var out bytes.Buffer
	if err := run([]string{"-epsilon", "1", "-seed", "5", "-v"}, in, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "diagnostics") || !strings.Contains(out.String(), "f_1(G)") {
		t.Fatalf("verbose output incomplete:\n%s", out.String())
	}
}

func TestRunFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(path, []byte("n 4\n0 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-epsilon", "1", "-seed", "2", "-input", path}, strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "n=4 m=1") {
		t.Fatalf("file input not parsed:\n%s", out.String())
	}
}

// workersMask matches what -v output legitimately varies with -workers: the
// effective -workers=N flag line and the engine line's resolved pool size.
var workersMask = regexp.MustCompile(`-workers=\d+|\d+ workers,`)

// TestRunWorkersDeterminism checks the engine's contract at the CLI level:
// with a fixed seed the release and every diagnostic must be
// byte-identical for every -workers value, apart from the worker counts
// themselves.
func TestRunWorkersDeterminism(t *testing.T) {
	const input = "n 40\n0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n6 7\n7 8\n8 6\n10 11\n"
	var want string
	for _, workers := range []string{"1", "2", "8"} {
		var out bytes.Buffer
		args := []string{"-epsilon", "1", "-seed", "99", "-workers", workers, "-v"}
		if err := run(args, strings.NewReader(input), &out); err != nil {
			t.Fatalf("workers %s: %v", workers, err)
		}
		got := workersMask.ReplaceAllString(out.String(), "<workers>")
		if want == "" {
			want = got
		} else if got != want {
			t.Errorf("workers %s output diverged:\n%s\nwant:\n%s", workers, got, want)
		}
	}
}

// TestRunTimeout checks that an expired -timeout aborts the estimation
// with a context error instead of releasing anything.
func TestRunTimeout(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-epsilon", "1", "-seed", "4", "-timeout", "1ns"},
		strings.NewReader("0 1\n1 2\n2 0\n"), &out)
	if err == nil || !strings.Contains(err.Error(), "context deadline exceeded") {
		t.Fatalf("want deadline error, got %v (output %q)", err, out.String())
	}
	if strings.Contains(out.String(), "private estimate") {
		t.Fatalf("timed-out run must not print an estimate:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{},                                  // missing epsilon
		{"-epsilon", "-1"},                  // bad epsilon
		{"-epsilon", "1", "-mode", "bogus"}, // bad mode
		{"-epsilon", "1", "-input", "/nonexistent/file"},
	}
	for _, args := range cases {
		if err := run(args, strings.NewReader("0 1\n"), &bytes.Buffer{}); err == nil {
			t.Errorf("args %v should fail", args)
		}
	}
	// Malformed graph.
	if err := run([]string{"-epsilon", "1"}, strings.NewReader("0 0\n"), &bytes.Buffer{}); err == nil {
		t.Error("self-loop input should fail")
	}
}

func TestRunWorkersNegativeIsUsageError(t *testing.T) {
	for _, args := range [][]string{
		{"-epsilon", "1", "-workers", "-2"},
		{"serve", "-budget", "1", "-queries", "whatever.txt", "-workers", "-2"},
	} {
		err := run(args, strings.NewReader("0 1\n"), &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), "-workers must be ≥ 0") {
			t.Errorf("args %v: err = %v, want -workers usage error", args, err)
		}
	}
}

// TestRunSepWorkersNegativeIsUsageError: -sep-workers is gone (-workers
// sizes separation too), so any value of it, negative or not, fails flag
// parsing in one-shot and serve mode.
func TestRunSepWorkersNegativeIsUsageError(t *testing.T) {
	for _, args := range [][]string{
		{"-epsilon", "1", "-sep-workers", "-3"},
		{"-epsilon", "1", "-sep-workers", "1"},
		{"serve", "-budget", "1", "-queries", "whatever.txt", "-sep-workers", "-3"},
		{"serve", "-budget", "1", "-queries", "whatever.txt", "-sep-workers", "1"},
	} {
		err := run(args, strings.NewReader("0 1\n"), io.Discard)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -sep-workers") {
			t.Errorf("args %v: err = %v, want an unknown-flag usage error", args, err)
		}
	}
}

// TestRunSepWorkersAndWarmStartDeterminism: for a fixed seed, the
// warm-started engine's -v output — release, grid values, engine and
// solver work counters — is identical across -workers settings, which
// also size the separation oracle's pool.
func TestRunSepWorkersAndWarmStartDeterminism(t *testing.T) {
	const input = "n 40\n0 1\n1 2\n2 0\n0 3\n3 4\n4 0\n1 5\n5 6\n6 1\n10 11\n"
	var want string
	for _, workers := range []string{"1", "4", "8"} {
		args := []string{"-epsilon", "1", "-seed", "99", "-workers", workers, "-v"}
		var out bytes.Buffer
		if err := run(args, strings.NewReader(input), &out); err != nil {
			t.Fatalf("args %v: %v", args, err)
		}
		got := workersMask.ReplaceAllString(out.String(), "<workers>")
		if !strings.Contains(got, "  solver: ") {
			t.Fatalf("args %v: no solver line in -v output:\n%s", args, got)
		}
		if want == "" {
			want = got
		} else if got != want {
			t.Errorf("args %v output diverged:\n%s\nwant:\n%s", args, got, want)
		}
	}
}

// TestRunVerboseOutputRepeats: -v output carries no wall-clock figure, so
// two runs with the same flags print the same bytes.
func TestRunVerboseOutputRepeats(t *testing.T) {
	const input = "n 40\n0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n6 7\n7 8\n8 6\n10 11\n"
	var outs [2]bytes.Buffer
	for i := range outs {
		args := []string{"-epsilon", "1", "-seed", "99", "-workers", "2", "-v"}
		if err := run(args, strings.NewReader(input), &outs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := outs[0].String(), outs[1].String(); a != b {
		t.Errorf("-v output differs between identical runs:\n%s\nthen:\n%s", a, b)
	}
}

func writeQueryFile(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "queries.txt")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestServeSubcommand(t *testing.T) {
	queries := writeQueryFile(t, `
# three affordable queries, then one that cannot fit
cc 0.5 7
sf 0.25 8
cc-known-n 0.25 9
cc 4 10
`)
	var out bytes.Buffer
	err := run([]string{"serve", "-budget", "1", "-queries", queries, "-seed", "3"},
		strings.NewReader("n 9\n0 1\n1 2\n3 4\n5 6\n"), &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"session: n=9 m=4 fingerprint=",
		"budget ε=1",
		"q1 cc         ε=0.5",
		"q2 sf         ε=0.25",
		"q3 cc-known-n ε=0.25",
		"q4 cc         ε=4      REJECTED: budget exhausted",
		"3/4 queries admitted, spent ε=1 of 1 (remaining 0), plans built 1",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("serve output missing %q:\n%s", want, got)
		}
	}
}

// TestServeMatchesOneShot checks the serving determinism contract at the
// CLI level: a seeded serve query prints the same estimate as the one-shot
// invocation with that seed.
func TestServeMatchesOneShot(t *testing.T) {
	const input = "n 6\n0 1\n2 3\n"
	var oneShot bytes.Buffer
	if err := run([]string{"-epsilon", "0.5", "-seed", "7"}, strings.NewReader(input), &oneShot); err != nil {
		t.Fatal(err)
	}
	_, estimate, ok := strings.Cut(oneShot.String(), "private estimate: ")
	if !ok {
		t.Fatalf("unexpected one-shot output: %q", oneShot.String())
	}
	estimate = strings.TrimSpace(estimate)

	queries := writeQueryFile(t, "cc 0.5 7\n")
	var served bytes.Buffer
	if err := run([]string{"serve", "-budget", "1", "-queries", queries},
		strings.NewReader(input), &served); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(served.String(), "estimate "+estimate) {
		t.Fatalf("serve estimate differs from one-shot %s:\n%s", estimate, served.String())
	}
}

func TestServeErrors(t *testing.T) {
	good := writeQueryFile(t, "cc 0.5\n")
	cases := [][]string{
		{"serve"},                 // missing budget
		{"serve", "-budget", "1"}, // missing queries
		{"serve", "-budget", "0", "-queries", good},
		{"serve", "-budget", "1", "-queries", "/nonexistent/queries"},
	}
	for _, args := range cases {
		if err := run(args, strings.NewReader("0 1\n"), &bytes.Buffer{}); err == nil {
			t.Errorf("args %v should fail", args)
		}
	}
	for name, content := range map[string]string{
		"bad-mode":    "bogus 0.5\n",
		"bad-epsilon": "cc nope\n",
		"bad-seed":    "cc 0.5 nope\n",
		"no-epsilon":  "cc\n",
		"extra":       "cc 0.5 1 2\n",
		"empty":       "# nothing\n",
	} {
		bad := writeQueryFile(t, content)
		err := run([]string{"serve", "-budget", "1", "-queries", bad},
			strings.NewReader("0 1\n"), &bytes.Buffer{})
		if err == nil {
			t.Errorf("%s query file should fail", name)
		}
	}
}

// TestServeTimeout: an already-expired deadline aborts the plan build, so
// nothing is released and no budget is spent.
func TestServeTimeout(t *testing.T) {
	queries := writeQueryFile(t, "cc 0.5\n")
	var out bytes.Buffer
	err := run([]string{"serve", "-budget", "1", "-queries", queries, "-timeout", "1ns"},
		strings.NewReader("0 1\n1 2\n"), &out)
	if err == nil || !strings.Contains(err.Error(), "context deadline exceeded") {
		t.Fatalf("want deadline error, got %v (output %q)", err, out.String())
	}
}

// TestReadQueryFileTable is the line-validation table: every malformed or
// duplicate-field line must fail with a line-numbered error (the CLI turns
// that into a nonzero exit), and valid syntax must parse exactly.
func TestReadQueryFileTable(t *testing.T) {
	cases := []struct {
		name    string
		content string
		wantErr string // substring of the error; empty = must succeed
		wantN   int
	}{
		{"valid-mixed", "cc 0.5 7\nsf 0.25\ncc-known-n 1 seed=9\n", "", 3},
		{"valid-comments", "# header\n\ncc 0.5 # trailing\n", "", 1},
		{"unknown-mode", "bogus 0.5\n", ":1: unknown mode \"bogus\"", 0},
		{"missing-epsilon", "cc\n", ":1: missing epsilon", 0},
		{"bad-epsilon", "cc nope\n", ":1: bad epsilon", 0},
		{"zero-epsilon", "cc 0\n", ":1: epsilon 0 must be positive", 0},
		{"negative-epsilon", "cc -0.5\n", ":1: epsilon -0.5 must be positive", 0},
		{"inf-epsilon", "cc +Inf\n", ":1: epsilon +Inf must be positive and finite", 0},
		{"nan-epsilon", "cc NaN\n", ":1: epsilon NaN must be positive", 0},
		{"bad-seed", "cc 0.5 nope\n", ":1: bad seed", 0},
		{"zero-seed", "cc 0.5 0\n", ":1: seed must be nonzero", 0},
		{"zero-seed-kv", "cc 0.5 seed=0\n", ":1: seed must be nonzero", 0},
		{"duplicate-seed", "cc 0.5 7 8\n", ":1: duplicate seed field", 0},
		{"duplicate-seed-kv", "cc 0.5 seed=7 seed=8\n", ":1: duplicate seed field", 0},
		{"duplicate-mixed", "cc 0.5 7 seed=8\n", ":1: duplicate seed field", 0},
		{"unknown-field", "cc 0.5 mode=cc\n", ":1: unknown field \"mode=cc\"", 0},
		{"error-line-number", "cc 0.5 1\nsf 0.2\ncc zero\n", ":3: bad epsilon", 0},
		{"empty", "# nothing here\n", "no queries", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := writeQueryFile(t, tc.content)
			reqs, err := readQueryFile(path)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if len(reqs) != tc.wantN {
					t.Fatalf("parsed %d queries, want %d", len(reqs), tc.wantN)
				}
				return
			}
			if err == nil {
				t.Fatalf("want error containing %q, got %d queries", tc.wantErr, len(reqs))
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestReadQueryFileSeedForms: both seed spellings parse to the same query.
func TestReadQueryFileSeedForms(t *testing.T) {
	bare, err := readQueryFile(writeQueryFile(t, "cc 0.5 7\n"))
	if err != nil {
		t.Fatal(err)
	}
	kv, err := readQueryFile(writeQueryFile(t, "cc 0.5 seed=7\n"))
	if err != nil {
		t.Fatal(err)
	}
	if bare[0] != kv[0] {
		t.Fatalf("seed forms parse differently: %+v vs %+v", bare[0], kv[0])
	}
}

// TestServeAccountantFlag: the advanced accountant admits more small
// queries than sequential at the same -budget, and bad selections are
// usage errors.
func TestServeAccountantFlag(t *testing.T) {
	var lines strings.Builder
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&lines, "cc 0.02 %d\n", i+1)
	}
	queries := writeQueryFile(t, lines.String())
	const input = "n 6\n0 1\n2 3\n"

	admitted := func(extra ...string) int {
		args := append([]string{"serve", "-budget", "1", "-queries", queries}, extra...)
		var out bytes.Buffer
		if err := run(args, strings.NewReader(input), &out); err != nil {
			t.Fatalf("args %v: %v", args, err)
		}
		_, summary, ok := strings.Cut(out.String(), "session: ")
		_, summary, ok2 := strings.Cut(summary, "session: ")
		if !ok || !ok2 {
			t.Fatalf("no summary in output:\n%s", out.String())
		}
		var adm, total int
		if _, err := fmt.Sscanf(summary, "%d/%d", &adm, &total); err != nil {
			t.Fatalf("unparseable summary %q: %v", summary, err)
		}
		return adm
	}
	seq := admitted()
	adv := admitted("-accountant", "advanced", "-acct-delta", "1e-9")
	if adv <= seq {
		t.Fatalf("advanced admitted %d, sequential %d; want strictly more", adv, seq)
	}

	for _, args := range [][]string{
		{"serve", "-budget", "1", "-queries", queries, "-accountant", "renyi"},
		{"serve", "-budget", "1", "-queries", queries, "-accountant", "advanced"},                     // missing delta
		{"serve", "-budget", "1", "-queries", queries, "-acct-delta", "0.1"},                          // delta without advanced
		{"serve", "-budget", "1", "-queries", queries, "-accountant", "advanced", "-acct-delta", "2"}, // delta out of range
	} {
		if err := run(args, strings.NewReader(input), &bytes.Buffer{}); err == nil {
			t.Errorf("args %v should fail", args)
		}
	}
}

// TestDaemonLifecycle drives the daemon end to end in process: boot on a
// free port, upload a graph, run a seeded query (bit-identical to the
// one-shot CLI path by the serving contract), check /healthz and /metrics,
// then SIGTERM and assert a clean drain.
func TestDaemonLifecycle(t *testing.T) {
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"daemon", "-listen", "127.0.0.1:0", "-max-inflight", "8"}, strings.NewReader(""), pw)
	}()

	// Boot output: the config summary, then the line carrying the bound
	// address.
	sc := bufio.NewScanner(pr)
	var addr string
	for sc.Scan() {
		if a, ok := strings.CutPrefix(sc.Text(), "ccdp daemon listening on "); ok {
			addr = a
			break
		}
	}
	if addr == "" {
		t.Fatalf("daemon never printed the listening line; exit: %v", <-done)
	}
	go func() { // drain remaining output so the daemon never blocks on the pipe
		for sc.Scan() {
		}
	}()
	base := "http://" + addr

	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw)
	}

	code, body := post("/v1/graphs", `{"n":6,"edges":[[0,1],[2,3]],"budget":2}`)
	if code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	var created struct {
		SessionID string `json:"session_id"`
	}
	if err := json.Unmarshal([]byte(body), &created); err != nil {
		t.Fatal(err)
	}

	code, body = post("/v1/sessions/"+created.SessionID+"/query", `{"op":"cc","epsilon":0.5,"seed":7}`)
	if code != http.StatusOK || !strings.Contains(body, `"value"`) {
		t.Fatalf("query: %d %s", code, body)
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %d", resp.StatusCode)
	}
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(raw), "nodedp_queries_served_total 1") {
		t.Fatalf("/metrics missing served counter:\n%s", raw)
	}

	// Graceful drain on SIGTERM.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain within 10s of SIGTERM")
	}
}

// TestDaemonFlagValidation: nonsensical daemon limits are usage errors.
func TestDaemonFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"daemon", "-max-inflight", "0"},
		{"daemon", "-read-limit", "-1"},
		{"daemon", "-max-sessions", "0"},
		{"daemon", "-max-per-tenant", "-2"},
	} {
		if err := run(args, strings.NewReader(""), &bytes.Buffer{}); err == nil {
			t.Errorf("args %v should fail", args)
		}
	}
}

// TestPrintConfigSummarySorted: the summary must come out in sorted flag
// order however the flags were declared — startup logs are diffed across
// runs and deployments.
func TestPrintConfigSummarySorted(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	fs.String("zeta", "z", "")
	fs.Int("alpha", 3, "")
	fs.Bool("mike", true, "")
	fs.Duration("echo", time.Minute, "")
	var out bytes.Buffer
	printConfigSummary(&out, "", fs)
	want := "-alpha=3\n-echo=1m0s\n-mike=true\n-zeta=z\n"
	if out.String() != want {
		t.Fatalf("config summary not sorted:\n got %q\nwant %q", out.String(), want)
	}
}

// TestRunVerboseConfigSummary: ccdp -v prints the effective flags, sorted.
func TestRunVerboseConfigSummary(t *testing.T) {
	in := strings.NewReader("0 1\n0 2\n")
	var out bytes.Buffer
	if err := run([]string{"-epsilon", "1", "-seed", "5", "-v"}, in, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "[config — effective flags]") {
		t.Fatalf("verbose output missing config block:\n%s", got)
	}
	var flagLines []string
	inBlock := false
	for _, line := range strings.Split(got, "\n") {
		switch {
		case line == "[config — effective flags]":
			inBlock = true
		case inBlock && strings.HasPrefix(line, "  -"):
			flagLines = append(flagLines, line)
		case inBlock:
			inBlock = false
		}
	}
	if len(flagLines) < 5 {
		t.Fatalf("config block too short (%d lines):\n%s", len(flagLines), got)
	}
	if !sort.StringsAreSorted(flagLines) {
		t.Fatalf("config block not sorted:\n%s", strings.Join(flagLines, "\n"))
	}
	for _, want := range []string{"  -epsilon=1", "  -seed=5", "  -v=true"} {
		if !slices.Contains(flagLines, want) {
			t.Fatalf("config block missing %q:\n%s", want, strings.Join(flagLines, "\n"))
		}
	}
}

// TestDaemonBootConfigSummary: the daemon logs its effective configuration
// in sorted flag order before the listening line.
func TestDaemonBootConfigSummary(t *testing.T) {
	d := startDaemon(t, "-max-inflight", "7")
	defer d.stop(t)
	if !strings.Contains(d.bootLog, "ccdp daemon config:") {
		t.Fatalf("boot log missing config header:\n%s", d.bootLog)
	}
	var flagLines []string
	for _, line := range strings.Split(d.bootLog, "\n") {
		if strings.HasPrefix(line, "  -") {
			flagLines = append(flagLines, line)
		}
	}
	if !sort.StringsAreSorted(flagLines) {
		t.Fatalf("daemon config block not sorted:\n%s", strings.Join(flagLines, "\n"))
	}
	for _, want := range []string{"  -max-inflight=7", "  -listen=127.0.0.1:0"} {
		if !slices.Contains(flagLines, want) {
			t.Fatalf("daemon config block missing %q:\n%s", want, d.bootLog)
		}
	}
}
