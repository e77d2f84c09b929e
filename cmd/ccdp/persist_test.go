package main

// Tests for the daemon's -cache-file lifecycle: flag validation and boot
// error paths (the table test of the ISSUE), plus the full warm-restart
// round trip — boot, upload, seeded query, SIGTERM drain, reboot on the
// same snapshot, and a bit-identical plan-cache-hit replay.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestDaemonCacheFileFlagValidation: nonsensical persistence flags and an
// unwritable snapshot path are boot-time errors, not SIGTERM-time
// surprises. A non-positive -cache-weight is a usage error with or without
// -cache-file.
func TestDaemonCacheFileFlagValidation(t *testing.T) {
	dir := t.TempDir()
	type flagCase struct {
		name string
		args []string
		want string
	}
	cases := []flagCase{
		{
			name: "negative save interval",
			args: []string{"daemon", "-cache-file", filepath.Join(dir, "c.snap"), "-cache-save-interval", "-5s"},
			want: "-cache-save-interval must be ≥ 0",
		},
		{
			name: "save interval without cache file",
			args: []string{"daemon", "-cache-save-interval", "1m"},
			want: "-cache-save-interval requires -cache-file",
		},
		{
			name: "unwritable cache path (missing directory)",
			args: []string{"daemon", "-listen", "127.0.0.1:0", "-cache-file", filepath.Join(dir, "no-such-dir", "c.snap")},
			want: "not writable",
		},
	}
	for _, w := range []string{"0", "-1"} {
		cases = append(cases,
			flagCase{
				name: "cache weight " + w,
				args: []string{"daemon", "-listen", "127.0.0.1:0", "-cache-weight", w},
				want: "-cache-weight must be positive",
			},
			flagCase{
				name: "cache weight " + w + " with cache file",
				args: []string{"daemon", "-listen", "127.0.0.1:0", "-cache-weight", w, "-cache-file", filepath.Join(dir, "w.snap")},
				want: "-cache-weight must be positive",
			})
	}
	for _, tc := range cases {
		err := run(tc.args, strings.NewReader(""), &bytes.Buffer{})
		if err == nil {
			t.Errorf("%s: args %v should fail", tc.name, tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestDaemonCorruptSnapshotBootsCold: a damaged snapshot file must not
// prevent boot — the daemon logs a warning, serves with a cold cache, and
// overwrites the damage with a healthy snapshot on drain.
func TestDaemonCorruptSnapshotBootsCold(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "plans.snap")
	if err := os.WriteFile(snap, []byte("definitely not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	d := startDaemon(t, "-cache-file", snap)
	if !strings.Contains(d.bootLog, "WARNING") || !strings.Contains(d.bootLog, "cold cache") {
		t.Fatalf("boot log does not warn about the corrupt snapshot:\n%s", d.bootLog)
	}

	// The daemon serves normally despite the damaged file.
	created := d.createSession(t, `{"n":6,"edges":[[0,1],[2,3]],"budget":2}`)
	d.query(t, created, `{"op":"cc","epsilon":0.5,"seed":7}`)

	d.stop(t)
	// Drain replaced the damage with a loadable snapshot.
	raw, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, []byte("NDPSNAP\x00")) {
		t.Fatalf("drain did not rewrite the corrupt snapshot (starts %q)", raw[:min(16, len(raw))])
	}
}

// TestDaemonWarmRestart is the restart-smoke contract end to end in
// process: a seeded query before SIGTERM and the same query after a reboot
// on the same -cache-file must be bit-identical, and the post-restart
// upload must be a plan-cache hit (no replanning).
func TestDaemonWarmRestart(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "plans.snap")
	const graphBody = `{"n":8,"edges":[[0,1],[1,2],[3,4],[5,6],[6,7],[5,7]],"budget":4}`
	const queryBody = `{"op":"cc","epsilon":0.5,"seed":77}`

	d1 := startDaemon(t, "-cache-file", snap)
	created1 := d1.createSession(t, graphBody)
	if created1.CacheHit {
		t.Fatal("first upload reported a cache hit")
	}
	before := d1.query(t, created1, queryBody)
	d1.stop(t)
	if !strings.Contains(d1.log(), "saved 1 cached plans") {
		t.Fatalf("drain did not report the snapshot save:\n%s", d1.log())
	}

	d2 := startDaemon(t, "-cache-file", snap)
	if !strings.Contains(d2.bootLog, "loaded 1 cached plans") {
		t.Fatalf("restart did not report the snapshot load:\n%s", d2.bootLog)
	}
	created2 := d2.createSession(t, graphBody)
	if !created2.CacheHit {
		t.Fatal("post-restart upload was not a plan-cache hit")
	}
	after := d2.query(t, created2, queryBody)
	d2.stop(t)

	if math.Float64bits(before.Value) != math.Float64bits(after.Value) ||
		math.Float64bits(before.DeltaHat) != math.Float64bits(after.DeltaHat) ||
		math.Float64bits(before.NHat) != math.Float64bits(after.NHat) {
		t.Fatalf("seeded release differs across restart:\nbefore %+v\nafter  %+v", before, after)
	}
}

// daemonHandle drives one in-process `ccdp daemon` for the lifecycle tests.
type daemonHandle struct {
	base    string
	bootLog string
	done    chan error
	lines   chan string
	logged  []string
}

// startDaemon boots the daemon on a free port with the extra args and waits
// for the listening line, collecting boot output (warnings precede it).
func startDaemon(t *testing.T, extra ...string) *daemonHandle {
	t.Helper()
	pr, pw := io.Pipe()
	d := &daemonHandle{done: make(chan error, 1), lines: make(chan string, 64)}
	args := append([]string{"daemon", "-listen", "127.0.0.1:0"}, extra...)
	go func() {
		d.done <- run(args, strings.NewReader(""), pw)
		pw.Close()
	}()
	go func() {
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			d.lines <- sc.Text()
		}
		close(d.lines)
	}()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case line, ok := <-d.lines:
			if !ok {
				t.Fatalf("daemon exited before listening: %v\nboot log:\n%s", <-d.done, d.bootLog)
			}
			d.logged = append(d.logged, line)
			if addr, found := strings.CutPrefix(line, "ccdp daemon listening on "); found {
				d.base = "http://" + addr
				d.bootLog = strings.Join(d.logged, "\n")
				return d
			}
			d.bootLog = strings.Join(d.logged, "\n")
		case err := <-d.done:
			t.Fatalf("daemon exited before listening: %v\nboot log:\n%s", err, d.bootLog)
		case <-deadline:
			t.Fatalf("daemon did not start listening\nboot log:\n%s", d.bootLog)
		}
	}
}

// stop SIGTERMs the daemon and waits for a clean drain, draining the log.
func (d *daemonHandle) stop(t *testing.T) {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(15 * time.Second)
	for {
		select {
		case line, ok := <-d.lines:
			if ok {
				d.logged = append(d.logged, line)
			} else {
				d.lines = nil
			}
		case err := <-d.done:
			if err != nil {
				t.Fatalf("daemon exit: %v\nlog:\n%s", err, d.log())
			}
			// Drain any remaining buffered lines.
			if d.lines != nil {
				for line := range d.lines {
					d.logged = append(d.logged, line)
				}
			}
			return
		case <-deadline:
			t.Fatalf("daemon did not drain after SIGTERM\nlog:\n%s", d.log())
		}
	}
}

func (d *daemonHandle) log() string { return strings.Join(d.logged, "\n") }

type createdSession struct {
	SessionID string `json:"session_id"`
	CacheHit  bool   `json:"cache_hit"`
}

type queryResult struct {
	Value    float64 `json:"value"`
	DeltaHat float64 `json:"delta_hat"`
	NHat     float64 `json:"n_hat"`
}

func (d *daemonHandle) post(t *testing.T, path, body string, out any) {
	t.Helper()
	resp, err := http.Post(d.base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode >= 300 {
		t.Fatalf("POST %s: %d %s", path, resp.StatusCode, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("POST %s: decoding %s: %v", path, raw, err)
		}
	}
}

func (d *daemonHandle) createSession(t *testing.T, body string) createdSession {
	t.Helper()
	var out createdSession
	d.post(t, "/v1/graphs", body, &out)
	if out.SessionID == "" {
		t.Fatal("create session returned no id")
	}
	return out
}

func (d *daemonHandle) query(t *testing.T, sess createdSession, body string) queryResult {
	t.Helper()
	var out queryResult
	d.post(t, "/v1/sessions/"+sess.SessionID+"/query", body, &out)
	return out
}
