package main

// This file runs the daemon under test as its own process and reads its
// resource use from /proc.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type daemon struct {
	cmd  *exec.Cmd
	addr string
	// drained is closed once the daemon's standard output reaches EOF.
	drained chan struct{}
}

// startDaemon launches `ccdp daemon -listen 127.0.0.1:0`, with every other
// flag at its default, and waits for its listening line: the handshake the
// daemon prints once it accepts connections.
func startDaemon(path string) (*daemon, error) {
	cmd := exec.Command(path, "daemon", "-listen", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	// The daemon must not outlive the benchmark, even one that crashes.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting the daemon: %w", err)
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if addr, ok := strings.CutPrefix(sc.Text(), "ccdp daemon listening on "); ok {
				select {
				case addrc <- addr:
				default:
				}
			}
		}
	}()
	select {
	case d.addr = <-addrc:
		return d, nil
	case <-d.drained:
		err := cmd.Wait()
		return nil, fmt.Errorf("daemon exited before its listening line: %v", err)
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		<-d.drained
		cmd.Wait()
		return nil, errors.New("daemon printed no listening line within 30s")
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop drains the daemon with SIGTERM, as an operator would, and waits for
// it to exit; one still running after 20s is killed.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signaling the daemon: %w", err)
	}
	done := make(chan error, 1)
	go func() {
		<-d.drained // Wait closes the pipe, so every read must finish first
		done <- d.cmd.Wait()
	}()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("daemon exit: %w", err)
		}
		return nil
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-done
		return errors.New("daemon did not drain within 20s of SIGTERM")
	}
}

// cpuTime is a process's user plus system CPU time. /proc/<pid>/stat
// counts it in clock ticks, which Linux reports at 100 per second.
func cpuTime(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name start at field 3 (state);
	// utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(raw, ')')
	f := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat: %w", pid, err)
	}
	return time.Duration(utime+stime) * 10 * time.Millisecond, nil
}

// peakRSS is a process's peak resident set (VmHWM) in MiB.
func peakRSS(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("malformed VmHWM line %q", line)
			}
			return float64(kb) / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
