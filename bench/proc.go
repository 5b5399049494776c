package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// hygiene owns every child process and temp directory of a run, so that any
// exit path — a failed check, a timeout, a signal — leaves neither behind.
type hygiene struct {
	mu       sync.Mutex
	children map[*child]struct{}
	dirs     map[string]struct{}
}

func newHygiene() *hygiene {
	return &hygiene{children: make(map[*child]struct{}), dirs: make(map[string]struct{})}
}

// tempDir makes a store directory under parent that cleanup removes.
func (h *hygiene) tempDir(parent, pattern string) (string, error) {
	dir, err := os.MkdirTemp(parent, pattern)
	if err != nil {
		return "", err
	}
	h.mu.Lock()
	h.dirs[dir] = struct{}{}
	h.mu.Unlock()
	return dir, nil
}

func (h *hygiene) removeDir(dir string) {
	h.mu.Lock()
	delete(h.dirs, dir)
	h.mu.Unlock()
	os.RemoveAll(dir)
}

// cleanup kills what still runs and removes what still exists.
func (h *hygiene) cleanup() {
	h.mu.Lock()
	children := make([]*child, 0, len(h.children))
	for c := range h.children {
		children = append(children, c)
	}
	dirs := make([]string, 0, len(h.dirs))
	for d := range h.dirs {
		dirs = append(dirs, d)
	}
	h.mu.Unlock()
	for _, c := range children {
		c.kill()
	}
	for _, d := range dirs {
		h.removeDir(d)
	}
}

// tailBuffer keeps the last bytes a child wrote, to attach to a failure.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

const tailBytes = 4 << 10

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > tailBytes {
		t.buf = t.buf[len(t.buf)-tailBytes:]
	}
	t.mu.Unlock()
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// child is one process of the system under test.
type child struct {
	name    string
	cmd     *exec.Cmd
	out     tailBuffer
	readyAt time.Time
	exited  chan struct{}
	waitErr error
	h       *hygiene
}

// startChild execs bin with the default GOMAXPROCS; the child dies with the
// benchmark even when the benchmark is killed outright.
func (h *hygiene) startChild(bin string, args ...string) (*child, error) {
	c := &child{name: filepath.Base(bin), exited: make(chan struct{}), h: h}
	c.cmd = exec.Command(bin, args...)
	c.cmd.Stdout = &c.out
	c.cmd.Stderr = &c.out
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", c.name, err)
	}
	h.mu.Lock()
	h.children[c] = struct{}{}
	h.mu.Unlock()
	go func() {
		c.waitErr = c.cmd.Wait()
		close(c.exited)
	}()
	return c, nil
}

func (c *child) fail(format string, args ...any) error {
	return fmt.Errorf("%s: %s\n--- %s output ---\n%s", c.name, fmt.Sprintf(format, args...), c.name, c.out.String())
}

func (c *child) forget() {
	c.h.mu.Lock()
	delete(c.h.children, c)
	c.h.mu.Unlock()
}

func (c *child) kill() {
	c.cmd.Process.Kill()
	<-c.exited
	c.forget()
}

const (
	stopTimeout = 20 * time.Second
	// The binaries answer their first request a few goroutine starts before
	// they install their SIGTERM handler; a SIGTERM in between kills them
	// outright. No stop is sent sooner than this after the first answer.
	signalGrace = 100 * time.Millisecond
)

// stop asks for a clean shutdown (SIGTERM: drain, final fsync, close) and
// fails the run when the child does not comply or exits non-zero.
func (c *child) stop() error {
	time.Sleep(time.Until(c.readyAt.Add(signalGrace)))
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		c.kill()
		return c.fail("SIGTERM: %v", err)
	}
	select {
	case <-c.exited:
	case <-time.After(stopTimeout):
		c.kill()
		return c.fail("still running %s after SIGTERM", stopTimeout)
	}
	c.forget()
	if c.waitErr != nil {
		return c.fail("exit: %v", c.waitErr)
	}
	return nil
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; Linux
// fixes it at 100 on every architecture Go supports.
const clockTick = 100

func procUsage(pid int) (cpu time.Duration, peakRSSMB float64, err error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// The command name may hold spaces; fields are counted after its ")".
	i := bytes.LastIndexByte(stat, ')')
	fields := strings.Fields(string(stat[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
	}
	cpu = time.Duration(utime+stime) * time.Second / clockTick

	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, 0, fmt.Errorf("/proc/%d/status: VmHWM: %w", pid, err)
			}
			return cpu, kb / 1024, nil
		}
	}
	return 0, 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

func (c *child) usage() (time.Duration, float64, error) { return procUsage(c.cmd.Process.Pid) }

// exitUsage is the child's whole-life CPU and peak RSS from its rusage,
// finer than the /proc tick; valid after stop.
func (c *child) exitUsage() (time.Duration, float64) {
	ps := c.cmd.ProcessState
	ru := ps.SysUsage().(*syscall.Rusage)
	return ps.UserTime() + ps.SystemTime(), float64(ru.Maxrss) / 1024
}

// freePort asks the kernel for an unused loopback port of network "tcp" or
// "udp". The port is released before the child binds it; nothing else on a
// benchmark host competes for it in between.
func freePort(network string) (string, error) {
	if network == "udp" {
		c, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		defer func() { _ = c.Close() }()
		return c.LocalAddr().String(), nil
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer func() { _ = l.Close() }()
	return l.Addr().String(), nil
}

const readyTimeout = 60 * time.Second

// awaitReady polls probe until it reports true, and fails with the child's
// output when the child exits first or the timeout passes.
func (c *child) awaitReady(probe func() bool) error {
	deadline := time.Now().Add(readyTimeout)
	for !probe() {
		select {
		case <-c.exited:
			c.forget()
			return c.fail("exited before ready: %v", c.waitErr)
		default:
		}
		if time.Now().After(deadline) {
			c.kill()
			return c.fail("not ready after %s", readyTimeout)
		}
		time.Sleep(time.Millisecond)
	}
	c.readyAt = time.Now()
	return nil
}

const analyzeTimeout = 120 * time.Second

// analyzeRun is one siren-analyze -json execution.
type analyzeRun struct {
	out   []byte
	wall  time.Duration
	cpu   time.Duration
	rssMB float64
}

func runAnalyze(bin, store string) (analyzeRun, error) {
	ctx, cancel := context.WithTimeout(context.Background(), analyzeTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, "-json", "-db", store)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return analyzeRun{}, fmt.Errorf("siren-analyze: %v\n--- siren-analyze stderr ---\n%s", err, stderr.String())
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return analyzeRun{
		out:   stdout.Bytes(),
		wall:  wall,
		cpu:   cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime(),
		rssMB: float64(ru.Maxrss) / 1024,
	}, nil
}

// selfUsage is the benchmark's own CPU and peak RSS: what the traced,
// in-process assembly reports in place of a child's figures.
func selfUsage() (time.Duration, float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, fmt.Errorf("getrusage: %w", err)
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu, float64(ru.Maxrss) / 1024, nil
}
