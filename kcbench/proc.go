package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// child is one running kcore-serve process.
type child struct {
	cmd  *exec.Cmd
	addr string
	// out is closed once the process's standard output reaches EOF; only
	// then may cmd.Wait run (it closes the pipe).
	out chan struct{}
}

// bootTimeout bounds how long a kcore-serve boot (edge-list parse, index
// build, WAL recovery) may take before the run fails.
const bootTimeout = 90 * time.Second

// boot starts kcore-serve with args and waits for its "listening on" line.
// The returned duration runs from exec to that line: parse, engine build,
// the store's initial snapshot or recovery, and listener bind.
func boot(bin string, args []string) (*child, time.Duration, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	c := &child{cmd: cmd, out: make(chan struct{})}
	ready := make(chan string, 1)
	go func() {
		defer close(c.out)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if addr, ok := strings.CutPrefix(sc.Text(), "listening on "); ok {
				ready <- addr
			}
		}
		_, _ = io.Copy(io.Discard, stdout)
	}()
	select {
	case addr := <-ready:
		c.addr = addr
		return c, time.Since(start), nil
	case <-c.out:
		err := cmd.Wait()
		return nil, 0, fmt.Errorf("kcore-serve exited before listening: %v", err)
	case <-time.After(bootTimeout):
		c.kill()
		return nil, 0, fmt.Errorf("kcore-serve did not listen within %v", bootTimeout)
	}
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// stop sends SIGTERM and waits for a clean exit (kcore-serve drains its
// ingest queue and syncs its WAL first). A process that does not exit in
// time is killed and reported.
func (c *child) stop() error {
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal kcore-serve: %w", err)
	}
	select {
	case <-c.out:
	case <-time.After(30 * time.Second):
		c.kill()
		return errors.New("kcore-serve did not exit within 30s of SIGTERM")
	}
	if err := c.cmd.Wait(); err != nil {
		return fmt.Errorf("kcore-serve exit: %w", err)
	}
	return nil
}

// kill ends the process without a drain and reaps it; used on error paths.
func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	<-c.out
	_ = c.cmd.Wait()
}

// procStatusKB reads one "Name:   123 kB" field of /proc/<pid>/status.
func procStatusKB(pid int, field string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseFloat(f[0], 64)
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no %s", pid, field)
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat times
// (100 on every Linux architecture Go supports).
const clockTicks = 100

// procCPU reads a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line, 12 and 13 after the name.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// procWriteBytes reads write_bytes of /proc/<pid>/io: bytes the process
// caused to be sent to the storage layer.
func procWriteBytes(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "write_bytes:"); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, fmt.Errorf("/proc/%d/io has no write_bytes", pid)
}
