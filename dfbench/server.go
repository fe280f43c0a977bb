package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// dfserveProc is one running dfserve child.
type dfserveProc struct {
	cmd  *exec.Cmd
	base string // http://host:port
	// exited is closed once the child has been reaped; waitErr is its
	// exit status.
	exited  chan struct{}
	waitErr error
}

// startDfserve spawns bin with GOMAXPROCS pinned to procs, waits until it
// logs its listening address, and keeps draining its log into logPath.
func startDfserve(bin, logPath string, procs int, flags []string) (*dfserveProc, error) {
	args := append([]string{"-addr", "127.0.0.1:0"}, flags...)
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	// The child must not outlive a benchmark that dies without running
	// its deferred stop, for instance of SIGPIPE on a closed stdout.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("starting dfserve: %w", err)
	}
	p := &dfserveProc{cmd: cmd, exited: make(chan struct{})}
	addr := make(chan string, 1)
	copied := make(chan struct{})
	go func() {
		defer close(copied)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logFile, line)
			if i := strings.Index(line, "listening on "); i >= 0 {
				select {
				case addr <- line[i+len("listening on "):]:
				default:
				}
			}
		}
		// Keep draining if a line was too long for the scanner, so the
		// child never blocks on a full pipe.
		_, _ = io.Copy(logFile, stderr)
	}()
	go func() {
		<-copied // Wait closes the pipe; read it to EOF first
		p.waitErr = cmd.Wait()
		logFile.Close()
		close(p.exited)
	}()
	select {
	case a := <-addr:
		p.base = "http://" + a
		return p, nil
	case <-p.exited:
		return nil, fmt.Errorf("dfserve exited during start-up (%v); see %s", p.waitErr, logPath)
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, fmt.Errorf("dfserve did not report its address within 30s; see %s", logPath)
	}
}

// stop kills the child and waits until it has been reaped. The benchmark
// deletes the data directory afterwards, so a clean drain buys nothing.
func (p *dfserveProc) stop() {
	select {
	case <-p.exited:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGKILL) // the child may have exited on its own
	<-p.exited
}

// cpuSeconds returns the child's CPU time: the sum of its threads'
// on-CPU nanoseconds from /proc schedstat, which unlike the utime and
// stime ticks resolves a one-second window finely. Go does not retire
// its threads, so no thread's time drops out of the sum.
func (p *dfserveProc) cpuSeconds() (float64, error) {
	dir := filepath.Join("/proc", strconv.Itoa(p.cmd.Process.Pid), "task")
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var ns int64
	for _, t := range tasks {
		raw, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if errors.Is(err, fs.ErrNotExist) {
			continue // the thread exited after the listing
		}
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(raw))
		if len(f) == 0 {
			return 0, fmt.Errorf("malformed schedstat %q", raw)
		}
		v, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		ns += v
	}
	return float64(ns) / 1e9, nil
}

// peakRSSMB returns the child's VmHWM in MiB.
func (p *dfserveProc) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(p.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// hostCPU returns the host's stolen and total CPU time in USER_HZ ticks
// from the aggregate line of /proc/stat.
func hostCPU() (steal, total float64, err error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("malformed /proc/stat line %q", line)
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, 0, err
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// selfCPUSeconds returns this process's user+sys CPU time.
func selfCPUSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9, nil
}
