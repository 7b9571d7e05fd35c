package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// child is one booted server child process.
type child struct {
	cmd   *exec.Cmd
	addr  string
	log   *os.File
	ready time.Duration // exec until the first /healthz 200
	done  chan error    // receives cmd.Wait's result once
}

// bootTimeout bounds how long a boot may take before the run fails.
const bootTimeout = 60 * time.Second

// startServer execs argv with "-addr <free port>" appended, output going
// to logPath, and returns once /healthz answers 200.
func startServer(argv []string, logPath string) (*child, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	log, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(argv[0], append(argv[1:], "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = log, log
	// Should this process die without stopping the server, the kernel
	// kills it too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("start %s: %w", argv[0], err)
	}
	s := &child{cmd: cmd, addr: addr, log: log, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	probe := &http.Client{Timeout: time.Second}
	for {
		resp, err := probe.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.ready = time.Since(start)
				return s, nil
			}
		}
		select {
		case err := <-s.done:
			s.closeLog()
			return nil, fmt.Errorf("%s exited before serving (%v); see %s", argv[0], err, logPath)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Since(start) > bootTimeout {
			s.kill()
			return nil, fmt.Errorf("%s not healthy after %v; see %s", argv[0], bootTimeout, logPath)
		}
	}
}

// freeAddr returns a loopback address with a port that was free a
// moment ago.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func (s *child) closeLog() { s.log.Close() }

// kill stops the process at once and waits for it to end.
func (s *child) kill() {
	s.cmd.Process.Kill()
	<-s.done
	s.closeLog()
}

// stop asks the process to shut down (SIGTERM) and waits for it to end,
// killing it if it has not within a minute.
func (s *child) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return err
	}
	select {
	case err := <-s.done:
		s.closeLog()
		return err
	case <-time.After(time.Minute):
		s.kill()
		return errors.New("server ignored SIGTERM for a minute; killed")
	}
}

// cpuSeconds is the process's user plus system CPU time from
// /proc/<pid>/stat, in seconds (Linux USER_HZ = 100).
func (s *child) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(data)
	rest = rest[strings.LastIndexByte(rest, ')')+2:]
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", data)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (ut + st) / 100, nil
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func (s *child) peakRSSMiB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
