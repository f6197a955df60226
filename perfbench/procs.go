package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one spawned repository server process (slicer-cloud,
// slicer-chain or slicer-router) listening on loopback.
type server struct {
	name  string
	cmd   *exec.Cmd
	addr  string // wire protocol address
	admin string // admin HTTP address serving /metrics
	done  chan struct{}
	err   error // exit status, valid after done is closed
}

// startServer spawns bin with args plus a loopback listen and admin
// address chosen by the kernel, and returns once the process has printed
// both addresses. Its stderr goes to logPath.
func startServer(name, bin, logPath string, args ...string) (*server, error) {
	args = append([]string{"-listen", "127.0.0.1:0", "-admin", "127.0.0.1:0", "-log-level", "warn"}, args...)
	cmd := exec.Command(bin, args...)
	// A server must not outlive the load generator, even when it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd.Stderr = logf
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	s := &server{name: name, cmd: cmd, done: make(chan struct{})}
	ready := make(chan struct{})
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() && s.addr == "" {
			line := sc.Text()
			if i := strings.Index(line, "admin endpoint on http://"); i >= 0 && s.admin == "" {
				s.admin = strings.TrimSuffix(line[i+len("admin endpoint on http://"):], "/metrics")
			}
			if i := strings.Index(line, "serving on "); i >= 0 {
				if f := strings.Fields(line[i+len("serving on "):]); len(f) > 0 {
					s.addr = strings.TrimSuffix(f[0], ",")
					close(ready)
				}
			}
		}
		_, _ = io.Copy(io.Discard, stdout)
		s.err = cmd.Wait()
		close(s.done)
	}()
	select {
	case <-ready:
		// The admin line is printed before the serving line.
		if s.admin == "" {
			s.stop()
			return nil, fmt.Errorf("%s printed no admin address", name)
		}
		return s, nil
	case <-s.done:
		return nil, fmt.Errorf("%s exited during start-up: %v (log %s)", name, s.err, logPath)
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, fmt.Errorf("%s did not start within 60s", name)
	}
}

// stop asks the process to shut down and waits for it to exit, killing it
// if it takes longer than ten seconds.
func (s *server) stop() {
	if s == nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MiB.
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) < 2 {
				break
			}
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM in /proc status", s.name)
}

// scrape reads the server's Prometheus exposition into series → value.
// Exemplar suffixes are dropped.
func (s *server) scrape() (map[string]float64, error) {
	resp, err := http.Get("http://" + s.admin + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s /metrics: %s", s.name, resp.Status)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i]
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// family sums every series of a metric family whose name (labels
// excluded) is exactly name and whose labels contain each of want.
func family(m map[string]float64, name string, want ...string) float64 {
	var sum float64
	for k, v := range m {
		base, labels, _ := strings.Cut(k, "{")
		if base != name {
			continue
		}
		ok := true
		for _, w := range want {
			if !strings.Contains(labels, w) {
				ok = false
				break
			}
		}
		if ok {
			sum += v
		}
	}
	return sum
}

// cpuTicks is the machine-wide CPU time from /proc/stat: total and the part
// the hypervisor gave to other guests (steal).
type cpuTicks struct{ total, steal float64 }

// readCPUTicks reads the aggregate cpu line of /proc/stat; zero when it
// cannot be read.
func readCPUTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	// user nice system idle iowait irq softirq steal; the guest fields that
	// follow are already counted in user and nice.
	var t cpuTicks
	for i, s := range f[1:9] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return cpuTicks{}
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealPctSince is the share of CPU time stolen since t0, in percent: host
// interference, reported so that a slow run can be told from a slow
// program. -1 when /proc/stat was unreadable.
func (t cpuTicks) stealPctSince(t0 cpuTicks) float64 {
	if t.total <= t0.total || t0.total == 0 {
		return -1
	}
	return 100 * (t.steal - t0.steal) / (t.total - t0.total)
}
