package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/httpapi"
)

// layout is where the benchmark finds the repository and keeps what it
// writes; everything is inside the checkout.
type layout struct {
	root  string // repository root (the directory holding the repro go.mod)
	build string // root/.bench_build: binaries, data directories
	out   string // benchmark/out: trace files
}

// findLayout walks up from the working directory to the repository root, so
// the benchmark runs the same from the root and from benchmark/.
func findLayout() (layout, error) {
	dir, err := os.Getwd()
	if err != nil {
		return layout{}, err
	}
	for {
		mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(mod, []byte("module repro\n")) {
			return layout{
				root:  dir,
				build: filepath.Join(dir, ".bench_build"),
				out:   filepath.Join(dir, "benchmark", "out"),
			}, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return layout{}, errors.New("no repro go.mod above the working directory: run from a checkout of the repository")
		}
		dir = parent
	}
}

// buildKwsd compiles cmd/kwsd from the checkout's source. It is outside
// every timing: setup_s starts at exec of the finished binary.
func (l layout) buildKwsd() (string, error) {
	bin := filepath.Join(l.build, "bin", "kwsd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/kwsd")
	cmd.Dir = l.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/kwsd: %v\n%s", err, out)
	}
	return bin, nil
}

// server is one running kwsd subprocess.
type server struct {
	cmd     *exec.Cmd
	addr    string
	stderr  *bytes.Buffer
	started time.Time
	bootMS  float64
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer lis.Close()
	return lis.Addr().String(), nil
}

// boot execs kwsd and polls /v1/healthz every millisecond, without back-off,
// until the first 200. dataDir is empty for a memory-only server.
func boot(bin string, s spec, dataDir string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", addr}, s.kwsdArgs()...)
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir)
	}
	srv := &server{cmd: exec.Command(bin, args...), addr: addr, stderr: new(bytes.Buffer)}
	srv.cmd.Stderr = srv.stderr
	// If the benchmark dies without its deferred kill, kwsd must not outlive it.
	srv.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	srv.started = time.Now()
	if err := srv.cmd.Start(); err != nil {
		return nil, err
	}
	deadline := srv.started.Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if c, err := dial(addr); err == nil {
			_, err = c.health()
			c.close()
			if err == nil {
				srv.bootMS = float64(time.Since(srv.started)) / float64(time.Millisecond)
				return srv, nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	srv.kill()
	return nil, fmt.Errorf("kwsd did not answer /v1/healthz within 30 s:\n%s", srv.stderr)
}

// kill stops kwsd with SIGKILL and waits for it to be gone. No round needs
// a graceful shutdown, and the recovery check needs exactly this.
func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	_ = s.cmd.Wait() // the exit status of a killed process carries nothing
}

// peakRSSMB reads VmHWM, the peak resident set of the kwsd process, in MB.
func (s *server) peakRSSMB() (float64, error) {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %v", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// health and stats read kwsd's two GET endpoints.
func (c *conn) health() (httpapi.HealthResponse, error) {
	var h httpapi.HealthResponse
	err := c.getJSON("/v1/healthz", &h)
	return h, err
}

func (c *conn) stats() (httpapi.StatsResponse, error) {
	var st httpapi.StatsResponse
	err := c.getJSON("/v1/stats", &st)
	return st, err
}
