package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"
)

const (
	healthWait = 15 * time.Second // bound on a shardd becoming healthy
	stopGrace  = 10 * time.Second // SIGTERM drain before SIGKILL
)

// A shardd is one hybrid-shardd process the benchmark started, with its
// own fresh directory holding its data and its captured log.
type shardd struct {
	cmd      *exec.Cmd
	dir      string
	addr     string
	statsURL string
	log      string
	done     chan struct{} // closed once the process has been reaped
	waitErr  error         // set before done closes
	cpu      time.Duration // user+system CPU, set before done closes
	once     sync.Once
	stopErr  error
}

// startShardd starts shard i of n on free loopback ports with fsync off
// and waits, for at most healthWait, until its /health answers 200.  A
// port another process grabbed between probing and binding shows as an
// early exit; the start is then retried on new ports.
func startShardd(ctx context.Context, e env, i, n int) (*shardd, error) {
	var err error
	for range 3 {
		var p *shardd
		if p, err = launchShardd(e, i, n); err != nil {
			return nil, err
		}
		if err = p.awaitHealthy(ctx); err == nil {
			return p, nil
		}
		p.dumpLog()
		_ = p.stop()
		if ctx.Err() != nil {
			break
		}
	}
	return nil, fmt.Errorf("shardd %d: %w", i, err)
}

func launchShardd(e env, i, n int) (*shardd, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	stats, err := freePort()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.tmp, "shardd-")
	if err != nil {
		return nil, err
	}
	p := &shardd{dir: dir, addr: addr, statsURL: "http://" + stats + "/health", log: filepath.Join(dir, "shardd.log"), done: make(chan struct{})}
	logf, err := os.Create(p.log)
	if err != nil {
		_ = os.RemoveAll(dir)
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	p.cmd = exec.Command(e.shardd,
		"-addr", addr, "-stats", stats,
		"-shard", strconv.Itoa(i), "-shards", strconv.Itoa(n),
		"-dir", filepath.Join(dir, "data"), "-fsync=false")
	p.cmd.Stdout, p.cmd.Stderr = logf, logf
	p.cmd.SysProcAttr = dieWithParent()
	if err := p.cmd.Start(); err != nil {
		_ = os.RemoveAll(dir)
		return nil, fmt.Errorf("start %s: %w", e.shardd, err)
	}
	go func() {
		p.waitErr = p.cmd.Wait()
		if st := p.cmd.ProcessState; st != nil {
			p.cpu = st.UserTime() + st.SystemTime()
		}
		close(p.done)
	}()
	return p, nil
}

// awaitHealthy polls /health until it answers 200, the process exits,
// ctx ends or healthWait passes.
func (p *shardd) awaitHealthy(ctx context.Context) error {
	deadline := time.Now().Add(healthWait)
	client := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		resp, err := client.Get(p.statsURL)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.done:
			return fmt.Errorf("exited before becoming healthy: %v", p.waitErr)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
	return fmt.Errorf("not healthy after %s", healthWait)
}

// stop sends SIGTERM, escalates to SIGKILL after stopGrace, reaps the
// process and removes its directory.  Later calls return the first
// call's result.
func (p *shardd) stop() error {
	p.once.Do(func() {
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.done:
		case <-time.After(stopGrace):
			_ = p.cmd.Process.Kill()
			<-p.done
		}
		var exit *exec.ExitError
		if p.waitErr != nil && !errors.As(p.waitErr, &exit) {
			p.stopErr = p.waitErr
		}
		if err := os.RemoveAll(p.dir); err != nil && p.stopErr == nil {
			p.stopErr = err
		}
	})
	return p.stopErr
}

// dumpLog copies the shardd's log to standard error.
func (p *shardd) dumpLog() {
	out, err := os.ReadFile(p.log)
	if err != nil {
		fmt.Fprintf(os.Stderr, "--- shardd %s log unavailable: %v\n", p.addr, err)
		return
	}
	fmt.Fprintf(os.Stderr, "--- shardd %s log:\n%s--- end of shardd %s log\n", p.addr, out, p.addr)
}

// freePort returns a loopback address whose port was free a moment ago.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}
