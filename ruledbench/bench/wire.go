package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"
)

// request is one wire-protocol request line.
type request struct {
	Op     string `json:"op"`
	SQL    string `json:"sql,omitempty"`
	Tenant string `json:"tenant,omitempty"`
	Schema string `json:"schema,omitempty"`
	Rules  string `json:"rules,omitempty"`
}

// Line encodes op as a request line, newline included.
func (op Op) Line() []byte {
	req := request{Op: "assert", SQL: op.SQL, Tenant: op.Tenant}
	if op.Stats {
		req = request{Op: "stats", Tenant: op.Tenant}
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // a struct of strings always encodes
	}
	return append(b, '\n')
}

// Result is one statement's result in an assert reply.
type Result struct {
	Affected int     `json:"affected"`
	Rows     [][]any `json:"rows"`
}

// Reply is the union of the reply fields the benchmark reads.
type Reply struct {
	OK         bool     `json:"ok"`
	Code       string   `json:"code"`
	Error      string   `json:"error"`
	Considered int      `json:"considered"`
	Fired      int      `json:"fired"`
	Results    []Result `json:"results"`
	Accepted   *uint64  `json:"accepted"`
	Ready      bool     `json:"ready"`
	Role       string   `json:"role"`
	Tenants    int      `json:"tenants"`
	// CacheMisses counts the fleet analysis cache's analyzer runs
	// (tenant-stats).
	CacheMisses int `json:"cache_misses"`
}

// Check compares a reply with the op's prediction.
func Check(op Op, r *Reply) error {
	if !r.OK {
		return fmt.Errorf("%s: %s", r.Code, r.Error)
	}
	if op.Stats {
		if r.Accepted == nil {
			return errors.New("stats reply without accepted")
		}
		return nil
	}
	if r.Considered != op.Considered || r.Fired != op.Fired {
		return fmt.Errorf("considered/fired %d/%d, predicted %d/%d", r.Considered, r.Fired, op.Considered, op.Fired)
	}
	if len(r.Results) != len(op.Expect) {
		return fmt.Errorf("%d statement results, predicted %d", len(r.Results), len(op.Expect))
	}
	for i, want := range op.Expect {
		got := r.Results[i]
		if got.Affected != want.Affected {
			return fmt.Errorf("statement %d affected %d, predicted %d", i, got.Affected, want.Affected)
		}
		if want.Rows < 0 {
			continue
		}
		if len(got.Rows) != want.Rows {
			return fmt.Errorf("statement %d returned %d rows, predicted %d", i, len(got.Rows), want.Rows)
		}
		for j, first := range want.First {
			if len(got.Rows[j]) == 0 || !sameJSON(got.Rows[j][0], first) {
				return fmt.Errorf("statement %d row %d starts %v, predicted %v", i, j, got.Rows[j], first)
			}
		}
	}
	return nil
}

func sameJSON(a, b any) bool {
	x, errA := json.Marshal(a)
	y, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(x, y)
}

// conn is one client connection. Requests may be pipelined: ruled
// answers each connection's lines in order.
type conn struct {
	c net.Conn
	r *bufio.Reader
}

// dial connects to a ruled -listen address.
func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, r: bufio.NewReaderSize(c, 64*1024)}, nil
}

// Send writes one request line.
func (c *conn) Send(line []byte) error {
	_, err := c.c.Write(line)
	return err
}

// Recv reads and decodes the next reply line.
func (c *conn) Recv() (*Reply, error) {
	line, err := c.r.ReadBytes('\n')
	if err != nil {
		return nil, err
	}
	var r Reply
	if err := json.Unmarshal(line, &r); err != nil {
		return nil, fmt.Errorf("bad reply %q: %w", line, err)
	}
	return &r, nil
}

// Call sends one request and waits for its reply.
func (c *conn) Call(line []byte) (*Reply, error) {
	if err := c.Send(line); err != nil {
		return nil, err
	}
	return c.Recv()
}

// Do is Call for a request value.
func (c *conn) Do(req request) (*Reply, error) {
	b, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return c.Call(append(b, '\n'))
}

// Close closes the connection.
func (c *conn) Close() error { return c.c.Close() }

// Proc is a running ruled process.
type Proc struct {
	cmd    *exec.Cmd
	Addr   string // client address from "ruled: listening <addr>"
	stderr lockedBuffer
	done   chan error
}

// lockedBuffer collects a child's standard error; exec copies into it
// from its own goroutine while the benchmark may read it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// Start spawns ruled with args and waits until it prints its listen
// address, or fails after timeout.
func Start(bin string, args []string, timeout time.Duration) (*Proc, error) {
	p := &Proc{cmd: exec.Command(bin, args...), done: make(chan error, 1)}
	p.cmd.Stderr = &p.stderr
	out, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "ruled: listening "); ok {
				addr <- a
			}
		}
		// Keep reading until ruled closes stdout, then reap it.
		_, _ = io.Copy(io.Discard, out)
		p.done <- p.cmd.Wait()
	}()
	select {
	case p.Addr = <-addr:
		return p, nil
	case err := <-p.done:
		p.done <- err
		return nil, fmt.Errorf("ruled exited before listening: %v: %s", err, p.stderr.String())
	case <-time.After(timeout):
		p.Kill()
		return nil, fmt.Errorf("ruled did not listen within %v: %s", timeout, p.stderr.String())
	}
}

// PeakRSSMB reads VmHWM, the process's peak resident set, in MiB.
func (p *Proc) PeakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// Stop asks ruled to drain with the shutdown op and waits for it to
// exit, killing it after timeout. It returns an error unless ruled
// drained cleanly.
func (p *Proc) Stop(timeout time.Duration) error {
	if c, err := dial(p.Addr); err == nil {
		_, _ = c.Do(request{Op: "shutdown"})
		c.Close()
	}
	select {
	case err := <-p.done:
		p.done <- err
		if err != nil {
			return fmt.Errorf("ruled exit: %v: %s", err, p.stderr.String())
		}
		return nil
	case <-time.After(timeout):
		p.Kill()
		return fmt.Errorf("ruled did not exit within %v", timeout)
	}
}

// Kill stops the process at once and waits for it to exit.
func (p *Proc) Kill() {
	_ = p.cmd.Process.Kill()
	err := <-p.done
	p.done <- err
}

// FreePort returns a loopback address with a port that was free a
// moment ago, for flags that must name their port in advance.
func FreePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}
