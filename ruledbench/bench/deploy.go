package bench

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// startTimeout bounds one ruled start, analysis included.
const startTimeout = 120 * time.Second

// Deployment is a workload's ruled process(es) over a directory that
// outlives restarts: the WAL (flat), the fleet root (tenants), or both
// nodes' WALs (cluster).
type Deployment struct {
	w   *Workload
	bin string
	dir string
	// cluster replication addresses, fixed across restarts
	repl [2]string

	Procs []*Proc
	// Addr is the client address traffic goes to: the server, or the
	// cluster leader.
	Addr string
}

// NewDeployment writes the workload's sources into dir and returns a
// deployment of the ruled binary bin over it; call Start to run it.
func NewDeployment(w *Workload, bin, dir string) (*Deployment, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &Deployment{w: w, bin: bin, dir: dir}
	if w.Mode != Tenants {
		if err := os.WriteFile(d.path("schema.sdl"), []byte(w.Schema), 0o644); err != nil {
			return nil, err
		}
		if err := os.WriteFile(d.path("rules.srl"), []byte(w.Rules), 0o644); err != nil {
			return nil, err
		}
	}
	if w.Mode == Cluster {
		for i := range d.repl {
			a, err := FreePort()
			if err != nil {
				return nil, err
			}
			d.repl[i] = a
		}
	}
	return d, nil
}

func (d *Deployment) path(name string) string { return filepath.Join(d.dir, name) }

// Start spawns ruled and returns the time from the first spawn to the
// first successful health reply that shows the deployment ready: the
// server ready, every tenant restored (wantTenants), or a cluster
// leader ready with its peer following.
func (d *Deployment) Start(wantTenants int) (time.Duration, error) {
	t0 := time.Now()
	var err error
	switch d.w.Mode {
	case Flat:
		err = d.spawn("-schema", d.path("schema.sdl"), "-rules", d.path("rules.srl"),
			"-wal", d.path("wal"), "-listen", "127.0.0.1:0")
	case Tenants:
		err = d.spawn("-tenants", d.path("fleet"), "-listen", "127.0.0.1:0")
	case Cluster:
		for i := 0; i < 2 && err == nil; i++ {
			args := []string{"-schema", d.path("schema.sdl"), "-rules", d.path("rules.srl"),
				"-wal", d.path(fmt.Sprintf("node%d", i)), "-listen", "127.0.0.1:0",
				"-cluster", "-replicate", d.repl[i], "-peer", d.repl[1-i]}
			if i == 0 {
				args = append(args, "-bootstrap")
			}
			err = d.spawn(args...)
		}
	}
	if err != nil {
		d.Kill()
		return 0, err
	}
	if err := d.awaitReady(wantTenants, t0.Add(startTimeout)); err != nil {
		d.Kill()
		return 0, err
	}
	return time.Since(t0), nil
}

func (d *Deployment) spawn(args ...string) error {
	p, err := Start(d.bin, args, startTimeout)
	if err != nil {
		return err
	}
	d.Procs = append(d.Procs, p)
	return nil
}

// awaitReady polls health until the deployment is ready.
func (d *Deployment) awaitReady(wantTenants int, deadline time.Time) error {
	conns := make([]*conn, len(d.Procs))
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}()
	for i, p := range d.Procs {
		c, err := dial(p.Addr)
		if err != nil {
			return err
		}
		conns[i] = c
	}
	var last string
	for time.Now().Before(deadline) {
		leader, following := -1, 0
		for i, c := range conns {
			r, err := c.Do(request{Op: "health"})
			if err != nil {
				return fmt.Errorf("health: %w", err)
			}
			last = fmt.Sprintf("%+v", *r)
			switch {
			case !r.OK:
			case d.w.Mode == Flat && r.Ready:
				leader = i
			case d.w.Mode == Tenants && r.Tenants == wantTenants:
				leader = i
			case d.w.Mode == Cluster && r.Role == "leader" && r.Ready:
				leader = i
			case d.w.Mode == Cluster && r.Role == "follower":
				following++
			}
		}
		if leader >= 0 && (d.w.Mode != Cluster || following == 1) {
			d.Addr = d.Procs[leader].Addr
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("deployment not ready before deadline; last health %s", last)
}

// PeakRSSMB sums VmHWM over the deployment's processes.
func (d *Deployment) PeakRSSMB() (float64, error) {
	var sum float64
	for _, p := range d.Procs {
		mb, err := p.PeakRSSMB()
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

// Stop drains every process with the shutdown op. A cluster follower
// stops first: were the leader to go first, the follower would promote
// itself once the lease ran out.
func (d *Deployment) Stop() error {
	var errs []error
	for i := len(d.Procs) - 1; i >= 0; i-- {
		p := d.Procs[i]
		if p.Addr == d.Addr && len(d.Procs) > 1 {
			continue
		}
		errs = append(errs, p.Stop(60*time.Second))
	}
	for _, p := range d.Procs {
		if p.Addr == d.Addr && len(d.Procs) > 1 {
			errs = append(errs, p.Stop(60*time.Second))
		}
	}
	d.Procs = nil
	return errors.Join(errs...)
}

// Kill stops every process at once.
func (d *Deployment) Kill() {
	for _, p := range d.Procs {
		p.Kill()
	}
	d.Procs = nil
}

// CreateTenants creates the fleet over the wire from one rule source
// and checks that the shared analysis cache ran the analyzer once. It
// does nothing outside Tenants mode.
func (d *Deployment) CreateTenants(t *Tally) error {
	if d.w.Mode != Tenants {
		return nil
	}
	c, err := dial(d.Addr)
	if err != nil {
		return err
	}
	defer c.Close()
	for _, id := range d.w.TenantIDs {
		r, err := c.Do(request{Op: "tenant-create", Tenant: id, Schema: d.w.Schema, Rules: d.w.Rules})
		if err == nil && !r.OK {
			err = fmt.Errorf("%s: %s", r.Code, r.Error)
		}
		t.Record(Op{SQL: "tenant-create " + id}, err)
	}
	r, err := c.Do(request{Op: "tenant-stats"})
	if err == nil && (!r.OK || r.CacheMisses != 1) {
		err = fmt.Errorf("tenant-stats: ok=%v cache misses %d, predicted 1", r.OK, r.CacheMisses)
	}
	t.Record(Op{SQL: "tenant-stats"}, err)
	return nil
}
