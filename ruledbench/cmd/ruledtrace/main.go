// Command ruledtrace is the traced run of the ruled benchmark. It
// replays a workload's generated stream in-process, layer by layer,
// from the outside in, and prints the per-layer metrics. It uses only
// seams the program already exposes: a timing filesystem handed to the
// WAL (WALOptions.FS, TenantConfig.FS), the engine's step trace
// (EngineOptions.Trace), and direct timed calls into public layer
// functions. Every stage replays the same seeded stream from the same
// preloaded state, so op i means the same request in every stage.
//
// Stages:
//
//   - analysis: serve.ComputeBaseline (the startup analysis of ruled),
//     System.Analyze, and compile.Compile, each timed once;
//   - serve: the workload's serving facade (Server, or TenantManager
//     for the fleet) submitting one op at a time, untraced;
//   - serve, traced: the same with the timing filesystem and the step
//     trace on, giving the WAL counts and the tracing overhead;
//   - engine: a journal-less engine timing ExecUser, AssertContext,
//     Commit and DB().Fingerprint() in the order the serve worker calls
//     them, plus a direct DB().Clone();
//   - tenant: the analysis-cache and quota counters of a fleet;
//   - cluster: an in-process leader and follower pair;
//   - wire: ruled over TCP, one connection, closed loop.
//
// The two serve stages and the engine stage run interleaved, twenty
// ops at a time, for half of -seconds; their op count n bounds the
// cluster stage.
//
// unexplained_ms is the median over ops of the untraced serve time
// minus that op's engine spans and its WAL filesystem time: the part of
// a request the breakdown does not account for.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"activerules"
	"activerules/internal/compile"
	"activerules/internal/serve"
	"activerules/internal/storage"
	"activerules/internal/wal"
	"activerules/ruledbench/bench"
)

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ruledtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload name")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 24, "replay budget in seconds")
	fs.StringVar(&cfg.ruled, "ruled", ".bench_build/bin/ruled", "ruled binary")
	fs.StringVar(&cfg.work, "work", ".bench_build/work", "directory for WALs and fleet roots")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.seconds = time.Duration(*seconds * float64(time.Second))
	if _, err := bench.New(cfg.workload, cfg.seed, bench.Full); err != nil {
		fmt.Fprintln(stderr, "ruledtrace:", err)
		return 2
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintln(stderr, "ruledtrace:", err)
		return 1
	}
	dir, err := os.MkdirTemp(cfg.work, "trace-")
	if err != nil {
		fmt.Fprintln(stderr, "ruledtrace:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg.work = dir
	out, err := runTrace(cfg, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "ruledtrace:", err)
		return 1
	}
	if err := out.Print(stdout); err != nil {
		fmt.Fprintln(stderr, "ruledtrace:", err)
		return 1
	}
	return 0
}

type config struct {
	workload string
	seed     int64
	size     bench.Size
	seconds  time.Duration
	ruled    string
	work     string
}

// tracer carries one traced run.
type tracer struct {
	cfg   config
	tally *bench.Tally
	// sys is the workload's rule system (every tenant shares it), and
	// bl its startup analysis, handed to every server so only the
	// analysis stage pays for it.
	sys *activerules.System
	bl  *serve.Baseline
}

// workload regenerates the workload, so every stage replays the same
// stream from its start.
func (t *tracer) workload() *bench.Workload {
	w, err := bench.New(t.cfg.workload, t.cfg.seed, t.cfg.size)
	if err != nil {
		panic(err) // the name was validated before the run
	}
	return w
}

func runTrace(cfg config, stdout, stderr io.Writer) (bench.Output, error) {
	t := &tracer{cfg: cfg, tally: &bench.Tally{}}
	w := t.workload()
	var m metrics

	// Analysis and compile: the work ruled does before serving.
	sys, err := activerules.Load(w.Schema, w.Rules)
	if err != nil {
		return bench.Output{}, err
	}
	defs, err := activerules.ParseDefinitions(w.Rules)
	if err != nil {
		return bench.Output{}, err
	}
	t.sys = sys
	start := time.Now()
	if t.bl, err = serve.ComputeBaseline(sys.Schema(), defs, nil, 0); err != nil {
		return bench.Output{}, err
	}
	m.add("analysis.baseline_ms", msSince(start), "ms", 1)
	start = time.Now()
	sys.Analyze(nil)
	m.add("analysis.report_ms", msSince(start), "ms", 1)
	start = time.Now()
	compile.Compile(sys.Rules())
	m.add("compile.setup_ms", msSince(start), "ms", 1)

	// Serve untraced, serve traced and the engine advance together in
	// chunks of the same ops, so drift in the machine's speed falls on
	// all three alike and op i meets the same state in each.
	preload := w.Preload()
	plainRun, err := t.newServeRunner(w, preload, nil, nil)
	if err != nil {
		return bench.Output{}, fmt.Errorf("serve stage: %w", err)
	}
	defer plainRun.closeFn()
	tracedRun, err := t.newServeRunner(w, preload, &fsCounters{}, &stepClock{})
	if err != nil {
		return bench.Output{}, fmt.Errorf("traced serve stage: %w", err)
	}
	defer tracedRun.closeFn()
	engRun, err := t.newEngineRunner(preload)
	if err != nil {
		return bench.Output{}, fmt.Errorf("engine stage: %w", err)
	}
	chunk := make([]bench.Op, 20)
	for deadline := time.Now().Add(cfg.seconds / 2); time.Now().Before(deadline); {
		for i := range chunk {
			chunk[i] = w.Next()
		}
		for _, op := range chunk {
			plainRun.step(op)
		}
		for _, op := range chunk {
			tracedRun.step(op)
		}
		for _, op := range chunk {
			if err := engRun.step(op); err != nil {
				return bench.Output{}, fmt.Errorf("engine stage: %w", err)
			}
		}
	}
	final := w.Final()
	plain, err := plainRun.finish(final)
	if err != nil {
		return bench.Output{}, fmt.Errorf("serve stage: %w", err)
	}
	traced, err := tracedRun.finish(final)
	if err != nil {
		return bench.Output{}, fmt.Errorf("traced serve stage: %w", err)
	}
	eng := engRun.finish()
	n := len(plain.submitMS)
	cl, err := t.clusterStage(n, cfg.seconds/5)
	if err != nil {
		return bench.Output{}, fmt.Errorf("cluster stage: %w", err)
	}
	wireP50, err := t.wireStage(cfg.seconds / 5)
	if err != nil {
		return bench.Output{}, fmt.Errorf("wire stage: %w", err)
	}
	tenantStats := plain.tenant
	if w.Mode != bench.Tenants {
		if tenantStats, err = t.tenantStage(); err != nil {
			return bench.Output{}, fmt.Errorf("tenant stage: %w", err)
		}
	}

	// engine + storage
	col := eng.column
	exec := col(func(o engineOp) float64 { return o.exec })
	ne := len(exec)
	m.add("engine.exec_user_ms", bench.Median(exec), "ms", ne)
	m.add("engine.assert_ms", bench.Median(col(func(o engineOp) float64 { return o.assert })), "ms", ne)
	m.add("engine.match_us", mean(col(func(o engineOp) float64 { return o.matchUS })), "us", ne)
	m.add("engine.consider_us", mean(col(func(o engineOp) float64 { return o.considerUS })), "us", ne)
	m.add("engine.considered_per_req", mean(col(func(o engineOp) float64 { return o.considered })), "count", ne)
	m.add("engine.fired_per_req", mean(col(func(o engineOp) float64 { return o.fired })), "count", ne)
	m.add("engine.commit_ms", bench.Median(col(func(o engineOp) float64 { return o.commit })), "ms", ne)
	m.add("storage.fingerprint_ms", bench.Median(col(func(o engineOp) float64 { return o.fingerprint })), "ms", ne)
	m.add("storage.clone_ms", bench.Median(col(func(o engineOp) float64 { return o.clone })), "ms", ne)
	m.add("storage.rows", float64(eng.rows), "count", 0)
	// wal
	fc := traced.fs
	m.add("wal.syncs_per_req", float64(fc.syncs)/float64(n), "count", n)
	m.add("wal.sync_us", bench.Median(fc.syncUS), "us", fc.syncs)
	m.add("wal.writes_per_req", float64(fc.writes)/float64(n), "count", n)
	m.add("wal.bytes_per_req", float64(fc.bytes)/float64(n), "bytes", n)
	m.add("wal.recover_ms", plain.recoverMS, "ms", 3)
	// serve + tenant
	m.add("serve.submit_ms", bench.Median(plain.submitMS), "ms", n)
	m.add("serve.submit_p99_ms", bench.Quantile(plain.submitMS, 0.99), "ms", n)
	m.add("serve.accepted", float64(plain.stats.Accepted), "count", 0)
	m.add("serve.completed", float64(plain.stats.Completed), "count", 0)
	m.add("serve.failed", float64(plain.stats.Failed), "count", 0)
	m.add("serve.shed", float64(plain.stats.ShedOverload+plain.stats.ShedDeadline), "count", 0)
	m.add("tenant.shed_quota", float64(tenantStats.shedQuota), "count", 0)
	m.add("tenant.cache_hits", float64(tenantStats.hits), "count", 0)
	m.add("tenant.cache_misses", float64(tenantStats.misses), "count", 0)
	// ruled: the TCP closed loop against the in-process path it wraps
	inproc := bench.Median(plain.submitMS)
	if w.Mode == bench.Cluster {
		inproc = bench.Median(cl.submitMS)
	}
	m.add("ruled.wire_gap_ms", wireP50-inproc, "ms", 0)
	// replica + cluster: the same ops, flat and acknowledged
	k := len(cl.submitMS)
	var flat []float64
	for _, i := range cl.index {
		flat = append(flat, plain.submitMS[i])
	}
	m.add("cluster.submit_ms", bench.Median(cl.submitMS), "ms", k)
	m.add("cluster.ack_gap_ms", bench.Median(cl.submitMS)-bench.Median(flat), "ms", k)
	m.add("replica.lag_bytes", mean(cl.lagBytes), "bytes", k)
	// closing the breakdown
	var residual []float64
	for i, o := range eng.ops {
		if o.skipped {
			continue
		}
		spans := o.exec + o.assert + o.commit + o.fingerprint + traced.fsMS[i]
		residual = append(residual, plain.submitMS[i]-spans)
	}
	m.add("unexplained_ms", bench.Median(residual), "ms", len(residual))
	m.add("trace_overhead", plain.rps/traced.rps-1, "ratio", n)

	fmt.Fprintf(stdout, "workload=%s seed=%d ops=%d rows=%d (traced in-process replay; not gated)\n",
		w.Name, cfg.seed, n, eng.rows)
	t.tally.Log(stderr)
	return bench.Output{
		Correct:   t.tally.Failed == 0,
		Attempted: t.tally.Attempted,
		Failed:    t.tally.Failed,
		Metrics:   m.list,
	}, nil
}

type metrics struct{ list []bench.Metric }

func (m *metrics) add(name string, v float64, unit string, n int) {
	m.list = append(m.list, bench.Metric{Name: name, Value: v, Unit: unit, N: n})
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// check records op's outcome against its prediction.
func (t *tracer) check(op bench.Op, resp *activerules.ServeResponse, err error) {
	if err == nil && resp != nil {
		err = bench.Check(op, reply(resp))
	}
	t.tally.Record(op, err)
}

// reply renders a serve response the way ruled puts it on the wire.
func reply(resp *activerules.ServeResponse) *bench.Reply {
	r := &bench.Reply{OK: true, Considered: resp.Considered, Fired: resp.Fired}
	for _, res := range resp.Results {
		br := bench.Result{Affected: res.Affected}
		for _, row := range res.Rows {
			vals := make([]any, len(row))
			for i, v := range row {
				vals[i] = jsonValue(v)
			}
			br.Rows = append(br.Rows, vals)
		}
		r.Results = append(r.Results, br)
	}
	return r
}

func jsonValue(v storage.Value) any {
	switch v.Kind {
	case storage.KindInt:
		return v.I
	case storage.KindFloat:
		return v.F
	case storage.KindString:
		return v.S
	case storage.KindBool:
		return v.B
	default:
		return nil
	}
}

// stepClock turns the engine's step trace into match and consider time:
// matching runs from a step's start (the assert call, or the end of the
// previous consideration) to "choose" and from the last step to
// "assert-end"; considering runs from "choose" to "fire", "skip" or
// "rollback".
type stepClock struct {
	mu        sync.Mutex
	stepStart time.Time
	chose     time.Time
	match     time.Duration
	consider  time.Duration
}

func (c *stepClock) begin() {
	c.mu.Lock()
	c.stepStart, c.match, c.consider = time.Now(), 0, 0
	c.mu.Unlock()
}

func (c *stepClock) event(ev activerules.TraceEvent) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	switch ev.Kind {
	case "choose":
		c.match += now.Sub(c.stepStart)
		c.chose = now
	case "fire", "skip", "rollback":
		c.consider += now.Sub(c.chose)
		c.stepStart = now
	case "assert-end":
		c.match += now.Sub(c.stepStart)
	}
}

func (c *stepClock) read() (match, consider time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.match, c.consider
}

// submitter sends one op through a serving facade.
type submitter func(ctx context.Context, op bench.Op) (*activerules.ServeResponse, error)

type serveResult struct {
	submitMS  []float64
	fsMS      []float64 // WAL filesystem time inside each submit
	rps       float64
	stats     activerules.ServerStats
	recoverMS float64
	tenant    tenantCounters
	// fs is the WAL filesystem activity of the measured ops alone.
	fs fsSnapshot
}

type tenantCounters struct {
	hits, misses int
	shedQuota    uint64
}

// serveRunner drives the workload's serving facade (a Server, or a
// TenantManager for the fleet) one op at a time. With fc set the WAL
// runs over the timing filesystem; with clock set the engine's step
// trace is on.
type serveRunner struct {
	t       *tracer
	fc      *fsCounters
	clock   *stepClock
	submit  submitter
	stats   func() activerules.ServerStats
	closeFn func() error
	walDir  string
	first   fsSnapshot
	busy    time.Duration // wall time of the measured steps
	res     serveResult
}

func (t *tracer) newServeRunner(w *bench.Workload, preload []bench.Op, fc *fsCounters, clock *stepClock) (*serveRunner, error) {
	dir, err := os.MkdirTemp(t.cfg.work, "serve-")
	if err != nil {
		return nil, err
	}
	cfg := activerules.ServeConfig{Engine: activerules.EngineOptions{MaxSteps: 10000}}
	if clock != nil {
		cfg.Engine.Trace = clock.event
	}
	var fsys wal.FS
	if fc != nil {
		fsys = timingFS{wal.OS, fc}
	}
	r := &serveRunner{t: t, fc: fc, clock: clock}
	if w.Mode == bench.Tenants {
		tm, err := activerules.OpenTenants(dir, activerules.TenantConfig{FS: fsys, Serve: cfg})
		if err != nil {
			return nil, err
		}
		r.closeFn = func() error { return shutdown(tm) }
		for _, id := range w.TenantIDs {
			if _, err := tm.Create(id, w.Schema, w.Rules); err != nil {
				r.closeFn()
				return nil, err
			}
		}
		r.submit = func(ctx context.Context, op bench.Op) (*activerules.ServeResponse, error) {
			if op.Stats {
				_, err := tm.Stats(op.Tenant)
				return nil, err
			}
			return tm.Submit(ctx, op.Tenant, activerules.ServeRequest{SQL: op.SQL})
		}
		r.stats = func() activerules.ServerStats {
			var sum activerules.ServerStats
			for _, id := range w.TenantIDs {
				st, err := tm.Stats(id)
				if err != nil {
					continue
				}
				sum.Accepted += st.Accepted
				sum.Completed += st.Completed
				sum.Failed += st.Failed
				sum.ShedOverload += st.ShedOverload
				sum.ShedDeadline += st.ShedDeadline
				r.res.tenant.shedQuota += st.ShedQuota
			}
			r.res.tenant.hits, r.res.tenant.misses, _ = tm.CacheStats()
			return sum
		}
		r.walDir = filepath.Join(dir, "tenants", w.TenantIDs[0], "wal")
	} else {
		cfg.WAL.FS = fsys
		cfg.Baseline = t.bl
		r.walDir = filepath.Join(dir, "wal")
		srv, err := t.sys.NewServer(r.walDir, cfg)
		if err != nil {
			return nil, err
		}
		r.submit = func(ctx context.Context, op bench.Op) (*activerules.ServeResponse, error) {
			return srv.Submit(ctx, activerules.ServeRequest{SQL: op.SQL})
		}
		r.stats = srv.Stats
		r.closeFn = srv.Close
	}
	for _, op := range preload {
		resp, err := r.submit(context.Background(), op)
		t.check(op, resp, err)
	}
	if fc != nil {
		r.first = fc.snapshot()
	}
	return r, nil
}

// step submits one measured op.
func (r *serveRunner) step(op bench.Op) {
	start := time.Now()
	var before fsSnapshot
	if r.fc != nil {
		before = r.fc.snapshot()
	}
	if r.clock != nil {
		r.clock.begin()
	}
	t0 := time.Now()
	resp, err := r.submit(context.Background(), op)
	r.res.submitMS = append(r.res.submitMS, msSince(t0))
	if r.fc != nil {
		r.res.fsMS = append(r.res.fsMS, r.fc.snapshot().sub(before).ms)
	}
	r.t.check(op, resp, err)
	r.busy += time.Since(start)
}

// finish runs the end-of-run checks, closes the facade and times
// recovery of its WAL.
func (r *serveRunner) finish(final []bench.Op) (*serveResult, error) {
	r.res.rps = float64(len(r.res.submitMS)) / r.busy.Seconds()
	if r.fc != nil {
		r.res.fs = r.fc.snapshot().sub(r.first)
	}
	for _, op := range final {
		resp, err := r.submit(context.Background(), op)
		r.t.check(op, resp, err)
	}
	r.res.stats = r.stats()
	if err := r.closeFn(); err != nil {
		return nil, err
	}
	var rec []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, _, err := r.t.sys.Recover(r.walDir, nil); err != nil {
			return nil, err
		}
		rec = append(rec, msSince(t0))
	}
	r.res.recoverMS = bench.Median(rec)
	return &r.res, nil
}

// engineOp is one op's timings in the engine stage, in ms unless
// named otherwise.
type engineOp struct {
	exec, assert, commit, fingerprint, clone float64
	matchUS, considerUS                      float64
	considered, fired                        float64
	// skipped marks a stats op, which never reaches an engine.
	skipped bool
}

type engineResult struct {
	ops  []engineOp // one per op, aligned with the serve stages
	rows int
}

// column returns one field of every op that reached an engine.
func (r *engineResult) column(f func(engineOp) float64) []float64 {
	var out []float64
	for _, o := range r.ops {
		if !o.skipped {
			out = append(out, f(o))
		}
	}
	return out
}

// engineRunner replays ops through journal-less engines (one per
// tenant), timing each call the serve worker makes, in its order.
type engineRunner struct {
	t       *tracer
	clock   *stepClock
	engines map[string]*activerules.Engine
	res     engineResult
}

func (t *tracer) newEngineRunner(preload []bench.Op) (*engineRunner, error) {
	r := &engineRunner{t: t, clock: &stepClock{}, engines: map[string]*activerules.Engine{}}
	for _, op := range preload {
		if _, err := r.run(op); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// step replays one measured op.
func (r *engineRunner) step(op bench.Op) error {
	if op.Stats {
		r.res.ops = append(r.res.ops, engineOp{skipped: true})
		return nil
	}
	o, err := r.run(op)
	r.res.ops = append(r.res.ops, o)
	return err
}

func (r *engineRunner) run(op bench.Op) (engineOp, error) {
	e, ok := r.engines[op.Tenant]
	if !ok {
		e = r.t.sys.NewEngine(r.t.sys.NewDB(), activerules.EngineOptions{MaxSteps: 10000, Trace: r.clock.event})
		r.engines[op.Tenant] = e
	}
	t0 := time.Now()
	out, err := e.ExecUser(op.SQL)
	t1 := time.Now()
	if err != nil {
		return engineOp{}, err
	}
	r.clock.begin()
	res, err := e.AssertContext(context.Background())
	t2 := time.Now()
	if err != nil {
		return engineOp{}, err
	}
	if err := e.Commit(); err != nil {
		return engineOp{}, err
	}
	t3 := time.Now()
	e.DB().Fingerprint()
	t4 := time.Now()
	e.DB().Clone()
	t5 := time.Now()
	r.t.check(op, &activerules.ServeResponse{Results: out, Considered: res.Considered, Fired: res.Fired}, nil)
	match, consider := r.clock.read()
	return engineOp{
		exec: ms(t1.Sub(t0)), assert: ms(t2.Sub(t1)), commit: ms(t3.Sub(t2)),
		fingerprint: ms(t4.Sub(t3)), clone: ms(t5.Sub(t4)),
		matchUS:    float64(match) / float64(time.Microsecond),
		considerUS: float64(consider) / float64(time.Microsecond),
		considered: float64(res.Considered), fired: float64(res.Fired),
	}, nil
}

func (r *engineRunner) finish() *engineResult {
	for _, e := range r.engines {
		r.res.rows += e.DB().TotalRows()
	}
	return &r.res
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

type clusterResult struct {
	submitMS []float64
	lagBytes []float64
	// index is each submitted op's position in the stream, to compare
	// it with the same op in the serve stage.
	index []int
}

// clusterStage replays up to n ops (within budget) through an
// in-process leader whose follower must acknowledge every commit. In
// Tenants mode it replays the first tenant's share of the stream.
func (t *tracer) clusterStage(n int, budget time.Duration) (*clusterResult, error) {
	w := t.workload()
	tenant := ""
	if w.Mode == bench.Tenants {
		tenant = w.TenantIDs[0]
	}
	dir, err := os.MkdirTemp(t.cfg.work, "cluster-")
	if err != nil {
		return nil, err
	}
	var addrs [2]string
	for i := range addrs {
		if addrs[i], err = bench.FreePort(); err != nil {
			return nil, err
		}
	}
	var nodes [2]*activerules.ClusterNode
	defer func() {
		for i := len(nodes) - 1; i >= 0; i-- {
			if nodes[i] != nil {
				nodes[i].Close()
			}
		}
	}()
	for i := range nodes {
		peer := addrs[1-i]
		nodes[i], err = t.sys.NewClusterNode(activerules.ClusterConfig{
			Dir:       filepath.Join(dir, fmt.Sprintf("node%d", i)),
			Serve:     activerules.ServeConfig{Engine: activerules.EngineOptions{MaxSteps: 10000}, Baseline: t.bl},
			ReplAddr:  addrs[i],
			Peer:      func() string { return peer },
			Bootstrap: i == 0,
		})
		if err != nil {
			return nil, err
		}
	}
	leader, follower := nodes[0], nodes[1]
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(2 * time.Millisecond) {
		if leader.Role() == activerules.ClusterLeader && leader.Server() != nil &&
			follower.Follower() != nil && follower.Follower().Health().State == "following" {
			break
		}
		if time.Now().After(deadline) {
			return nil, errors.New("cluster pair did not form within a minute")
		}
	}
	ctx := context.Background()
	for _, op := range w.Preload() {
		if op.Tenant == tenant {
			resp, err := leader.Submit(ctx, activerules.ServeRequest{SQL: op.SQL})
			t.check(op, resp, err)
		}
	}
	res := &clusterResult{}
	deadline := time.Now().Add(budget)
	for i := 0; i < n && time.Now().Before(deadline); i++ {
		op := w.Next()
		if op.Tenant != tenant || op.Stats {
			continue
		}
		t0 := time.Now()
		resp, err := leader.Submit(ctx, activerules.ServeRequest{SQL: op.SQL})
		res.submitMS = append(res.submitMS, msSince(t0))
		res.index = append(res.index, i)
		t.check(op, resp, err)
		if f := follower.Follower(); f != nil {
			res.lagBytes = append(res.lagBytes, float64(f.Health().Behind))
		}
	}
	return res, nil
}

// wireStage runs ruled over TCP with one connection in a closed loop
// and returns its median latency.
func (t *tracer) wireStage(budget time.Duration) (float64, error) {
	w := t.workload()
	d, err := bench.NewDeployment(w, t.cfg.ruled, filepath.Join(t.cfg.work, "wire"))
	if err != nil {
		return 0, err
	}
	defer d.Kill()
	if _, err := d.Start(0); err != nil {
		return 0, err
	}
	if err := d.CreateTenants(t.tally); err != nil {
		return 0, err
	}
	if err := bench.Calls(d.Addr, w.Preload(), t.tally); err != nil {
		return 0, err
	}
	samples, _, err := bench.ClosedLoop(d.Addr, 1, budget, bench.NewStream(w), t.tally)
	if err != nil {
		return 0, err
	}
	if err := d.Stop(); err != nil {
		return 0, err
	}
	all, _, _ := bench.Latencies(samples)
	return bench.Median(all), nil
}

// tenantStage creates two tenants from the workload's sources, for the
// analysis-cache counters of workloads that do not run a fleet. It only
// reads counters, which are the same at every analyzer parallelism, so
// the analysis runs on both CPUs to keep the traced run short.
func (t *tracer) tenantStage() (tenantCounters, error) {
	w := t.workload()
	dir, err := os.MkdirTemp(t.cfg.work, "tenants-")
	if err != nil {
		return tenantCounters{}, err
	}
	tm, err := activerules.OpenTenants(dir, activerules.TenantConfig{AnalysisParallelism: 2})
	if err != nil {
		return tenantCounters{}, err
	}
	defer shutdown(tm)
	var tc tenantCounters
	for _, id := range []string{"a", "b"} {
		if _, err := tm.Create(id, w.Schema, w.Rules); err != nil {
			return tc, err
		}
		st, err := tm.Stats(id)
		if err != nil {
			return tc, err
		}
		tc.shedQuota += st.ShedQuota
	}
	tc.hits, tc.misses, _ = tm.CacheStats()
	return tc, nil
}

// shutdown drains a tenant fleet; a second call is a harmless
// ErrTenantManagerClosed.
func shutdown(tm *activerules.TenantManager) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := tm.Shutdown(ctx); err != nil && !errors.Is(err, activerules.ErrTenantManagerClosed) {
		return err
	}
	return nil
}
