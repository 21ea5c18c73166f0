// Command ruledbench is the wire-level benchmark of ruled. It spawns the
// real ruled binary on loopback with its WAL on the real filesystem and
// the default flush policy (-fsync commit, no group commit), drives one
// workload over the line-JSON protocol, checks every reply against the
// generator's prediction, and prints every end-to-end metric with its
// unit and sample count. The last line of its output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
//
// Usage (normally through run.sh, which builds the binaries first):
//
//	ruledbench -workload bank_rw -seed 1 -seconds 10 -ruled .bench_build/bin/ruled
//	ruledbench -curve -ruled .bench_build/bin/ruled
//
// A run sets the workload up once, preloads it, and restarts it at
// least three times over the preloaded state (setup_s is the median
// restart time, recovery and startup analysis included). On the last
// restart it warms up, then alternates a closed loop on two connections
// (throughput_rps) with an open loop at the workload's fixed rate
// (p50_ms, read_p50_ms, write_p50_ms, and p99_ms, which is printed but
// left out of the result line), each for half the measured time in
// all, and finally checks order-independent row counts.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"activerules/ruledbench/bench"
)

// A run restarts over the preloaded state minRestarts times to time
// setup, and up to maxRestarts while the restarts have taken less than
// restartBudget in all, so a start of milliseconds is timed often
// enough to be steady; setup_s is the median.
const (
	minRestarts   = 3
	maxRestarts   = 9
	restartBudget = 2 * time.Second
)

// conns is the client connection count of both load phases.
const conns = 2

// blocks is how many closed-loop/open-loop pairs the measured time is
// split into. throughput_rps (and the printed, ungated p99) are medians
// over blocks, so a stall from outside the program (CPU steal, a
// neighbour's fsync storm) that spoils one block does not move them;
// the p50 metrics pool every block's samples.
const blocks = 10

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ruledbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload name")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 24, "measured seconds (closed loop plus open loop)")
	fs.StringVar(&cfg.ruled, "ruled", ".bench_build/bin/ruled", "ruled binary")
	fs.StringVar(&cfg.work, "work", ".bench_build/work", "directory for WALs and fleet roots")
	curve := fs.Bool("curve", false, "print the ungated size curves instead of one workload run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.seconds = time.Duration(*seconds * float64(time.Second))
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintln(stderr, "ruledbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(cfg.work, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "ruledbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg.work = dir
	if *curve {
		if err := curves(cfg, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "ruledbench:", err)
			return 1
		}
		return 0
	}
	w, err := bench.New(cfg.workload, cfg.seed, bench.Full)
	if err != nil {
		fmt.Fprintln(stderr, "ruledbench:", err)
		return 2
	}
	out, err := runWorkload(cfg, w, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "ruledbench:", err)
		return 1
	}
	if err := out.Print(stdout); err != nil {
		fmt.Fprintln(stderr, "ruledbench:", err)
		return 1
	}
	return 0
}

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	ruled    string
	work     string
	// warmup is the closed-loop warm-up before measuring.
	warmup time.Duration
	// mutate edits each streamed op's prediction (tests force a bad
	// reply with it).
	mutate func(*bench.Op)
}

// runWorkload runs one workload end to end and returns its metrics.
// An error means the run could not be carried out; a run that completes
// with failed ops reports them in the output instead.
func runWorkload(cfg config, w *bench.Workload, stdout, stderr io.Writer) (bench.Output, error) {
	var out bench.Output
	d, err := bench.NewDeployment(w, cfg.ruled, filepath.Join(cfg.work, w.Name))
	if err != nil {
		return out, err
	}
	defer d.Kill()
	tally := &bench.Tally{}
	if _, err := d.Start(0); err != nil {
		return out, fmt.Errorf("first start: %w", err)
	}
	if err := d.CreateTenants(tally); err != nil {
		return out, err
	}
	if err := bench.Calls(d.Addr, w.Preload(), tally); err != nil {
		return out, err
	}
	var setups []float64
	var spent time.Duration
	for i := 0; i < minRestarts || i < maxRestarts && spent < restartBudget; i++ {
		if err := d.Stop(); err != nil {
			return out, err
		}
		setup, err := d.Start(len(w.TenantIDs))
		if err != nil {
			return out, fmt.Errorf("restart: %w", err)
		}
		spent += setup
		setups = append(setups, setup.Seconds())
	}

	s := bench.NewStream(w)
	warmup := cfg.warmup
	if warmup == 0 {
		warmup = time.Second
	}
	if _, _, err := bench.ClosedLoop(d.Addr, conns, warmup, s, tally); err != nil {
		return out, err
	}
	var closed []bench.Sample
	var open bench.OpenLoopResult
	var elapsed time.Duration
	var blockRPS, blockP99 []float64
	for b := 0; b < blocks; b++ {
		if b == 0 {
			s.Mutate = cfg.mutate
		}
		c, el, err := bench.ClosedLoop(d.Addr, conns, cfg.seconds/(2*blocks), s, tally)
		if err != nil {
			return out, err
		}
		s.Mutate = nil
		o, err := bench.OpenLoop(d.Addr, conns, w.Rate, cfg.seconds/(2*blocks), s, tally)
		if err != nil {
			return out, err
		}
		blockRPS = append(blockRPS, float64(succeeded(c))/el.Seconds())
		blockP99 = append(blockP99, bench.Quantile(latencies(o.Samples), 0.99))
		closed = append(closed, c...)
		elapsed += el
		open.Samples = append(open.Samples, o.Samples...)
		open.LateMS = append(open.LateMS, o.LateMS...)
	}
	if err := bench.Calls(d.Addr, w.Final(), tally); err != nil {
		return out, err
	}
	rss, err := d.PeakRSSMB()
	if err != nil {
		return out, err
	}
	procs := len(d.Procs)
	if err := d.Stop(); err != nil {
		return out, err
	}

	all, reads, writes := bench.Latencies(open.Samples)
	fmt.Fprintf(stdout, "workload=%s seed=%d rows=%d rate=%.0f/s conns=%d blocks=%d closed=%.2fs open=%.2fs\n",
		w.Name, cfg.seed, w.Rows, w.Rate, conns, blocks, elapsed.Seconds(), (cfg.seconds / 2).Seconds())
	fmt.Fprintf(stdout, "generator lateness (not gated): p50 %.3f ms, p99 %.3f ms, max %.3f ms over %d sends\n",
		bench.Median(open.LateMS), bench.Quantile(open.LateMS, 0.99), bench.Quantile(open.LateMS, 1), len(open.LateMS))
	_, closedReads, _ := bench.Latencies(closed)
	fmt.Fprintf(stdout, "closed-loop latency (not gated): p50 %.3f ms over %d ops (%d reads)\n",
		bench.Median(latencies(closed)), len(closed), len(closedReads))
	fmt.Fprintf(stdout, "per-block throughput %v 1/s; per-block p99 %v ms\n", rounded(blockRPS), rounded(blockP99))
	fmt.Fprintf(stdout, "p99_ms (not gated) %.6f ms n=%d: median over blocks of each block's open-loop 99th percentile\n",
		bench.Median(blockP99), len(all))
	tally.Log(stderr)
	out = bench.Output{
		Correct:   tally.Failed == 0,
		Attempted: tally.Attempted,
		Failed:    tally.Failed,
		Metrics: []bench.Metric{
			{Name: "setup_s", Value: bench.Median(setups), Unit: "s", N: len(setups)},
			{Name: "throughput_rps", Value: bench.Median(blockRPS), Unit: "1/s", N: succeeded(closed)},
			{Name: "p50_ms", Value: bench.Median(all), Unit: "ms", N: len(all)},
			{Name: "read_p50_ms", Value: bench.Median(reads), Unit: "ms", N: len(reads)},
			{Name: "write_p50_ms", Value: bench.Median(writes), Unit: "ms", N: len(writes)},
			{Name: "rss_peak_mb", Value: rss, Unit: "MiB", N: procs},
		},
	}
	return out, nil
}

func succeeded(ss []bench.Sample) int {
	n := 0
	for _, s := range ss {
		if !math.IsInf(s.MS, 1) {
			n++
		}
	}
	return n
}

func rounded(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*100) / 100
	}
	return out
}

func latencies(ss []bench.Sample) []float64 {
	all, _, _ := bench.Latencies(ss)
	return all
}
