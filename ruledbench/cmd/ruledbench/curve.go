package main

import (
	"fmt"
	"io"
	"path/filepath"

	"activerules/ruledbench/bench"
)

// curves prints the ungated size curves: bank_rw's per-op cost against
// preloaded accounts (10^3, 10^4, 10^5 over the same 300 rules) and
// powernet_cascade's setup time against rule count (200, 400, 800 rules
// with the same hot chains). Each point restarts ruled three times over
// its preloaded state for setup_s and then runs one connection in a
// closed loop for half of -seconds.
func curves(cfg config, stdout, stderr io.Writer) error {
	type point struct {
		label string
		w     *bench.Workload
	}
	var points []point
	for _, accounts := range []int{10, 100, 1000} {
		points = append(points, point{fmt.Sprintf("bank_rw.accounts_%d", 100*accounts), bench.NewBank(cfg.seed, 100, accounts)})
	}
	for _, clusters := range []int{100, 200, 400} {
		points = append(points, point{fmt.Sprintf("powernet_cascade.rules_%d", 2*clusters), bench.NewPowernet(cfg.seed, clusters, 8, 16)})
	}
	tally := &bench.Tally{}
	var out bench.Output
	for _, p := range points {
		setup, ops, err := curvePoint(cfg, p.label, p.w, tally)
		if err != nil {
			return fmt.Errorf("%s: %w", p.label, err)
		}
		lat := latencies(ops)
		out.Metrics = append(out.Metrics,
			bench.Metric{Name: p.label + ".setup_s", Value: bench.Median(setup), Unit: "s", N: len(setup)},
			bench.Metric{Name: p.label + ".op_p50_ms", Value: bench.Median(lat), Unit: "ms", N: len(lat)})
	}
	tally.Log(stderr)
	out.Correct, out.Attempted, out.Failed = tally.Failed == 0, tally.Attempted, tally.Failed
	fmt.Fprintln(stdout, "size curves (ungated): setup_s and the closed-loop p50 of one connection per point")
	return out.Print(stdout)
}

func curvePoint(cfg config, label string, w *bench.Workload, tally *bench.Tally) ([]float64, []bench.Sample, error) {
	d, err := bench.NewDeployment(w, cfg.ruled, filepath.Join(cfg.work, label))
	if err != nil {
		return nil, nil, err
	}
	defer d.Kill()
	if _, err := d.Start(0); err != nil {
		return nil, nil, err
	}
	if err := bench.Calls(d.Addr, w.Preload(), tally); err != nil {
		return nil, nil, err
	}
	var setups []float64
	for i := 0; i < minRestarts; i++ {
		if err := d.Stop(); err != nil {
			return nil, nil, err
		}
		setup, err := d.Start(0)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, setup.Seconds())
	}
	ops, _, err := bench.ClosedLoop(d.Addr, 1, cfg.seconds/2, bench.NewStream(w), tally)
	if err != nil {
		return nil, nil, err
	}
	if err := bench.Calls(d.Addr, w.Final(), tally); err != nil {
		return nil, nil, err
	}
	return setups, ops, d.Stop()
}
