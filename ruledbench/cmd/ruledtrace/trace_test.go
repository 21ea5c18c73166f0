package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"activerules/ruledbench/bench"
)

// repoRoot is the repository root, three levels above this package.
const repoRoot = "../../.."

// unexplainedTolerance is the share of serve.submit_ms the layer
// breakdown may leave unexplained, either way, before the trace is
// considered broken: a layer the trace does not see (or counts twice)
// shows up here.
const unexplainedTolerance = 0.25

// TestTraceClosesBreakdown runs the traced replay of every workload at
// a tiny size and checks that it is correct, prints exactly the
// per-layer metrics BENCHMARK.json declares, and that the breakdown
// explains serve.submit_ms within unexplainedTolerance.
func TestTraceClosesBreakdown(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "ruled")
	build := exec.Command("go", "build", "-o", bin, "./cmd/ruled")
	build.Dir = repoRoot
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build ruled: %v\n%s", err, out)
	}
	want := declaredUnits(t)
	for _, name := range bench.Names {
		t.Run(name, func(t *testing.T) {
			cfg := config{workload: name, seed: 1, size: bench.Smoke, seconds: 2 * time.Second, ruled: bin, work: t.TempDir()}
			out, err := runTrace(cfg, io.Discard, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Correct || out.Failed != 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", out.Correct, out.Attempted, out.Failed)
			}
			got := map[string]float64{}
			for _, m := range out.Metrics {
				got[m.Name] = m.Value
				if want[m.Name] != m.Unit {
					t.Errorf("metric %s unit %q, BENCHMARK.json declares %q", m.Name, m.Unit, want[m.Name])
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("metric %s = %v", m.Name, m.Value)
				}
			}
			for name := range want {
				if _, ok := got[name]; !ok {
					t.Errorf("metric %s missing", name)
				}
			}
			submit, unexplained := got["serve.submit_ms"], got["unexplained_ms"]
			t.Logf("serve.submit_ms %.4f, unexplained_ms %.4f", submit, unexplained)
			if math.Abs(unexplained) > unexplainedTolerance*submit {
				t.Errorf("unexplained_ms %.4f exceeds %.0f%% of serve.submit_ms %.4f", unexplained, 100*unexplainedTolerance, submit)
			}
		})
	}
}

func declaredUnits(t *testing.T) map[string]string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	for _, m := range spec.PerLayer {
		units[m.Name] = m.Unit
	}
	return units
}
