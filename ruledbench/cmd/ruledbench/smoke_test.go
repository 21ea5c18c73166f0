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

// buildRuled builds cmd/ruled from the repository into a temp dir.
func buildRuled(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "ruled")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/ruled")
	cmd.Dir = repoRoot
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build ruled: %v\n%s", err, out)
	}
	return bin
}

// declared reads the metric names and units BENCHMARK.json declares
// under key.
func declared(t *testing.T, key string) map[string]string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(spec[key], &ms); err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	for _, m := range ms {
		units[m.Name] = m.Unit
	}
	return units
}

func smokeConfig(t *testing.T, ruled string) config {
	return config{seed: 1, seconds: 3 * time.Second, warmup: 100 * time.Millisecond, ruled: ruled, work: t.TempDir()}
}

// TestSmoke runs every workload at a tiny size and checks that the run
// is correct and prints exactly the end-to-end metrics BENCHMARK.json
// declares, each with its unit and a positive finite value.
func TestSmoke(t *testing.T) {
	ruled := buildRuled(t)
	want := declared(t, "end_to_end")
	for _, name := range bench.Names {
		t.Run(name, func(t *testing.T) {
			w, err := bench.New(name, 1, bench.Smoke)
			if err != nil {
				t.Fatal(err)
			}
			out, err := runWorkload(smokeConfig(t, ruled), w, io.Discard, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", out.Correct, out.Attempted, out.Failed)
			}
			got := map[string]bool{}
			for _, m := range out.Metrics {
				got[m.Name] = true
				if want[m.Name] != m.Unit {
					t.Errorf("metric %s unit %q, BENCHMARK.json declares %q", m.Name, m.Unit, want[m.Name])
				}
				if !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("metric %s = %v, want a positive finite value", m.Name, m.Value)
				}
			}
			for name := range want {
				if !got[name] {
					t.Errorf("metric %s missing", name)
				}
			}
		})
	}
}

// TestForcedBadReplyIsCounted mispredicts one op and checks the run
// counts the mismatch as a failure and reports itself incorrect.
func TestForcedBadReplyIsCounted(t *testing.T) {
	cfg := smokeConfig(t, buildRuled(t))
	forced := false
	cfg.mutate = func(op *bench.Op) {
		if !forced {
			forced = true
			op.Fired++
		}
	}
	w, err := bench.New("bank_rw", 1, bench.Smoke)
	if err != nil {
		t.Fatal(err)
	}
	out, err := runWorkload(cfg, w, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if out.Failed != 1 || out.Correct {
		t.Fatalf("correct=%v failed=%d of %d, want exactly the forced op failed", out.Correct, out.Failed, out.Attempted)
	}
}
