package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// Quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; +Inf entries (failed ops) sort last. It returns NaN
// for no samples.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// Median is Quantile(xs, 0.5).
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Metric is one printed metric.
type Metric struct {
	Name  string
	Value float64
	Unit  string
	// N is the sample count behind the value (0 when not a sample
	// statistic).
	N int
}

// Output is the result line the benchmark prints last.
type Output struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   []Metric
}

// Print writes the human-readable metric table followed by the one-line
// JSON result, which is always the last line.
func (o Output) Print(w io.Writer) error {
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d fail_frac=%.6f\n",
		o.Correct, o.Attempted, o.Failed, float64(o.Failed)/math.Max(1, float64(o.Attempted)))
	metrics := map[string]map[string]any{}
	width := 0
	for _, m := range o.Metrics {
		width = max(width, len(m.Name))
	}
	for _, m := range o.Metrics {
		if m.N > 0 {
			fmt.Fprintf(w, "  %-*s %14.6f %-6s n=%d\n", width, m.Name, m.Value, m.Unit, m.N)
		} else {
			fmt.Fprintf(w, "  %-*s %14.6f %s\n", width, m.Name, m.Value, m.Unit)
		}
		v := m.Value
		if math.IsInf(v, 0) || math.IsNaN(v) {
			// JSON has no infinity: a latency every failed op pushed past
			// any limit reads as the largest number instead.
			v = math.MaxFloat64
		}
		metrics[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": o.Correct, "attempted": o.Attempted, "failed": o.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
