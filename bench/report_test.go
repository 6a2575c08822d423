package bench

import (
	"io"
	"testing"
)

// The two sets of an A/A check run the same code, so a gap between their
// medians in either direction fails it, and a gap within the bound passes.
func TestAAJudgesMediansInBothDirections(t *testing.T) {
	ops := Metric{}
	for _, m := range EndToEnd {
		if m.Name == "ops_per_s" {
			ops = m
		}
	}
	const n = 3
	for _, tc := range []struct {
		name   string
		second float64 // ops_per_s of the second set, the first being 100
		want   bool
	}{
		{"equal", 100, true},
		{"within the bound", 100 * (1 + ops.Bound/2), true},
		{"second set worse", 100 * (1 - 2*ops.Bound), false},
		{"second set better", 100 * (1 + 2*ops.Bound), false},
	} {
		runs := 0
		run := func(Config) *Result {
			res := &Result{Correct: true, Attempted: 1, Metrics: map[string]float64{}}
			for _, m := range EndToEnd {
				res.Metrics[m.Name] = 1
			}
			res.Metrics["ops_per_s"] = 100
			if runs%(2*n) >= n {
				res.Metrics["ops_per_s"] = tc.second
			}
			runs++
			return res
		}
		if got := AA(io.Discard, Config{Seed: 1}, n, run); got != tc.want {
			t.Errorf("%s: AA = %v, want %v", tc.name, got, tc.want)
		}
		if runs != 2*n*len(Workloads) {
			t.Errorf("%s: %d runs, want %d", tc.name, runs, 2*n*len(Workloads))
		}
	}
}
