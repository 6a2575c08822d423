package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// RunSeconds is the measured window of one run, the contract's run_seconds.
// The driver makes 92 runs inside 3420 s; one set-up (about 5.5 s on the
// 2-core sandbox), 3 s of warm-up and 20 s measured leave a fifth of that
// budget to spare.
const RunSeconds = 20

// Manifest renders BENCHMARK.json from the registry, so the file and the
// program cannot disagree; registry_test.go compares it with the committed
// file.
func Manifest() []byte {
	type entry map[string]any
	var workloads, e2e, layers []entry
	for _, w := range Workloads {
		workloads = append(workloads, entry{"name": w.Name, "why": w.Why})
	}
	for _, m := range EndToEnd {
		e2e = append(e2e, entry{"name": m.Name, "unit": m.Unit, "better": m.Better, "bound": m.Bound})
	}
	for _, m := range PerLayer {
		layers = append(layers, entry{"name": m.Name, "unit": m.Unit, "better": m.Better})
	}
	out, _ := json.MarshalIndent(entry{ // maps of strings and numbers cannot fail to marshal
		"command":     []string{"bash", "bench/run.sh"},
		"paths":       []string{"bench"},
		"run_seconds": RunSeconds,
		"workloads":   workloads,
		"end_to_end":  e2e,
		"per_layer":   layers,
	}, "", "  ")
	return append(out, '\n')
}

// metricsFor returns the metrics a run of cfg reports.
func metricsFor(cfg Config) []Metric {
	if cfg.Trace {
		return PerLayer
	}
	return EndToEnd
}

// Contract renders a result as the one JSON object the driver reads.
func Contract(cfg Config, res *Result) map[string]any {
	metrics := map[string]any{}
	for _, m := range metricsFor(cfg) {
		metrics[m.Name] = map[string]any{"value": res.Metrics[m.Name], "unit": m.Unit}
	}
	return map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	}
}

// PrintTable prints every metric of the run by name with its unit.
func PrintTable(w io.Writer, cfg Config, res *Result) {
	fmt.Fprintf(w, "\n%-38s %16s %-6s %s\n", "metric @ "+cfg.Workload, "value", "unit", "")
	for _, m := range metricsFor(cfg) {
		note := fmt.Sprintf("%s is better, bound %.0f%%", m.Better, 100*m.Bound)
		if cfg.Trace {
			note = "-> " + m.Moves
		}
		fmt.Fprintf(w, "%-38s %16.6g %-6s %s\n", m.Name, res.Metrics[m.Name], m.Unit, note)
	}
	fmt.Fprintf(w, "%-38s %16.6g %-6s (attempted %d, failed %d, correct %v)\n\n",
		"fail_ratio", ratio(float64(res.Failed), float64(res.Attempted)), "ratio", res.Attempted, res.Failed, res.Correct)
}

// AA is the A/A repeatability check: every workload runs n times, then n
// times again, with a different seed each time; for every end-to-end metric
// it prints the two medians, the quartile spread of each set as a share of
// its median and the bound, and reports whether the two medians are within
// the bound of each other (in either direction: the two sets ran the same
// code, so a gap either way says the benchmark does not repeat) and every
// spread (setup_s excepted, as in the driver's rule) is within the bound.
// Spreads are judged from n = 5 up:
// the quartiles of fewer values are their extremes, and one disturbed run
// would decide the verdict.
func AA(w io.Writer, cfg Config, n int, run func(Config) *Result) bool {
	ok := true
	type row struct {
		workload string
		m        Metric
		a, b     []float64
	}
	var rows []row
	for _, wl := range Workloads {
		sets := [2]map[string][]float64{{}, {}}
		for set := range sets {
			for i := 0; i < n; i++ {
				c := cfg
				c.Workload, c.Trace = wl.Name, false
				c.Seed = cfg.Seed + int64(set*n+i)
				res := run(c)
				ok = ok && res.Correct
				for _, m := range EndToEnd {
					sets[set][m.Name] = append(sets[set][m.Name], res.Metrics[m.Name])
				}
			}
		}
		for _, m := range EndToEnd {
			rows = append(rows, row{wl.Name, m, sets[0][m.Name], sets[1][m.Name]})
		}
	}
	fmt.Fprintf(w, "\n%-12s %-18s %14s %14s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "median B", "B vs A", "spread A", "spread B", "bound", "verdict")
	for _, r := range rows {
		ma, mb := median(r.a), median(r.b)
		worse := ratio(mb-ma, math.Abs(ma))
		if r.m.Better == "higher" {
			worse = -worse
		}
		sa, sb := quartileSpread(r.a), quartileSpread(r.b)
		verdict := "ok"
		switch {
		case math.Abs(worse) > r.m.Bound:
			verdict, ok = "MEDIANS DIFFER", false
		case n >= 5 && r.m.Name != "setup_s" && math.Max(sa, sb) > r.m.Bound:
			verdict, ok = "SPREAD OVER BOUND", false
		case r.m.Name != "setup_s" && math.Max(sa, sb) > r.m.Bound/3:
			verdict = "ok (spread over a third of the bound)"
		}
		fmt.Fprintf(w, "%-12s %-18s %14.6g %14.6g %+7.2f%% %7.2f%% %7.2f%% %5.0f%%  %s\n",
			r.workload, r.m.Name, ma, mb, 100*worse, 100*sa, 100*sb, 100*r.m.Bound, verdict)
	}
	return ok
}
