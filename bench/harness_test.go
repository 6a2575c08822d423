package bench

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// testConfig is the whole harness at 1/50 corpus with half-second runs.
func testConfig(t *testing.T, workload string, trace bool) Config {
	t.Helper()
	log := io.Discard
	if testing.Verbose() {
		log = os.Stderr
	}
	cfg := Config{
		Workload: workload, Seed: 3, Seconds: 0.5, Warmup: 0.2, Trace: trace,
		Scale: 0.02, Dir: t.TempDir(), Log: log,
	}
	if trace {
		cfg.SpanFile = filepath.Join(cfg.Dir, "spans.json")
	}
	return cfg
}

func TestEveryWorkloadRunsAndChecksOut(t *testing.T) {
	for _, w := range Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			res, err := Run(testConfig(t, w.Name, false))
			if err != nil {
				t.Fatalf("in phase %q: %v", Phase(), err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, m := range EndToEnd {
				if v, ok := res.Metrics[m.Name]; !ok || !(v > 0) {
					t.Errorf("%s = %v (reported: %v), want a positive number", m.Name, v, ok)
				}
			}
			if len(res.Metrics) != len(EndToEnd) {
				t.Errorf("%d metrics reported, want the %d end-to-end ones", len(res.Metrics), len(EndToEnd))
			}
		})
	}
}

func TestTracedRunReportsEveryLayer(t *testing.T) {
	// join_cold and ingest_mix between them take both branches of the
	// traced run: cold engine samples against warm ones, full corpus
	// against small.
	for _, w := range []string{"join_cold", "ingest_mix"} {
		w := w
		t.Run(w, func(t *testing.T) {
			cfg := testConfig(t, w, true)
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("in phase %q: %v", Phase(), err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, m := range PerLayer {
				if _, ok := res.Metrics[m.Name]; !ok {
					t.Errorf("%s not reported", m.Name)
				}
			}
			if len(res.Metrics) != len(PerLayer) {
				t.Errorf("%d metrics reported, want the %d per-layer ones", len(res.Metrics), len(PerLayer))
			}
			if info, err := os.Stat(cfg.SpanFile); err != nil || info.Size() == 0 {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

func TestSameSeedSameOpsequence(t *testing.T) {
	keys := Keys()
	all := make([]int, len(keys))
	for i := range all {
		all[i] = i
	}
	for _, w := range Workloads {
		a := sequence(w.Name, 11, 1, 400, keys, all)
		b := sequence(w.Name, 11, 1, 400, keys, all)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two different sequences", w.Name)
		}
		if w.Name == "join_cold" {
			continue // a fixed list, the same under every seed by design
		}
		if c := sequence(w.Name, 12, 1, 400, keys, all); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 11 and 12 gave the same sequence", w.Name)
		}
		if c := sequence(w.Name, 11, 0, 400, keys, all); reflect.DeepEqual(a, c) {
			t.Errorf("%s: clients 0 and 1 got the same sequence", w.Name)
		}
	}
	writes := 0
	for _, op := range sequence("ingest_mix", 11, 0, 1000, keys, all) {
		if len(op) > 4 && op[:4] == "POST" {
			writes++
		}
	}
	if writes != 100 {
		t.Errorf("%d writes in 1000 ops of ingest_mix, want 100", writes)
	}
}

func TestFortyKeysThirtyColdOps(t *testing.T) {
	if n := len(Keys()); n != 40 {
		t.Errorf("%d keys, want 40", n)
	}
	cold := ColdOps()
	if len(cold) != 30 {
		t.Fatalf("%d cold ops, want 30", len(cold))
	}
	algos := map[string]bool{}
	for _, k := range cold[20:] {
		algos[k.Algo] = true
	}
	if len(algos) != 10 {
		t.Errorf("%d pinned algorithms, want 10", len(algos))
	}
}

// sequence returns the first n ops of client's stream in a printable form.
func sequence(workload string, seed int64, client, n int, keys []Key, answerable []int) []string {
	if workload == "join_cold" {
		var out []string
		for i := 0; i < n; i++ {
			out = append(out, ColdOps()[i%len(ColdOps())].URL())
		}
		return out
	}
	s := newStream(workload, seed, client, keys, answerable)
	out := make([]string, n)
	for i := range out {
		o := s.next()
		if o.write == nil {
			out[i] = keys[o.key].URL()
			continue
		}
		var parts []string
		for _, w := range o.write.ops {
			parts = append(parts, w.Op+" "+w.Doc+" "+w.XML)
		}
		out[i] = "POST /ingest " + strings.Join(parts, "; ")
	}
	return out
}
