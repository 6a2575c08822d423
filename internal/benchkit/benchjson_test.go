package benchkit

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func entry(date int64, values map[string]float64) BenchEntry {
	e := BenchEntry{Date: date, Tool: "go", Commit: BenchCommit{ID: "abc"}}
	for name, v := range values {
		e.Benches = append(e.Benches, BenchMetric{Name: name, Value: v, Unit: "ns/op"})
	}
	return e
}

func TestBenchDataAppendRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev", "bench", "data.js")

	// Missing file loads empty.
	d, err := LoadBenchData(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Entries[BenchSuite]) != 0 {
		t.Fatal("fresh payload not empty")
	}

	// Append twice across separate load/save cycles: history must grow,
	// never be overwritten.
	for i := int64(1); i <= 2; i++ {
		d, err := LoadBenchData(path)
		if err != nil {
			t.Fatal(err)
		}
		d.Append(BenchSuite, entry(i, map[string]float64{"batch/mix/fixed": 4e8}))
		if err := d.Save(path); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(raw), "window.BENCHMARK_DATA = {") {
		t.Fatalf("data.js prefix missing: %q", raw[:40])
	}
	d, err = LoadBenchData(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(d.Entries[BenchSuite]); got != 2 {
		t.Fatalf("entries = %d, want 2", got)
	}
	if d.LastUpdate != 2 {
		t.Fatalf("LastUpdate = %d, want 2", d.LastUpdate)
	}
}

func TestCheckRegression(t *testing.T) {
	d := &BenchData{Entries: map[string][]BenchEntry{}}

	// Fewer than two entries: skip, not fail.
	if _, ok := d.CheckRegression(BenchSuite, 15); ok {
		t.Fatal("check ran with no baseline")
	}
	d.Append(BenchSuite, entry(1, map[string]float64{"big": 4e8, "small": 1e7}))
	if _, ok := d.CheckRegression(BenchSuite, 15); ok {
		t.Fatal("check ran with one entry")
	}

	// Second entry: "big" regresses 50%, "small" regresses 10x but sits
	// under the noise floor, "new" has no baseline.
	d.Append(BenchSuite, entry(2, map[string]float64{"big": 6e8, "small": 1e8 - 1, "new": 9e9}))
	regs, ok := d.CheckRegression(BenchSuite, 15)
	if !ok {
		t.Fatal("check skipped with two entries")
	}
	if len(regs) != 1 || regs[0].Name != "big" {
		t.Fatalf("regressions = %+v, want just big", regs)
	}
	if regs[0].Ratio < 1.49 || regs[0].Ratio > 1.51 {
		t.Fatalf("ratio = %v, want 1.5", regs[0].Ratio)
	}

	// Within threshold: clean.
	d.Append(BenchSuite, entry(3, map[string]float64{"big": 6.5e8}))
	if regs, _ := d.CheckRegression(BenchSuite, 15); len(regs) != 0 {
		t.Fatalf("unexpected regressions: %+v", regs)
	}
}

func TestRowsToMetrics(t *testing.T) {
	rows := []Row{{Dataset: "D1", Algorithm: "MHCJ/batch", Elapsed: 250 * time.Millisecond, IOs: 42}}
	ms := RowsToMetrics("batch", rows)
	if len(ms) != 1 {
		t.Fatalf("metrics = %d", len(ms))
	}
	m := ms[0]
	if m.Name != "batch/D1/MHCJ/batch" || m.Unit != "ns/op" || m.Value != 2.5e8 {
		t.Fatalf("metric = %+v", m)
	}
	if !strings.Contains(m.Extra, "pageIO=42") {
		t.Fatalf("extra = %q", m.Extra)
	}
}
