package main

import (
	"math/rand"
	"testing"
)

// TestTable1Rows: over inputs really shuffled, sorted and indexed, AUTO
// runs each row's algorithm of the paper's Table 1, and every row gives
// the same pairs.
func TestTable1Rows(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rows, err := table1(buildBibliography(3000, rng), rng)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{
		"neither sorted nor indexed": {"SHCJ", "MHCJ+Rollup", "VPJ"},
		"both sorted":                {"STACKTREE"},
		"both indexed":               {"INLJN"},
		"both sorted and indexed":    {"ADB+"},
	}
	for _, r := range rows {
		ok := false
		for _, alg := range want[r.name] {
			ok = ok || r.res.Algorithm == alg
		}
		if !ok {
			t.Errorf("%s: AUTO ran %s, want one of %v", r.name, r.res.Algorithm, want[r.name])
		}
		if r.res.Count != rows[0].res.Count || r.res.Count == 0 {
			t.Errorf("%s: %d pairs, the first row %d", r.name, r.res.Count, rows[0].res.Count)
		}
	}
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
}
