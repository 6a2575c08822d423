package bench

import (
	"math"
	"math/rand"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0.5, 5}, {0.99, 10}, {0.9, 9}, {0.91, 10}, {0.1, 1}, {0.001, 1}, {1, 10},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// The expected spreads are statistics.quantiles(values, n=4) of Python 3.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	for _, c := range []struct {
		values []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 12, 11, 15, 14, 13, 19, 10.5, 12.5, 11.5}, 10.875, 14.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 7}, 4.5, 7.5},
	} {
		want := (c.q3 - c.q1) / median(c.values)
		if got := quartileSpread(c.values); math.Abs(got-want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.values, got, want)
		}
	}
	if got := quartileSpread([]float64{4}); got != 0 {
		t.Errorf("one value spreads %v, want 0", got)
	}
}

func TestPerOpNormalisation(t *testing.T) {
	if got := perOp(300, 120); got != 2.5 {
		t.Errorf("perOp(300, 120) = %v", got)
	}
	if got := perOp(300, 0); got != 0 {
		t.Errorf("perOp with no ops = %v, want 0", got)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio(1, 0) = %v, want 0", got)
	}
}

func TestZipfFollowsThePowerLaw(t *testing.T) {
	const n, s, draws = 40, 1.1, 400000
	z := newZipf(n, s)
	if z.rank(0) != 0 || z.rank(0.999999999) != n-1 {
		t.Fatalf("ends map to ranks %d and %d", z.rank(0), z.rank(0.999999999))
	}
	rng := rand.New(rand.NewSource(7))
	counts := make([]float64, n)
	for i := 0; i < draws; i++ {
		counts[z.draw(rng)]++
	}
	var norm float64
	for r := 0; r < n; r++ {
		norm += 1 / math.Pow(float64(r+1), s)
	}
	for _, r := range []int{0, 1, 4, 19, 39} {
		want := draws / math.Pow(float64(r+1), s) / norm
		if math.Abs(counts[r]-want) > 5*math.Sqrt(want) {
			t.Errorf("rank %d drawn %v times, want about %v", r, counts[r], want)
		}
	}
}
