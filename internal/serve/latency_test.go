package serve

import (
	"io"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// referenceQuantile is the plain window quantile: copy the retained
// samples, sort.Slice, nearest rank.
func referenceQuantile(samples []time.Duration, q float64) time.Duration {
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return Percentile(sorted, q)
}

// TestQuantileMatchesReference fills windows with random latencies —
// empty, partly full, full, and wrapped several times over — and requires
// every quantile the hedging delay and /stats read to equal the
// copy-and-sort reference over the samples the ring retains.
func TestQuantileMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const window = 64
	for _, n := range []int{0, 1, 2, 17, window - 1, window, window + 1, 5*window + 3} {
		l := NewLatency(window)
		var all []time.Duration
		for i := 0; i < n; i++ {
			d := time.Duration(rng.ExpFloat64() * float64(time.Millisecond))
			l.Observe(d, "")
			all = append(all, d)
		}
		retained := all
		if len(all) > window {
			retained = all[len(all)-window:]
		}
		for _, q := range []float64{0.01, 0.5, 0.95, 0.99, 1} {
			if got, want := l.Quantile(q), referenceQuantile(retained, q); got != want {
				t.Errorf("n=%d q=%v: Quantile = %v, reference %v", n, q, got, want)
			}
		}
		s := l.Snapshot()
		if s.Samples != len(retained) ||
			s.P50US != referenceQuantile(retained, 0.50).Microseconds() ||
			s.P99US != referenceQuantile(retained, 0.99).Microseconds() ||
			s.MaxUS != referenceQuantile(retained, 1).Microseconds() {
			t.Errorf("n=%d: Snapshot = %+v", n, s)
		}
		// A quantile read must not disturb the ring: the next one agrees.
		if got, want := l.Quantile(0.95), referenceQuantile(retained, 0.95); got != want {
			t.Errorf("n=%d: second Quantile = %v, reference %v", n, got, want)
		}
	}
}

// TestQuantileAllocFree holds the hedging quantile, computed per shard
// call, to zero allocations once the window's scratch exists.
func TestQuantileAllocFree(t *testing.T) {
	l := NewLatency(2048)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 3000; i++ {
		l.Observe(time.Duration(rng.ExpFloat64()*float64(time.Millisecond)), "")
	}
	l.Quantile(0.95) // warm-up: allocates the scratch
	if n := testing.AllocsPerRun(20, func() { l.Quantile(0.95) }); n != 0 {
		t.Fatalf("Quantile allocates %v objects per call, want 0", n)
	}
}

// TestQuantileRefresh: once the window holds quantileRefresh samples,
// Quantile keeps the value of its last sort until quantileRefresh new
// samples arrive — calls in between, with or without new samples, return
// it — and then equals a fresh sort of the window again.
func TestQuantileRefresh(t *testing.T) {
	const window = 2048
	l := NewLatency(window)
	rng := rand.New(rand.NewSource(3))
	var all []time.Duration
	observe := func(d time.Duration) {
		l.Observe(d, "")
		all = append(all, d)
	}
	for i := 0; i < 3000; i++ {
		observe(time.Duration(rng.ExpFloat64() * float64(time.Millisecond)))
	}
	const q = 0.99
	cached := l.Quantile(q)
	if want := referenceQuantile(all[len(all)-window:], q); cached != want {
		t.Fatalf("Quantile = %v, reference %v", cached, want)
	}
	for i := 0; i < 3; i++ {
		if got := l.Quantile(q); got != cached {
			t.Fatalf("no new samples: Quantile = %v, want the cached %v", got, cached)
		}
	}
	// Samples far above the window's 99th percentile: enough of them to
	// move it, but the cache holds until quantileRefresh have arrived.
	for i := 0; i < quantileRefresh-1; i++ {
		observe(time.Hour)
		if got := l.Quantile(q); got != cached {
			t.Fatalf("%d new samples: Quantile = %v, want the cached %v", i+1, got, cached)
		}
	}
	observe(time.Hour)
	want := referenceQuantile(all[len(all)-window:], q)
	if want == cached {
		t.Fatal("the new samples did not move the reference quantile")
	}
	if got := l.Quantile(q); got != want {
		t.Fatalf("after %d new samples: Quantile = %v, want a fresh sort's %v", quantileRefresh, got, want)
	}
}

// TestLatencyConcurrent races observers (the request paths) against the
// readers (hedging, /stats, /metrics); run under -race.
func TestLatencyConcurrent(t *testing.T) {
	l := NewLatency(128)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				l.Observe(time.Duration(g*1000+i)*time.Microsecond, "t")
			}
		}(g)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				l.Quantile(0.95)
				l.Snapshot()
				l.WriteHistogram(io.Discard, "h", "", true)
			}
		}()
	}
	wg.Wait()
	if s := l.Snapshot(); s.Samples != 128 {
		t.Fatalf("samples = %d, want the full window of 128", s.Samples)
	}
}

// BenchmarkQuantile times one hedging-delay quantile over a full router
// window of exponential samples.
func BenchmarkQuantile(b *testing.B) {
	l := NewLatency(2048)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2048; i++ {
		l.Observe(time.Duration(rng.ExpFloat64()*float64(time.Millisecond)), "")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = l.Quantile(0.95)
	}
}

var sink time.Duration
