package pbitree

import (
	"testing"

	"github.com/pbitree/pbitree/containment"
)

// BenchmarkParallelVsSerialJoin times one multi-height containment join
// (plain MHCJ over random code sets spanning every height of a depth-14
// tree, so the per-height fan-out has real units; rollup would collapse
// the partitions into a single equijoin with nothing to fan out) at
// intra-engine degrees 1, 2 and 4 on identical engines. Every degree must produce the same
// pair count (parallel execution is answer-preserving by construction);
// the interesting number is wall time, and the host's core count bounds
// what it can show: with one core the parallel runs measure fan-out
// coordination overhead only. No benchmark workload runs degree > 1, so
// this is the one measurement of it.
func BenchmarkParallelVsSerialJoin(b *testing.B) {
	const h = 16
	aCodes := randomCodes(60000, h)
	dCodes := randomCodes(90000, h)
	var want int64 = -1
	check := func(b *testing.B, count int64) {
		b.Helper()
		if want < 0 {
			want = count
		} else if count != want {
			b.Fatalf("pair count %d, want %d", count, want)
		}
	}
	for _, bench := range []struct {
		name   string
		degree int
	}{
		{"serial", 0},
		{"parallel-2", 2},
		{"parallel-4", 4},
	} {
		b.Run(bench.name, func(b *testing.B) {
			eng, err := containment.NewEngine(containment.Config{
				BufferPages: 512, PageSize: 1024, TreeHeight: h,
				Parallel: bench.degree,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			a, err := eng.Load("A", aCodes)
			if err != nil {
				b.Fatal(err)
			}
			d, err := eng.Load("D", dCodes)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := eng.Join(a, d, containment.JoinOptions{Algorithm: containment.MHCJ})
				if err != nil {
					b.Fatal(err)
				}
				check(b, res.Count)
			}
		})
	}
}
