package relation_test

import (
	"testing"

	"github.com/pbitree/pbitree/internal/relation"
)

// benchRecs is the shape of a stored tag relation: ascending codes a few
// hundred apart, Aux = ordinal.
func benchRecs(n int) []Rec { return sortedRecs(n, 1000, 7) }

// BenchmarkScan measures the per-record scan cost on a fully resident
// relation — the hot path of every partition pass and merge join. The
// page-at-a-time decode keeps Next allocation-free after the first pass
// (the Scanner is Reset, not reallocated).
func BenchmarkScan(b *testing.B) {
	for _, format := range formats {
		b.Run(format, func(b *testing.B) {
			r := store(b, newPool(b, 4096, 512), "bench", format, benchRecs(100_000))
			var s relation.Scanner
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Reset(r)
				var sum uint64
				for s.Next() {
					sum += s.Rec().Aux
				}
				if s.Err() != nil {
					b.Fatal(s.Err())
				}
				if sum == 0 {
					b.Fatal("empty scan")
				}
			}
		})
	}
}

// BenchmarkBatchScan is the slab counterpart of BenchmarkScan: whole pages
// decoded into []uint64 columns, summed in a tight loop. Per format it is
// the price of one decoder; a packed page costs at most 1.5 times a fixed
// one per record and amortises a page's fetch over five times the records.
func BenchmarkBatchScan(b *testing.B) {
	for _, format := range formats {
		b.Run(format, func(b *testing.B) {
			r := store(b, newPool(b, 4096, 512), "bench", format, benchRecs(100_000))
			var s relation.BatchScanner
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Reset(r)
				var sum uint64
				for s.Next() {
					for _, a := range s.Aux() {
						sum += a
					}
				}
				if s.Err() != nil {
					b.Fatal(s.Err())
				}
				if sum == 0 {
					b.Fatal("empty scan")
				}
			}
		})
	}
}

// BenchmarkAppend measures the write side per record: buffering, sizing and
// encoding packed pages against storing fixed-width records in place.
func BenchmarkAppend(b *testing.B) {
	recs := benchRecs(100_000)
	for _, format := range []string{"fixed", "packed"} {
		b.Run(format, func(b *testing.B) {
			pool := newPool(b, 4096, 512)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := relation.New(pool, "bench")
				r.SetPaperLayout(format == "fixed")
				if err := r.Append(recs...); err != nil {
					b.Fatal(err)
				}
				if err := r.Free(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestScanAllocFree asserts the resettable scanners stay allocation-free
// across passes — the fix for per-call Scanner churn inside join inner
// loops (blockEquiJoin rescans the probe side once per block) — in every
// format: a packed page decodes five times the records of a fixed one into
// the same slab.
func TestScanAllocFree(t *testing.T) {
	for _, format := range formats {
		t.Run(format, func(t *testing.T) {
			r := store(t, newPool(t, 4096, 64), "allocs", format, benchRecs(10_000))
			if format != "fixed" && r.NumRecords()/r.NumPages() <= int64(relation.PerPage(4096)) {
				t.Fatalf("%d pages: no denser than the fixed layout", r.NumPages())
			}
			var s relation.Scanner
			var bs relation.BatchScanner
			var sum uint64
			// Warm up once so the decode buffers exist.
			s.Reset(r)
			for s.Next() {
				sum += s.Rec().Aux
			}
			bs.Reset(r)
			for bs.Next() {
				sum += uint64(len(bs.Codes()))
			}
			if got := testing.AllocsPerRun(10, func() {
				s.Reset(r)
				for s.Next() {
					sum += s.Rec().Aux
				}
			}); got != 0 {
				t.Fatalf("Scanner.Reset pass allocates %v per run, want 0", got)
			}
			if got := testing.AllocsPerRun(10, func() {
				bs.Reset(r)
				for bs.Next() {
					for _, a := range bs.Aux() {
						sum += a
					}
				}
			}); got != 0 {
				t.Fatalf("BatchScanner.Reset pass allocates %v per run, want 0", got)
			}
			if sum == 0 {
				t.Fatal("empty scans")
			}
		})
	}
}
