package containment

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/pbitree/pbitree/pbicode"
)

// sumPhases folds the self-attributed phase rows back together.
func sumPhases(phases []PhaseIO) (reads, writes, pairs int64) {
	for _, p := range phases {
		reads += p.Reads
		writes += p.Writes
		pairs += p.Pairs
	}
	return
}

// TestAnalyzeSpanSumsToResultIO verifies the attribution invariant on every
// algorithm: the self-attributed phase costs sum exactly to the join's
// measured IOStats, and the root of the span tree carries the same totals.
func TestAnalyzeSpanSumsToResultIO(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randCodes(rng, 2000, 12)
	d := randCodes(rng, 3000, 12)
	for _, alg := range []Algorithm{
		Auto, NestedLoop, SHCJ, MHCJ, MHCJRollup, VPJ,
		INLJN, StackTree, StackTreeAnc, MPMGJN, ADBPlus,
	} {
		eng, err := NewEngine(Config{BufferPages: 16, DiskCost: DefaultDiskCost})
		if err != nil {
			t.Fatal(err)
		}
		ra, err := eng.Load("A", a)
		if err != nil {
			t.Fatal(err)
		}
		rd, err := eng.Load("D", d)
		if err != nil {
			t.Fatal(err)
		}
		an, err := eng.Analyze(ra, rd, JoinOptions{Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		res := an.Result
		reads, writes, pairs := sumPhases(an.Phases)
		if reads != res.IO.Reads || writes != res.IO.Writes {
			t.Errorf("%s: phase I/O sums to %d reads + %d writes, Result.IO has %d + %d",
				res.Algorithm, reads, writes, res.IO.Reads, res.IO.Writes)
		}
		if pairs != res.Count {
			t.Errorf("%s: phase pairs sum to %d, Result.Count = %d", res.Algorithm, pairs, res.Count)
		}
		var hits, misses int64
		for _, p := range an.Phases {
			hits += p.PoolHits
			misses += p.PoolMisses
		}
		if hits != res.IO.PoolHits || misses != res.IO.PoolMisses || hits+misses == 0 {
			t.Errorf("%s: phase pool counters sum to %d hits + %d misses, Result.IO has %d + %d",
				res.Algorithm, hits, misses, res.IO.PoolHits, res.IO.PoolMisses)
		}
		root := an.SpanTree()
		if root == nil {
			t.Fatalf("%s: no span tree", res.Algorithm)
		}
		if root.Reads != res.IO.Reads || root.Writes != res.IO.Writes || root.Pairs != res.Count {
			t.Errorf("%s: root span %d/%d/%d, Result %d/%d/%d",
				res.Algorithm, root.Reads, root.Writes, root.Pairs,
				res.IO.Reads, res.IO.Writes, res.Count)
		}
		if len(an.Phases) < 2 {
			t.Errorf("%s: only %d phases recorded, want the root plus at least one algorithm phase",
				res.Algorithm, len(an.Phases))
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAnalyzeMatchesJoin verifies recording changes nothing observable:
// Analyze's Result agrees with a plain Join on a fresh engine.
func TestAnalyzeMatchesJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randCodes(rng, 1000, 10)
	d := randCodes(rng, 1500, 10)
	run := func(analyze bool) *Result {
		eng, err := NewEngine(Config{BufferPages: 32, DiskCost: DefaultDiskCost})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		ra, err := eng.Load("A", a)
		if err != nil {
			t.Fatal(err)
		}
		rd, err := eng.Load("D", d)
		if err != nil {
			t.Fatal(err)
		}
		if analyze {
			an, err := eng.Analyze(ra, rd, JoinOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return an.Result
		}
		res, err := eng.Join(ra, rd, JoinOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain, traced := run(false), run(true)
	if plain.Count != traced.Count || plain.Algorithm != traced.Algorithm {
		t.Fatalf("Analyze result diverges: %+v vs %+v", plain, traced)
	}
	if plain.IO.Reads != traced.IO.Reads || plain.IO.Writes != traced.IO.Writes ||
		plain.IO.VirtualTime != traced.IO.VirtualTime {
		t.Fatalf("Analyze I/O diverges: %+v vs %+v", plain.IO, traced.IO)
	}
}

// TestAnalyzeRenderGolden locks the rendered table on a small deterministic
// input. Wall time is excluded (Render(false)); everything else — virtual
// clock, page counts, pool counters, pairs — is deterministic for a fixed
// engine configuration.
func TestAnalyzeRenderGolden(t *testing.T) {
	// Ancestors at two heights, descendants at the leaves of a height-5
	// tree: small enough to read, joined with MHCJ so the table shows the
	// partition and per-height equijoin phases.
	var a, d []pbicode.Code
	for i := uint64(0); i < 8; i++ {
		a = append(a, pbicode.G(i, 3, 5)) // height 2: 8 nodes at level 3
	}
	for i := uint64(0); i < 4; i++ {
		a = append(a, pbicode.G(i, 2, 5)) // height 3: 4 nodes at level 2
	}
	for i := uint64(0); i < 16; i++ {
		d = append(d, pbicode.G(i, 4, 5)) // height 1
	}
	eng, err := NewEngine(Config{BufferPages: 16, DiskCost: DefaultDiskCost})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ra, err := eng.Load("A", a)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := eng.Load("D", d)
	if err != nil {
		t.Fatal(err)
	}
	an, err := eng.Analyze(ra, rd, JoinOptions{Algorithm: MHCJ})
	if err != nil {
		t.Fatal(err)
	}
	got := an.Render(false)
	want := strings.Join([]string{
		"EXPLAIN ANALYZE  algorithm=MHCJ  pairs=32",
		"predicted I/O: 3 pages   actual I/O: 0 pages (0 reads + 0 writes)",
		"PHASE                                 PAGES    READS   WRITES      VIRT-IO  POOL-HIT      PAIRS",
		"join                                      0        0        0           0s         -          0",
		"  partition [heights=2]                   0        0        0           0s    100.0%          0",
		"  equijoin [h=1]                          0        0        0           0s         -          0",
		"    hash-join [build=A]                   0        0        0           0s    100.0%         16",
		"  equijoin [h=2]                          0        0        0           0s         -          0",
		"    hash-join [build=A]                   0        0        0           0s    100.0%         16",
		"TOTAL                                     0        0        0           0s    100.0%         32",
		"",
	}, "\n")
	if got != want {
		t.Errorf("rendered table mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
