package containment

import (
	"context"
	"math/rand"
	"strings"
	"testing"
)

// TestJoinParallelMatchesSerial is the public-API equivalence property:
// Config.Parallel must change nothing about the answer. Every
// algorithm (the fan-out ones, Auto's dispatch, and the sort-backed
// baselines whose external sorts parallelize) is run at degrees 1, 2 and 8
// against its serial result on randomized multi-height inputs.
func TestJoinParallelMatchesSerial(t *testing.T) {
	for seed := int64(0); seed < 2; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		aCodes := randCodes(rng, 500+rng.Intn(400), 12)
		dCodes := randCodes(rng, 500+rng.Intn(600), 12)
		want := oracle(aCodes, dCodes)
		for _, alg := range []Algorithm{
			Auto, NestedLoop, MHCJ, MHCJRollup, VPJ, INLJN, StackTree, StackTreeAnc, MPMGJN, ADBPlus,
		} {
			for _, degree := range []int{1, 2, 8} {
				e, err := NewEngine(Config{PageSize: 512, BufferPages: 32, Parallel: degree})
				if err != nil {
					t.Fatal(err)
				}
				a, err := e.Load("A", aCodes)
				if err != nil {
					t.Fatal(err)
				}
				d, err := e.Load("D", dCodes)
				if err != nil {
					t.Fatal(err)
				}
				res, err := e.Join(a, d, JoinOptions{Algorithm: alg, Collect: true})
				if err != nil {
					t.Fatalf("%v(parallel=%d): %v", alg, degree, err)
				}
				sortPairs(res.Pairs)
				if len(res.Pairs) != len(want) {
					t.Fatalf("%v(parallel=%d): %d pairs, want %d", alg, degree, len(res.Pairs), len(want))
				}
				for i := range want {
					if res.Pairs[i] != want[i] {
						t.Fatalf("%v(parallel=%d): pair %d mismatch", alg, degree, i)
					}
				}
				if res.Count != int64(len(want)) {
					t.Fatalf("%v(parallel=%d): Count = %d, want %d", alg, degree, res.Count, len(want))
				}
				if err := e.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestEngineConfigParallelDefault checks that a Config.Parallel degree
// applies to every join of the engine, each still producing the serial
// answer.
func TestEngineConfigParallelDefault(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	aCodes := randCodes(rng, 600, 12)
	dCodes := randCodes(rng, 700, 12)
	want := oracle(aCodes, dCodes)
	e, err := NewEngine(Config{PageSize: 512, BufferPages: 32, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	a, err := e.Load("A", aCodes)
	if err != nil {
		t.Fatal(err)
	}
	d, err := e.Load("D", dCodes)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []JoinOptions{
		{Algorithm: MHCJ},
		{Algorithm: VPJ},
	} {
		n, err := Count(aCodes, dCodes)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(len(want)) {
			t.Fatalf("oracle premise: %d", n)
		}
		res, err := e.Join(a, d, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if res.Count != int64(len(want)) {
			t.Fatalf("%+v: Count = %d, want %d", opts, res.Count, len(want))
		}
	}
}

// TestAnalyzeParallel runs EXPLAIN ANALYZE through a parallel join: the
// span tree must contain the per-worker fan-out spans and the rendered
// table must still account every phase (no panic on merged traces).
func TestAnalyzeParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	aCodes := randCodes(rng, 800, 12)
	dCodes := randCodes(rng, 900, 12)
	e, err := NewEngine(Config{PageSize: 512, BufferPages: 32, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	a, err := e.Load("A", aCodes)
	if err != nil {
		t.Fatal(err)
	}
	d, err := e.Load("D", dCodes)
	if err != nil {
		t.Fatal(err)
	}
	an, err := e.Analyze(a, d, JoinOptions{Algorithm: MHCJ})
	if err != nil {
		t.Fatal(err)
	}
	var sawFanOut bool
	for _, p := range an.Phases {
		if p.Name == "equijoin" && strings.HasPrefix(p.Detail, "h=") {
			sawFanOut = true
		}
	}
	if !sawFanOut {
		t.Error("no per-height equijoin spans in the parallel analyze tree")
	}
	table := an.Table()
	if !strings.Contains(table, "equijoin") {
		t.Errorf("analyze table missing fan-out phase:\n%s", table)
	}
	if an.Result.Count == 0 {
		t.Error("analyze lost the pair count")
	}
}

// TestJoinParallelCancellation cancels a parallel join via its Go context
// mid-flight; the engine must come back usable and the next join must be
// whole.
func TestJoinParallelCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	aCodes := randCodes(rng, 2000, 14)
	dCodes := randCodes(rng, 2500, 14)
	e, err := NewEngine(Config{PageSize: 512, BufferPages: 32, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	a, err := e.Load("A", aCodes)
	if err != nil {
		t.Fatal(err)
	}
	d, err := e.Load("D", dCodes)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var once bool
	_, err = e.JoinContext(ctx, a, d, JoinOptions{Algorithm: VPJ, Emit: func(Pair) error {
		if !once {
			once = true
			cancel()
		}
		return nil
	}})
	cancel()
	if err == nil {
		t.Skip("join finished before the cancel landed")
	}
	if got := Classify(err); got != FailCanceled {
		t.Fatalf("Classify = %v (%v), want FailCanceled", got, err)
	}
	// The engine survives: a fresh join over the same relations is exact.
	res, err := e.Join(a, d, JoinOptions{Algorithm: VPJ})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Count(aCodes, dCodes)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want {
		t.Fatalf("post-cancel join Count = %d, want %d", res.Count, want)
	}
}
