package containment

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/pbitree/pbitree/pbicode"
)

func TestExplain(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	e, err := NewEngine(Config{PageSize: 512, BufferPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	a, _ := e.Load("A", randCodes(rng, 3000, 12))
	d, _ := e.Load("D", randCodes(rng, 3000, 12))
	plan := e.Explain(a, d, Spec{})
	if len(plan) < 5 {
		t.Fatalf("plan entries = %d", len(plan))
	}
	// Sorted by predicted cost; exactly one chosen; chosen is among the
	// cheapest (Table 1 breaks ties).
	chosen := 0
	for i, p := range plan {
		if i > 0 && p.PredictedIO < plan[i-1].PredictedIO {
			t.Fatal("plan not sorted")
		}
		if p.Chosen {
			chosen++
			if p.PredictedIO != plan[0].PredictedIO {
				t.Fatalf("chosen %s is not cheapest", p.Algorithm)
			}
		}
	}
	if chosen != 1 {
		t.Fatalf("chosen count = %d", chosen)
	}
	// The rendered table mentions the inputs and the winner.
	s := e.ExplainString(a, d, Spec{})
	if !strings.Contains(s, "pages") || !strings.Contains(s, "*") {
		t.Fatalf("ExplainString = %q", s)
	}
	// AUTO runs exactly the explained choice.
	res, err := e.Join(a, d, JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plan {
		if p.Chosen && p.Algorithm != res.Algorithm {
			t.Fatalf("explained %s, ran %s", p.Algorithm, res.Algorithm)
		}
	}
}

func TestEngineAccessors(t *testing.T) {
	e, err := NewEngine(Config{PageSize: 512, BufferPages: 24})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.PoolSize() != 24 || e.PageSize() != 512 {
		t.Fatalf("accessors: %d, %d", e.PoolSize(), e.PageSize())
	}
	r, err := e.Load("named", []pbicode.Code{5})
	if err != nil {
		t.Fatal(err)
	}
	if r.Name() != "named" {
		t.Fatalf("Name = %q", r.Name())
	}
	if e.TreeHeight() < 3 {
		t.Fatalf("TreeHeight = %d", e.TreeHeight())
	}
	io := e.IOStats()
	if io.Reads < 0 || io.Writes < 0 {
		t.Fatal("nonsense IOStats")
	}
}

func TestJoinRegionNative(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	aCodes := randCodes(rng, 800, 12)
	dCodes := randCodes(rng, 800, 12)
	e, err := NewEngine(Config{PageSize: 512, BufferPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	a, _ := e.Load("A", aCodes)
	d, _ := e.Load("D", dCodes)
	native, err := e.JoinRegionNative(a, d)
	if err != nil {
		t.Fatal(err)
	}
	adapted, err := e.Join(a, d, JoinOptions{Algorithm: StackTree})
	if err != nil {
		t.Fatal(err)
	}
	if native.Count != adapted.Count {
		t.Fatalf("native %d vs adapted %d pairs", native.Count, adapted.Count)
	}
	if native.Algorithm != "STACKTREE-REGION" {
		t.Fatalf("Algorithm = %s", native.Algorithm)
	}
}

func TestExplainSingleHeight(t *testing.T) {
	e, err := NewEngine(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	a, _ := e.Load("A", randCodesFixedHeight(200, 3, 10))
	d, _ := e.Load("D", randCodesFixedHeight(200, 0, 10))
	plan := e.Explain(a, d, Spec{})
	found := false
	for _, p := range plan {
		if p.Algorithm == "SHCJ" {
			found = true
			// It ties the other partitioning joins, and Table 1 picks it.
			if !p.Chosen || p.PredictedIO != plan[0].PredictedIO {
				t.Fatalf("SHCJ not chosen at the least cost: %+v", plan)
			}
		}
	}
	if !found {
		t.Fatal("SHCJ missing from a single-height plan")
	}
	if res, err := e.Join(a, d, JoinOptions{}); err != nil || res.Algorithm != "SHCJ" {
		t.Fatalf("AUTO ran %v (%v), Explain starred SHCJ", res, err)
	}
}

// TestAutoRunsWhatExplainStars is the matrix of one AUTO: inputs ordered or
// shuffled, ancestors at one height or many, fitting the pool or spilling
// it, with persistent indexes or without. In every cell the row Explain
// stars is what Join runs under Auto, with the oracle's pairs, and it is
// Table 1's pick wherever that pick is among the cheapest.
func TestAutoRunsWhatExplainStars(t *testing.T) {
	const h, b = 16, 16
	rng := rand.New(rand.NewSource(52))
	for _, ordered := range []bool{true, false} {
		for _, single := range []bool{true, false} {
			for _, spills := range []bool{true, false} {
				for _, indexed := range []bool{true, false} {
					n := 200 // fits the 14 pages of working memory: 434 records
					if spills {
						n = 3000
					}
					aCodes := randCodes(rng, n, h)
					if single {
						aCodes = randCodesFixedHeight(n, 3, h)
					}
					aOrd, aShuf := docOrdered(t, rng, aCodes)
					dOrd, dShuf := docOrdered(t, rng, randCodes(rng, n, h))
					if !ordered {
						aOrd, dOrd = aShuf, dShuf
					}
					cell := fmt.Sprintf("ordered %v, single height %v, spills %v, indexed %v", ordered, single, spills, indexed)
					e, err := NewEngine(Config{PageSize: 512, BufferPages: b})
					if err != nil {
						t.Fatal(err)
					}
					a, _ := e.Load("A", aOrd)
					d, _ := e.Load("D", dOrd)
					if indexed {
						if err := e.BuildStartIndex(a); err != nil {
							t.Fatal(err)
						}
						if err := e.BuildStartIndex(d); err != nil {
							t.Fatal(err)
						}
					}
					// Table 1's row: inputs stored in document order are
					// sorted ones.
					table1 := "MHCJ+Rollup"
					switch {
					case ordered && indexed:
						table1 = "ADB+"
					case ordered:
						table1 = "STACKTREE"
					case indexed:
						table1 = "INLJN"
					case single:
						table1 = "SHCJ"
					case spills:
						table1 = "VPJ"
					}
					starred, ruleIO := "", int64(-1)
					plan := e.Explain(a, d, Spec{})
					for _, p := range plan {
						if p.Chosen {
							starred = p.Algorithm
						}
						if p.Algorithm == table1 {
							ruleIO = p.PredictedIO
						}
					}
					if ruleIO == plan[0].PredictedIO && starred != table1 {
						t.Errorf("%s: Explain stars %s, Table 1's %s is among the cheapest:\n%s", cell, starred, table1, e.ExplainString(a, d, Spec{}))
					}
					res, err := e.Join(a, d, JoinOptions{})
					if err != nil {
						t.Fatal(err)
					}
					want, err := e.Join(a, d, JoinOptions{Algorithm: NestedLoop})
					if err != nil {
						t.Fatal(err)
					}
					if res.Algorithm != starred || res.Count != want.Count {
						t.Errorf("%s: AUTO ran %s for %d pairs, Explain starred %s, the oracle has %d", cell, res.Algorithm, res.Count, starred, want.Count)
					}
					e.Close()
				}
			}
		}
	}
}

// TestAutoNamedPlans pins AUTO on the two shapes where the cost model and
// Table 1 meet on the benchmark's corpus. D4's shape: inputs stored in
// document order that spill the pool in records but not in packed pages,
// so that the partitioning joins and STACKTREE all read ‖A‖+‖D‖ once —
// Table 1 breaks the three-way tie for its sorted row, STACKTREE. D7's shape: ordered inputs
// whose partitions would spill too, where STACKTREE's one merge is
// cheapest and runs without sorting.
func TestAutoNamedPlans(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		want string
		tied int
	}{
		{"D4-shaped tie", 2000, "STACKTREE", 3},
		{"D7-shaped spill", 6000, "STACKTREE", 1},
	} {
		rng := rand.New(rand.NewSource(int64(tc.n)))
		aCodes, _ := docOrdered(t, rng, randCodes(rng, tc.n, 16))
		dCodes, _ := docOrdered(t, rng, randCodes(rng, tc.n, 16))
		e, err := NewEngine(Config{PageSize: 512, BufferPages: 64})
		if err != nil {
			t.Fatal(err)
		}
		a, _ := e.Load("A", aCodes)
		d, _ := e.Load("D", dCodes)
		plan := e.Explain(a, d, Spec{})
		tied := 0
		for _, p := range plan {
			if p.PredictedIO == plan[0].PredictedIO {
				tied++
			}
		}
		if tied != tc.tied || plan[0].PredictedIO != a.Pages()+d.Pages() {
			t.Fatalf("%s: %d candidates at the least cost %d, want %d at ‖A‖+‖D‖ = %d:\n%s",
				tc.name, tied, plan[0].PredictedIO, tc.tied, a.Pages()+d.Pages(), e.ExplainString(a, d, Spec{}))
		}
		if err := e.DropCache(); err != nil {
			t.Fatal(err)
		}
		an, err := e.Analyze(a, d, JoinOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if an.Result.Algorithm != tc.want {
			t.Fatalf("%s: AUTO ran %s, want %s", tc.name, an.Result.Algorithm, tc.want)
		}
		for _, p := range an.Phases {
			if strings.HasPrefix(p.Name, "sort") {
				t.Fatalf("%s: AUTO sorted an ordered input (phase %s)", tc.name, p.Name)
			}
		}
		e.Close()
	}
}
