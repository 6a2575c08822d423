// Package containment is the public interface to the containment join
// engine: given sets of PBiTree-coded elements (typically produced by
// xmltree from an XML document), it evaluates the containment join
// A ◁ D — all pairs (a, d) with a a proper ancestor of d — using the
// algorithm framework of the paper (Table 1): the partitioning algorithms
// SHCJ / MHCJ+Rollup / VPJ when inputs are neither sorted nor indexed, and
// the adapted classics (stack-tree, MPMGJN, index nested loop, ADB+)
// otherwise.
//
// Two entry points exist: the standalone functions (Join, Count) evaluate
// in memory and suit query-sized inputs; the Engine runs joins against a
// paged storage substrate with an explicit buffer budget, page-level I/O
// accounting and a virtual disk clock — the configuration the paper's
// experiments measure.
package containment

import (
	"sort"
	"strings"

	"github.com/pbitree/pbitree/pbicode"
)

// Pair is one join result: A is a proper ancestor of D.
type Pair struct {
	A pbicode.Code
	D pbicode.Code
}

// Algorithm selects a containment join algorithm. Auto prices the
// framework's Table 1 candidates with the §3.4 cost model (see
// Engine.Explain).
type Algorithm int

// The framework's algorithms.
const (
	Auto Algorithm = iota
	// NestedLoop is the naive block nested loop (no requirements; the
	// baseline of last resort).
	NestedLoop
	// SHCJ is the single-height containment join (Algorithm 2): requires
	// every ancestor element at one PBiTree height; no sorting or index.
	SHCJ
	// MHCJ is the multiple-height containment join (Algorithm 3).
	MHCJ
	// MHCJRollup is MHCJ with the rollup technique (Algorithm 4), the
	// paper's preferred horizontal algorithm.
	MHCJRollup
	// VPJ is the vertical partitioning join (Algorithm 5).
	VPJ
	// INLJN is the index nested loop join, building the inner index on
	// the fly when absent.
	INLJN
	// StackTree is the stack-tree-desc join, sorting unsorted inputs on
	// the fly; output ordered by descendant.
	StackTree
	// StackTreeAnc is the stack-tree-anc join; output ordered by ancestor.
	StackTreeAnc
	// MPMGJN is the multi-predicate merge join baseline.
	MPMGJN
	// ADBPlus is the index-assisted stack-tree join (Anc_Des_B+).
	ADBPlus
)

// String returns the paper's name for the algorithm.
func (a Algorithm) String() string { return coreAlg(a).String() }

// algorithmNames maps the short CLI/API names to algorithms — the one
// vocabulary every front end (pbiquery, pbijoin, pbidb, qserv) accepts.
var algorithmNames = map[string]Algorithm{
	"auto":      Auto,
	"nlj":       NestedLoop,
	"shcj":      SHCJ,
	"mhcj":      MHCJ,
	"rollup":    MHCJRollup,
	"vpj":       VPJ,
	"inljn":     INLJN,
	"stacktree": StackTree,
	"stackanc":  StackTreeAnc,
	"mpmgjn":    MPMGJN,
	"adb":       ADBPlus,
}

// ParseAlgorithm resolves a short algorithm name (case-insensitive; the
// empty string means Auto). The boolean reports whether the name is known.
func ParseAlgorithm(name string) (Algorithm, bool) {
	if name == "" {
		return Auto, true
	}
	a, ok := algorithmNames[strings.ToLower(name)]
	return a, ok
}

// AlgorithmNames returns the accepted short algorithm names, sorted — for
// usage strings and error messages.
func AlgorithmNames() []string {
	names := make([]string, 0, len(algorithmNames))
	for n := range algorithmNames {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Join evaluates the containment join of two code sets in memory and
// returns the result pairs (order unspecified). TreeHeight-dependent
// algorithms infer the height from the largest code seen.
func Join(a, d []pbicode.Code) ([]Pair, error) {
	e, err := NewEngine(Config{})
	if err != nil {
		return nil, err
	}
	defer e.Close()
	ra, err := e.Load("A", a)
	if err != nil {
		return nil, err
	}
	rd, err := e.Load("D", d)
	if err != nil {
		return nil, err
	}
	res, err := e.Join(ra, rd, JoinOptions{Collect: true})
	if err != nil {
		return nil, err
	}
	return res.Pairs, nil
}

// Count evaluates the containment join and returns only the number of
// result pairs.
func Count(a, d []pbicode.Code) (int64, error) {
	e, err := NewEngine(Config{})
	if err != nil {
		return 0, err
	}
	defer e.Close()
	ra, err := e.Load("A", a)
	if err != nil {
		return 0, err
	}
	rd, err := e.Load("D", d)
	if err != nil {
		return 0, err
	}
	res, err := e.Join(ra, rd, JoinOptions{})
	if err != nil {
		return 0, err
	}
	return res.Count, nil
}

// IsAncestor reports whether a properly contains d — re-exported from
// pbicode for callers that only import this package.
func IsAncestor(a, d pbicode.Code) bool { return pbicode.IsAncestor(a, d) }
