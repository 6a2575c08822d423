package core

import (
	"fmt"

	"github.com/pbitree/pbitree/internal/relation"
)

// This file implements the paper's containment query processing framework
// (section 3.5, Table 1): given what is known about the inputs — sorted?
// indexed? — choose the algorithm. The table's bottom-right cell, inputs
// neither sorted nor indexed, is where the paper's new partitioning
// algorithms win; everything else routes to the adapted classics.

// Algorithm names a containment join algorithm of the framework.
type Algorithm int

// The framework's algorithms.
const (
	AlgAuto Algorithm = iota // let the framework choose (Choose)
	AlgNestedLoop
	AlgSHCJ // requires a single-height ancestor set
	AlgMHCJ
	AlgMHCJRollup
	AlgVPJ
	AlgINLJN
	AlgStackTree // sorts on the fly when inputs are unsorted
	AlgMPMGJN
	AlgADBPlus
	AlgStackTreeAnc
)

// String returns the conventional name used in the paper.
func (a Algorithm) String() string {
	switch a {
	case AlgAuto:
		return "AUTO"
	case AlgNestedLoop:
		return "NLJ"
	case AlgSHCJ:
		return "SHCJ"
	case AlgMHCJ:
		return "MHCJ"
	case AlgMHCJRollup:
		return "MHCJ+Rollup"
	case AlgVPJ:
		return "VPJ"
	case AlgINLJN:
		return "INLJN"
	case AlgStackTree:
		return "STACKTREE"
	case AlgMPMGJN:
		return "MPMGJN"
	case AlgADBPlus:
		return "ADB+"
	case AlgStackTreeAnc:
		return "STACKTREE-ANC"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// InputSpec describes what the optimizer knows about the join inputs.
type InputSpec struct {
	// SortedA / SortedD: the inputs are already in document order.
	SortedA, SortedD bool
	// IndexedA / IndexedD: persistent Start indexes exist on the inputs.
	IndexedA, IndexedD bool
}

// Plan is AUTO's view of one join: the candidates it priced, Algs[:N],
// with their section 3.4 page I/O estimates IO[:N] — fixed arrays, so that
// choosing allocates nothing — and Chosen, the one it runs.
type Plan struct {
	Chosen Algorithm
	Algs   [6]Algorithm
	IO     [6]int64
	N      int
}

// Choose is AUTO, the cost-based optimizer the paper's section 6 names as
// the next step: it prices Table 1's candidates with the section 3.4 cost
// model and runs Table 1's own choice whenever that is among the cheapest,
// the cheapest candidate (the first of equals) otherwise. The candidates
// are SHCJ when the ancestor set is single-height, MHCJ+Rollup, VPJ when
// the tree height is known, STACKTREE, ADB+ and INLJN. The model prices an
// input stored in document order (relation.Ordered) without its sort, and
// the caller's spec reports such an input as sorted (containment folds
// the bit into SortedA/SortedD), so Table 1 takes its sorted row for two
// of them: STACKTREE, priced at the ‖A‖+‖D‖ of its merge, which no
// candidate undercuts. Table 1 breaks the model's ties, which page counts
// cannot.
func Choose(ctx *Context, spec InputSpec, a, d *relation.Relation) Plan {
	in := Gather(ctx, spec, a, d)
	rule := table1(ctx, spec, a, d)
	var p Plan
	best := 0
	for _, alg := range [...]Algorithm{AlgSHCJ, AlgMHCJRollup, AlgVPJ, AlgStackTree, AlgADBPlus, AlgINLJN} {
		if alg == AlgSHCJ && !ctx.singleHeightA() || alg == AlgVPJ && ctx.TreeHeight <= 0 {
			continue
		}
		p.Algs[p.N], p.IO[p.N] = alg, EstimateIO(alg, in)
		if io := p.IO[p.N]; io < p.IO[best] || io == p.IO[best] && alg == rule {
			best = p.N
		}
		p.N++
	}
	p.Chosen = p.Algs[best]
	return p
}

// table1 is the paper's Table 1: indexes without sort order → index nested
// loop; sort order without indexes → stack-tree; both → ADB+; neither →
// the partitioning algorithms (SHCJ when the ancestor set is single-height
// by Context.AncestorHeights, otherwise MHCJ+Rollup or VPJ — VPJ when the
// tree height is known and neither input fits memory, since it adapts to
// skew without false hits; rollup otherwise).
func table1(ctx *Context, spec InputSpec, a, d *relation.Relation) Algorithm {
	sorted := spec.SortedA && spec.SortedD
	indexed := spec.IndexedA && spec.IndexedD
	switch {
	case sorted && indexed:
		return AlgADBPlus
	case sorted:
		return AlgStackTree
	case indexed:
		return AlgINLJN
	}
	if ctx.singleHeightA() {
		return AlgSHCJ
	}
	if ctx.TreeHeight > 0 && minRecs(a, d) > ctx.memRecs(ctx.b()-2) {
		return AlgVPJ
	}
	return AlgMHCJRollup
}

// Run executes the chosen algorithm (resolving AlgAuto through Choose) and
// returns the algorithm that actually ran.
func Run(ctx *Context, alg Algorithm, spec InputSpec, a, d *relation.Relation, sink Sink) (Algorithm, error) {
	// Arm the buffer pool with the context's cancellation check for the
	// duration of the execution; every algorithm below becomes cancelable
	// at page granularity without further plumbing.
	defer ctx.DisarmPool(ctx.ArmPool())
	if alg == AlgAuto {
		alg = Choose(ctx, spec, a, d).Chosen
	}
	switch alg {
	case AlgNestedLoop:
		return alg, NestedLoop(ctx, a, d, sink)
	case AlgSHCJ:
		return alg, SHCJAuto(ctx, a, d, sink)
	case AlgMHCJ:
		return alg, MHCJ(ctx, a, d, sink)
	case AlgMHCJRollup:
		return alg, MHCJRollup(ctx, a, d, 0, sink)
	case AlgVPJ:
		return alg, VPJ(ctx, a, d, sink)
	case AlgINLJN:
		return alg, INLJN(ctx, a, d, sink)
	case AlgStackTree:
		if spec.SortedA && spec.SortedD {
			return alg, StackTree(ctx, a, d, sink)
		}
		return alg, StackTreeOnTheFly(ctx, a, d, sink)
	case AlgMPMGJN:
		if spec.SortedA && spec.SortedD {
			return alg, MPMGJN(ctx, a, d, sink)
		}
		return alg, MPMGJNOnTheFly(ctx, a, d, sink)
	case AlgADBPlus:
		return alg, ADBPlusOnTheFly(ctx, a, d, sink)
	case AlgStackTreeAnc:
		if spec.SortedA && spec.SortedD {
			return alg, StackTreeAnc(ctx, a, d, sink)
		}
		sa, err := SortByDoc(ctx, a, "sta.a")
		if err != nil {
			return alg, err
		}
		defer sa.Free() //nolint:errcheck // cleanup
		sd, err := SortByDoc(ctx, d, "sta.d")
		if err != nil {
			return alg, err
		}
		defer sd.Free() //nolint:errcheck // cleanup
		return alg, StackTreeAnc(ctx, sa, sd, sink)
	default:
		return alg, fmt.Errorf("core: unknown algorithm %v", alg)
	}
}
