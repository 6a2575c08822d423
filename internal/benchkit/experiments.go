package benchkit

import (
	"fmt"
	"strings"
	"time"

	"github.com/pbitree/pbitree/containment"
	"github.com/pbitree/pbitree/internal/workload"
	"github.com/pbitree/pbitree/pbicode"
	"github.com/pbitree/pbitree/xmltree"
)

// E1 reproduces Table 2(a)/(e) and Figure 6(a): the eight single-height
// synthetic datasets, MIN_RGN (best of INLJN/STACKTREE/ADB+, sort and
// index built on the fly) against SHCJ and VPJ.
func E1(cfg Config) (*Result, error) {
	return synthExperiment(cfg, "E1",
		"Single-height synthetic datasets (Table 2(e), Fig. 6(a))",
		func(name string) bool { return name[0] == 'S' },
		[]containment.Algorithm{containment.SHCJ, containment.VPJ})
}

// E2 reproduces Table 2(b)/(f) and Figure 6(b): the eight multiple-height
// datasets, MIN_RGN against MHCJ+Rollup and VPJ, with rollup false hits.
func E2(cfg Config) (*Result, error) {
	return synthExperiment(cfg, "E2",
		"Multiple-height synthetic datasets (Fig. 6(b), Table 2(f))",
		func(name string) bool { return name[0] == 'M' },
		[]containment.Algorithm{containment.MHCJRollup, containment.VPJ})
}

// synthExperiment runs the shared E1/E2 shape.
func synthExperiment(cfg Config, id, title string, include func(string) bool, algs []containment.Algorithm) (*Result, error) {
	res := &Result{ID: id, Title: title}
	for _, p := range workload.StandardDatasets(cfg.Scale, cfg.Seed) {
		if !include(p.Name) {
			continue
		}
		eng, a, d, data, err := cfg.loadSynth(p, 0)
		if err != nil {
			return nil, err
		}
		ha, hd := heightsOf(data.A), heightsOf(data.D)
		annotate := func(r Row) Row {
			r.HeightsA, r.HeightsD = ha, hd
			return r
		}
		best, all, err := minRGN(eng, p.Name, a, d)
		if err != nil {
			eng.Close()
			return nil, err
		}
		for _, r := range all {
			res.Rows = append(res.Rows, annotate(r))
		}
		res.Rows = append(res.Rows, annotate(best))
		for _, alg := range algs {
			row, err := runJoin(eng, p.Name, a, d, alg, containment.JoinOptions{})
			if err != nil {
				eng.Close()
				return nil, fmt.Errorf("%s/%v: %w", p.Name, alg, err)
			}
			res.Rows = append(res.Rows, annotate(row))
		}
		if err := eng.Close(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// docExperiment runs the shared E3/E4 shape over a generated document.
func docExperiment(cfg Config, id, title string, doc *xmltree.Document, queries []workload.Query) (*Result, error) {
	res := &Result{ID: id, Title: title}
	for _, q := range queries {
		eng, err := cfg.newEngine(0)
		if err != nil {
			return nil, err
		}
		a, d, err := loadDocQuery(eng, doc, q)
		if err != nil {
			eng.Close()
			return nil, fmt.Errorf("%s: %w", q.ID, err)
		}
		ha := heightsOf(doc.Codes(q.AncTag))
		hd := heightsOf(doc.Codes(q.DescTag))
		annotate := func(r Row) Row {
			r.HeightsA, r.HeightsD = ha, hd
			return r
		}
		best, all, err := minRGN(eng, q.ID, a, d)
		if err != nil {
			eng.Close()
			return nil, err
		}
		for _, r := range all {
			res.Rows = append(res.Rows, annotate(r))
		}
		res.Rows = append(res.Rows, annotate(best))
		for _, alg := range []containment.Algorithm{containment.MHCJRollup, containment.VPJ} {
			row, err := runJoin(eng, q.ID, a, d, alg, containment.JoinOptions{})
			if err != nil {
				eng.Close()
				return nil, fmt.Errorf("%s/%v: %w", q.ID, alg, err)
			}
			res.Rows = append(res.Rows, annotate(row))
		}
		if err := eng.Close(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// E3 reproduces Table 2(c) and Figure 6(c): the ten BENCHMARK (XMark)
// containment joins.
func E3(cfg Config) (*Result, error) {
	doc, err := workload.GenerateXMark(workload.XMark(cfg.DocScale, cfg.Seed))
	if err != nil {
		return nil, err
	}
	return docExperiment(cfg, "E3", "BENCHMARK (XMark) joins B1-B10 (Fig. 6(c), Table 2(c))", doc, workload.XMarkQueries())
}

// E4 reproduces Table 2(d) and Figure 6(d): the ten DBLP containment
// joins.
func E4(cfg Config) (*Result, error) {
	doc, err := workload.GenerateDBLP(workload.DBLP(cfg.DocScale, cfg.Seed))
	if err != nil {
		return nil, err
	}
	return docExperiment(cfg, "E4", "DBLP joins D1-D10 (Fig. 6(d), Table 2(d))", doc, workload.DBLPQueries())
}

// bufferSweepPercents are the relative buffer sizes P of Figure 6(e)/(f):
// buffer pages as a percentage of the smaller input's pages.
var bufferSweepPercents = []float64{0.5, 1, 2, 4, 8, 16}

// bufferSweep runs one dataset across the sweep.
func bufferSweep(cfg Config, id, title, dataset string, algs []containment.Algorithm) (*Result, error) {
	p, err := workload.Dataset(dataset, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: id, Title: title}
	for _, pct := range bufferSweepPercents {
		// Build once per buffer size: the pool is the engine's.
		data, err := workload.Generate(p)
		if err != nil {
			return nil, err
		}
		minRecs := len(data.A)
		if len(data.D) < minRecs {
			minRecs = len(data.D)
		}
		perPage := (cfg.PageSize - 8) / 16
		minPages := (minRecs + perPage - 1) / perPage
		b := int(float64(minPages) * pct / 100)
		if b < 4 {
			b = 4
		}
		eng, err := cfg.newEngine(b)
		if err != nil {
			return nil, err
		}
		a, err := eng.Load("A", data.A)
		if err != nil {
			eng.Close()
			return nil, err
		}
		d, err := eng.Load("D", data.D)
		if err != nil {
			eng.Close()
			return nil, err
		}
		label := fmt.Sprintf("%s P=%.1f%%", dataset, pct)
		best, _, err := minRGN(eng, label, a, d)
		if err != nil {
			eng.Close()
			return nil, err
		}
		res.Rows = append(res.Rows, best)
		for _, alg := range algs {
			row, err := runJoin(eng, label, a, d, alg, containment.JoinOptions{})
			if err != nil {
				eng.Close()
				return nil, fmt.Errorf("%s/%v: %w", label, alg, err)
			}
			res.Rows = append(res.Rows, row)
		}
		if err := eng.Close(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// E5 reproduces Figure 6(e): SLLL elapsed times across buffer sizes.
func E5(cfg Config) (*Result, error) {
	return bufferSweep(cfg, "E5", "Varying buffer sizes, SLLL (Fig. 6(e))", "SLLL",
		[]containment.Algorithm{containment.MHCJRollup, containment.VPJ})
}

// E6 reproduces Figure 6(f): MLLL across buffer sizes.
func E6(cfg Config) (*Result, error) {
	return bufferSweep(cfg, "E6", "Varying buffer sizes, MLLL (Fig. 6(f))", "MLLL",
		[]containment.Algorithm{containment.MHCJRollup, containment.VPJ})
}

// scalability runs the Figure 6(g)/(h) series.
func scalability(cfg Config, id, title string, multi bool, algs []containment.Algorithm) (*Result, error) {
	base := int(cfg.Scale * 5e4)
	if base < 50 {
		base = 50
	}
	res := &Result{ID: id, Title: title}
	for _, p := range workload.ScalabilitySeries(multi, base, 8, 0.1, cfg.Seed) {
		eng, a, d, _, err := cfg.loadSynth(p, 0)
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("%dxB", p.NumA/base)
		best, _, err := minRGN(eng, label, a, d)
		if err != nil {
			eng.Close()
			return nil, err
		}
		res.Rows = append(res.Rows, best)
		for _, alg := range algs {
			row, err := runJoin(eng, label, a, d, alg, containment.JoinOptions{})
			if err != nil {
				eng.Close()
				return nil, fmt.Errorf("%s/%v: %w", label, alg, err)
			}
			res.Rows = append(res.Rows, row)
		}
		if err := eng.Close(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// E7 reproduces Figure 6(g): scalability on single-height datasets.
func E7(cfg Config) (*Result, error) {
	return scalability(cfg, "E7", "Scalability, single-height (Fig. 6(g))", false,
		[]containment.Algorithm{containment.SHCJ, containment.VPJ})
}

// E8 reproduces Figure 6(h): scalability on multiple-height datasets.
func E8(cfg Config) (*Result, error) {
	return scalability(cfg, "E8", "Scalability, multiple-height (Fig. 6(h))", true,
		[]containment.Algorithm{containment.MHCJRollup, containment.VPJ})
}

// A1 is the ablation behind the paper's remark that "MHCJ+Rollup
// outperforms MHCJ in all experiments": both algorithms across the
// multiple-height datasets.
func A1(cfg Config) (*Result, error) {
	res := &Result{ID: "A1", Title: "Ablation: MHCJ vs MHCJ+Rollup (multi-height datasets)"}
	for _, p := range workload.StandardDatasets(cfg.Scale, cfg.Seed) {
		if p.Name[0] != 'M' {
			continue
		}
		eng, a, d, _, err := cfg.loadSynth(p, 0)
		if err != nil {
			return nil, err
		}
		for _, alg := range []containment.Algorithm{containment.MHCJ, containment.MHCJRollup} {
			row, err := runJoin(eng, p.Name, a, d, alg, containment.JoinOptions{})
			if err != nil {
				eng.Close()
				return nil, err
			}
			res.Rows = append(res.Rows, row)
		}
		if err := eng.Close(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// A3 quantifies VPJ's node replication (section 3.3's "usually
// negligible" claim) across all sixteen datasets.
func A3(cfg Config) (*Result, error) {
	res := &Result{ID: "A3", Title: "Ablation: VPJ node replication across datasets"}
	for _, p := range workload.StandardDatasets(cfg.Scale, cfg.Seed) {
		eng, a, d, data, err := cfg.loadSynth(p, 0)
		if err != nil {
			return nil, err
		}
		row, err := runJoin(eng, p.Name, a, d, containment.VPJ, containment.JoinOptions{})
		if err != nil {
			eng.Close()
			return nil, err
		}
		row.HeightsA, row.HeightsD = heightsOf(data.A), heightsOf(data.D)
		res.Rows = append(res.Rows, row)
		if err := eng.Close(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// A4 sweeps MHCJ+Rollup's target height on the MLLH dataset: the
// trade-off between partition count and false hits.
func A4(cfg Config) (*Result, error) {
	p, err := workload.Dataset("MLLH", cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	data, err := workload.Generate(p)
	if err != nil {
		return nil, err
	}
	minH, maxH := 64, -1
	for _, c := range data.A {
		h := c.Height()
		if h < minH {
			minH = h
		}
		if h > maxH {
			maxH = h
		}
	}
	res := &Result{ID: "A4", Title: "Ablation: rollup target height sweep (MLLH)"}
	for target := minH; target <= maxH; target++ {
		eng, err := cfg.newEngine(0)
		if err != nil {
			return nil, err
		}
		a, err := eng.Load("A", data.A)
		if err != nil {
			eng.Close()
			return nil, err
		}
		d, err := eng.Load("D", data.D)
		if err != nil {
			eng.Close()
			return nil, err
		}
		if err := eng.DropCache(); err != nil {
			eng.Close()
			return nil, err
		}
		eng.ResetIOStats()
		r, err := eng.Join(a, d, containment.JoinOptions{Algorithm: containment.MHCJRollup, RollupTarget: target})
		if err != nil {
			eng.Close()
			return nil, err
		}
		res.Rows = append(res.Rows, Row{
			Dataset:   fmt.Sprintf("target h=%d", target),
			Algorithm: "MHCJ+Rollup",
			Elapsed:   r.IO.VirtualTime + r.IO.WallTime,
			Wall:      r.IO.WallTime,
			IOs:       r.IO.Total(),
			Pairs:     r.Count,
			FalseHits: r.FalseHits,
			SizeA:     a.Len(),
			SizeD:     d.Len(),
		})
		if err := eng.Close(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// A2 reproduces the paper's unreported comparison (§4: "the two classes of
// algorithms have almost the same performance and thus their results are
// not reported"): the stack-tree join over native region-coded records
// (Start, End stored) versus the PBiTree-adapted one (Start, End derived
// from the code on the fly, Lemma 3), on identical inputs.
func A2(cfg Config) (*Result, error) {
	res := &Result{ID: "A2", Title: "Ablation: region-native vs PBiTree-adapted stack-tree"}
	for _, name := range []string{"SLLH", "SLLL", "MLLL"} {
		p, err := workload.Dataset(name, cfg.Scale, cfg.Seed)
		if err != nil {
			return nil, err
		}
		eng, a, d, _, err := cfg.loadSynth(p, 0)
		if err != nil {
			return nil, err
		}
		adapted, err := runJoin(eng, name, a, d, containment.StackTree, containment.JoinOptions{})
		if err != nil {
			eng.Close()
			return nil, err
		}
		adapted.Algorithm = "ST-PBiTree"
		res.Rows = append(res.Rows, adapted)
		native, err := eng.JoinRegionNative(a, d)
		if err != nil {
			eng.Close()
			return nil, err
		}
		res.Rows = append(res.Rows, Row{
			Dataset:   name,
			Algorithm: "ST-Region",
			Elapsed:   native.IO.VirtualTime + native.IO.WallTime,
			Wall:      native.IO.WallTime,
			IOs:       native.IO.Total(),
			SeqIOs:    native.IO.SeqReads + native.IO.SeqWrites,
			Pairs:     native.Count,
			SizeA:     a.Len(),
			SizeD:     d.Len(),
		})
		if err := eng.Close(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// A5 validates the section 3.4 cost model (the basis of AUTO, the
// cost-based selector of section 6): predicted vs measured page I/O for every bulk
// algorithm on representative datasets.
func A5(cfg Config) (*Result, error) {
	res := &Result{ID: "A5", Title: "Ablation: cost model predicted vs measured page I/O"}
	for _, name := range []string{"SLLH", "SLLL", "MLLL", "MSLH"} {
		p, err := workload.Dataset(name, cfg.Scale, cfg.Seed)
		if err != nil {
			return nil, err
		}
		eng, a, d, _, err := cfg.loadSynth(p, 0)
		if err != nil {
			return nil, err
		}
		for _, alg := range []containment.Algorithm{
			containment.MHCJRollup, containment.VPJ, containment.StackTree, containment.MPMGJN,
		} {
			row, err := runJoin(eng, name, a, d, alg, containment.JoinOptions{})
			if err != nil {
				eng.Close()
				return nil, err
			}
			res.Rows = append(res.Rows, row)
		}
		if err := eng.Close(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// A6 reproduces the coding-space claim of §2.3.3: real document shapes
// embed into PBiTrees "within a constant number of levels", so codes stay
// well inside 64 bits as documents grow. Reported per document scale:
// element count, PBiTree height (= bits per code), and the utilization
// ratio elements / code space.
func A6(cfg Config) (*Result, error) {
	res := &Result{ID: "A6", Title: "Coding space: PBiTree height vs document size (§2.3.3)"}
	for _, sf := range []float64{0.01, 0.05, 0.25, 1} {
		scaled := cfg.DocScale * sf
		xm, err := workload.GenerateXMark(workload.XMark(scaled, cfg.Seed))
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Row{
			Dataset:   fmt.Sprintf("XMark x%g", sf),
			Algorithm: "encode",
			SizeA:     int64(xm.NumElements()),
			HeightsA:  xm.Height, // PBiTree height = bits per code
			Elapsed:   1,         // placeholder so renderers don't flag it
		})
		db, err := workload.GenerateDBLP(workload.DBLP(scaled, cfg.Seed))
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Row{
			Dataset:   fmt.Sprintf("DBLP x%g", sf),
			Algorithm: "encode",
			SizeA:     int64(db.NumElements()),
			HeightsA:  db.Height,
			Elapsed:   1,
		})
	}
	return res, nil
}

// A7 quantifies §3.1's remark that stack-tree output order "is favorable
// for further containment joins": a multi-step path query run through
// Engine.Query (Chain: every intermediate is loaded in document order, and
// AUTO prices no sort of an input stored so) versus the same chain
// treating each intermediate as an unsorted set (each step re-partitions
// via MHCJ+Rollup). Both run on one engine that records document order —
// the packed layout: a paper-layout relation never claims it.
func A7(cfg Config) (*Result, error) {
	doc, err := workload.GenerateXMark(workload.XMark(cfg.DocScale, cfg.Seed))
	if err != nil {
		return nil, err
	}
	paths := [][]string{
		{"item", "parlist", "listitem", "text"},
		{"open_auction", "annotation", "text"},
		{"regions", "item", "description", "listitem"},
	}
	res := &Result{ID: "A7", Title: "Ablation: pipelined (sorted) vs re-partitioned path queries"}
	for _, path := range paths {
		label := "//" + strings.Join(path, "//")
		eng, err := containment.NewEngine(containment.Config{
			PageSize:    cfg.PageSize,
			BufferPages: cfg.BufferPages,
			DiskCost:    containment.DefaultDiskCost,
		})
		if err != nil {
			return nil, err
		}
		// Pipelined: the one path evaluator, under AUTO.
		if err := eng.DropCache(); err != nil {
			eng.Close()
			return nil, err
		}
		eng.ResetIOStats()
		start := time.Now()
		codes, err := eng.Query(doc, label)
		if err != nil {
			eng.Close()
			return nil, err
		}
		res.Rows = append(res.Rows, pathRow(eng, label, "pipelined", int64(len(codes)), time.Since(start)))

		// Re-partitioned: every step joins an unsorted intermediate.
		if err := eng.DropCache(); err != nil {
			eng.Close()
			return nil, err
		}
		eng.ResetIOStats()
		start = time.Now()
		n, err := unsortedPath(eng, doc, path)
		if err != nil {
			eng.Close()
			return nil, err
		}
		res.Rows = append(res.Rows, pathRow(eng, label, "re-partition", n, time.Since(start)))
		if n != int64(len(codes)) {
			eng.Close()
			return nil, fmt.Errorf("A7: strategies disagree on %s: %d vs %d", label, n, len(codes))
		}
		if err := eng.Close(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// pathRow assembles a measurement row from the engine's counters.
func pathRow(eng *containment.Engine, dataset, algo string, pairs int64, wall time.Duration) Row {
	io := eng.IOStats()
	return Row{
		Dataset:   dataset,
		Algorithm: algo,
		Elapsed:   io.VirtualTime + wall,
		Wall:      wall,
		IOs:       io.Reads + io.Writes,
		SeqIOs:    io.SeqReads + io.SeqWrites,
		Pairs:     pairs,
	}
}

// unsortedPath evaluates the chain treating every intermediate as an
// unsorted set: each step a fresh MHCJ+Rollup with map-based
// deduplication, the strategy available without order-aware planning.
func unsortedPath(eng *containment.Engine, doc *xmltree.Document, tags []string) (int64, error) {
	cur := doc.Codes(tags[0])
	for step := 1; step < len(tags); step++ {
		if len(cur) == 0 {
			return 0, nil
		}
		a, err := eng.Load("np.a", cur)
		if err != nil {
			return 0, err
		}
		d, err := eng.Load("np.d", doc.Codes(tags[step]))
		if err != nil {
			return 0, err
		}
		matched := map[pbicode.Code]bool{}
		_, err = eng.Join(a, d, containment.JoinOptions{
			Algorithm: containment.MHCJRollup,
			Emit: func(p containment.Pair) error {
				matched[p.D] = true
				return nil
			},
		})
		if err != nil {
			return 0, err
		}
		if err := eng.Free(a); err != nil {
			return 0, err
		}
		if err := eng.Free(d); err != nil {
			return 0, err
		}
		cur = cur[:0]
		for c := range matched {
			cur = append(cur, c)
		}
	}
	return int64(len(cur)), nil
}

// A8 quantifies this implementation's one deliberate deviation from
// Algorithm 5: VPJ cut levels are chosen relative to the data's lowest
// common ancestor rather than the tree root. Documents embed lopsidedly
// into the PBiTree, so root-relative cuts concentrate everything in a few
// partitions and recurse; the ablation runs both variants on document
// joins.
func A8(cfg Config) (*Result, error) {
	doc, err := workload.GenerateXMark(workload.XMark(cfg.DocScale, cfg.Seed))
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "A8", Title: "Ablation: VPJ cut anchoring — LCA-relative vs root-relative (Algorithm 5 literal)"}
	for _, q := range []struct{ anc, desc string }{
		{"item", "text"},
		{"listitem", "text"},
		{"person", "city"},
	} {
		eng, err := cfg.newEngine(0)
		if err != nil {
			return nil, err
		}
		a, err := eng.LoadDoc(doc, q.anc)
		if err != nil {
			eng.Close()
			return nil, err
		}
		d, err := eng.LoadDoc(doc, q.desc)
		if err != nil {
			eng.Close()
			return nil, err
		}
		label := "//" + q.anc + "//" + q.desc
		lca, err := runJoin(eng, label, a, d, containment.VPJ, containment.JoinOptions{})
		if err != nil {
			eng.Close()
			return nil, err
		}
		lca.Algorithm = "VPJ-LCA"
		res.Rows = append(res.Rows, lca)
		root, err := runJoin(eng, label, a, d, containment.VPJ, containment.JoinOptions{VPJRootCut: true})
		if err != nil {
			eng.Close()
			return nil, err
		}
		root.Algorithm = "VPJ-root"
		res.Rows = append(res.Rows, root)
		if lca.Pairs != root.Pairs {
			eng.Close()
			return nil, fmt.Errorf("A8: variants disagree on %s", label)
		}
		if err := eng.Close(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Experiments maps experiment ids to their runners.
func Experiments() map[string]func(Config) (*Result, error) {
	return map[string]func(Config) (*Result, error){
		"e1": E1, "e2": E2, "e3": E3, "e4": E4,
		"e5": E5, "e6": E6, "e7": E7, "e8": E8,
		"a1": A1, "a2": A2, "a3": A3, "a4": A4, "a5": A5, "a6": A6, "a7": A7, "a8": A8,
	}
}

// Order lists experiment ids in presentation order.
var Order = []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8"}
