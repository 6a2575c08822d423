// Package benchkit is the experiment harness: it regenerates every table
// and figure of the paper's evaluation (section 4) — E1 through E8 — plus
// the ablations DESIGN.md calls out (A1–A8). Each experiment returns
// structured rows and can render them as the paper's tables; cmd/pbibench
// and the repository's benchmarks drive the same code.
//
// Elapsed times are virtual disk time plus measured CPU time: the paper's
// numbers are I/O-bound measurements on a 2003-era disk, which the
// storage layer's virtual clock models (see DESIGN.md). Raw page I/O
// counts are reported alongside.
package benchkit

import (
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/pbitree/pbitree/containment"
	"github.com/pbitree/pbitree/internal/workload"
	"github.com/pbitree/pbitree/pbicode"
	"github.com/pbitree/pbitree/xmltree"
)

// Config configures a harness run.
type Config struct {
	// Scale scales the synthetic sets: 1.0 = the paper's 1e6/1e4.
	Scale float64
	// DocScale scales the DBLP and XMark documents: 1.0 = paper size.
	DocScale float64
	// BufferPages is the pool size b; the paper uses 500.
	BufferPages int
	// PageSize in bytes.
	PageSize int
	// Seed fixes all generators.
	Seed int64
	// Out receives the rendered tables; nil discards them.
	Out io.Writer
}

// Default returns a configuration sized for interactive runs (about 1/50
// of the paper's scale). Use Scale = DocScale = 1 for the full setup.
func Default() Config {
	return Config{
		Scale:       0.02,
		DocScale:    0.02,
		BufferPages: 500,
		PageSize:    4096,
		Seed:        1,
	}
}

func (c Config) out() io.Writer {
	if c.Out == nil {
		return io.Discard
	}
	return c.Out
}

// Row is one (dataset, algorithm) measurement.
type Row struct {
	Dataset   string
	Algorithm string
	// Elapsed is virtual disk time + measured compute time, the
	// harness's analogue of the paper's elapsed seconds.
	Elapsed time.Duration
	// Wall is the raw measured host time.
	Wall time.Duration
	// IOs is total page reads+writes; SeqIOs the sequential subset.
	IOs    int64
	SeqIOs int64
	// Pairs, FalseHits, Replicated, Partitions are algorithm counters.
	Pairs      int64
	FalseHits  int64
	Replicated int64
	Partitions int64
	// PredictedIO is the cost model's estimate (ablation A5).
	PredictedIO int64
	// SizeA/SizeD/HeightsA/HeightsD describe the inputs (dataset tables).
	SizeA, SizeD       int64
	HeightsA, HeightsD int
}

// runJoin evaluates one algorithm over loaded relations with a cold cache
// and returns its measurement row.
func runJoin(eng *containment.Engine, ds string, a, d *containment.Relation, alg containment.Algorithm, opts containment.JoinOptions) (Row, error) {
	if err := eng.DropCache(); err != nil {
		return Row{}, err
	}
	eng.ResetIOStats()
	opts.Algorithm = alg
	res, err := eng.Join(a, d, opts)
	if err != nil {
		return Row{}, err
	}
	return Row{
		Dataset:     ds,
		Algorithm:   res.Algorithm,
		Elapsed:     res.IO.VirtualTime + res.IO.WallTime,
		Wall:        res.IO.WallTime,
		IOs:         res.IO.Total(),
		SeqIOs:      res.IO.SeqReads + res.IO.SeqWrites,
		Pairs:       res.Count,
		FalseHits:   res.FalseHits,
		Replicated:  res.Replicated,
		Partitions:  res.Partitions,
		PredictedIO: res.PredictedIO,
		SizeA:       a.Len(),
		SizeD:       d.Len(),
	}, nil
}

// newEngine builds an engine per the config with the virtual disk enabled,
// storing the paper's 16-byte records: the experiments reproduce the
// paper's tables, whose every page count is at 255 records per 4 KiB page.
func (c Config) newEngine(bufferPages int) (*containment.Engine, error) {
	if bufferPages == 0 {
		bufferPages = c.BufferPages
	}
	return containment.NewEngine(containment.Config{
		PageSize:    c.PageSize,
		BufferPages: bufferPages,
		DiskCost:    containment.DefaultDiskCost,
		PaperLayout: true,
	})
}

// loadSynth generates the dataset and loads it into a fresh engine.
func (c Config) loadSynth(p workload.SynthParams, bufferPages int) (*containment.Engine, *containment.Relation, *containment.Relation, *workload.SynthData, error) {
	data, err := workload.Generate(p)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	eng, err := c.newEngine(bufferPages)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	a, err := eng.Load("A."+p.Name, data.A)
	if err != nil {
		eng.Close()
		return nil, nil, nil, nil, err
	}
	d, err := eng.Load("D."+p.Name, data.D)
	if err != nil {
		eng.Close()
		return nil, nil, nil, nil, err
	}
	return eng, a, d, data, nil
}

// baselines are the region-code algorithms whose minimum forms MIN_RGN.
var baselines = []containment.Algorithm{
	containment.INLJN,
	containment.StackTree,
	containment.ADBPlus,
}

// minRGN runs the three baselines and returns the best row relabelled
// MIN_RGN, plus the individual rows.
func minRGN(eng *containment.Engine, ds string, a, d *containment.Relation) (Row, []Row, error) {
	var best Row
	var all []Row
	for i, alg := range baselines {
		row, err := runJoin(eng, ds, a, d, alg, containment.JoinOptions{})
		if err != nil {
			return Row{}, nil, fmt.Errorf("%s/%v: %w", ds, alg, err)
		}
		all = append(all, row)
		if i == 0 || row.Elapsed < best.Elapsed {
			best = row
		}
	}
	best.Algorithm = "MIN_RGN"
	return best, all, nil
}

// improvement returns the paper's improvement ratio
// (T_MIN_RGN - T_alg) / T_MIN_RGN.
func improvement(minRgn, alg Row) float64 {
	if minRgn.Elapsed <= 0 {
		return 0
	}
	return float64(minRgn.Elapsed-alg.Elapsed) / float64(minRgn.Elapsed)
}

// Result groups an experiment's rows with its identity.
type Result struct {
	ID    string
	Title string
	Rows  []Row
}

// sortRows orders rows by dataset then algorithm for stable rendering.
func sortRows(rows []Row) {
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Dataset != rows[j].Dataset {
			return rows[i].Dataset < rows[j].Dataset
		}
		return rows[i].Algorithm < rows[j].Algorithm
	})
}

// heightsOf counts distinct code heights.
func heightsOf(codes []pbicode.Code) int {
	set := map[int]bool{}
	for _, c := range codes {
		set[c.Height()] = true
	}
	return len(set)
}

// loadDocQuery loads one query's tag sets from a document.
func loadDocQuery(eng *containment.Engine, doc *xmltree.Document, q workload.Query) (*containment.Relation, *containment.Relation, error) {
	a, err := eng.LoadDoc(doc, q.AncTag)
	if err != nil {
		return nil, nil, err
	}
	d, err := eng.LoadDoc(doc, q.DescTag)
	if err != nil {
		return nil, nil, err
	}
	return a, d, nil
}
