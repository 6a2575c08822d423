// Command pbibench runs the paper's experiments (E1–E8) and the ablations
// (A1–A8), and prints the corresponding tables and figure series.
//
// Usage:
//
//	pbibench [-exp all|e1,e2,...] [-scale 0.02] [-docscale 0.02]
//	         [-buffer 500] [-pagesize 4096] [-seed 1] [-stats] [-csv]
//
// Scale 1.0 reproduces the paper's sizes (1e6/1e4-element synthetic sets,
// SF=1 XMark, full DBLP); the default 0.02 finishes interactively. Elapsed
// times combine the virtual disk clock (10 ms random / 0.2 ms sequential
// page access, a 2003-era disk) with measured compute time; see DESIGN.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/pbitree/pbitree/internal/benchkit"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "comma-separated experiment ids (e1..e8, a1..a8) or 'all'")
		scale    = flag.Float64("scale", 0.02, "synthetic dataset scale (1.0 = paper: 1e6/1e4 elements)")
		docScale = flag.Float64("docscale", 0.02, "document scale (1.0 = paper: XMark SF=1, full DBLP)")
		buffer   = flag.Int("buffer", 500, "buffer pool pages b (paper: 500)")
		pageSize = flag.Int("pagesize", 4096, "page size in bytes")
		seed     = flag.Int64("seed", 1, "generator seed")
		stats    = flag.Bool("stats", false, "also print dataset statistics tables (Table 2(a)-(d))")
		csv      = flag.Bool("csv", false, "emit CSV rows instead of tables")
	)
	flag.Parse()

	cfg := benchkit.Config{
		Scale:       *scale,
		DocScale:    *docScale,
		BufferPages: *buffer,
		PageSize:    *pageSize,
		Seed:        *seed,
		Out:         os.Stdout,
	}

	ids := benchkit.Order
	if *exp != "all" {
		ids = strings.Split(strings.ToLower(*exp), ",")
	}
	registry := benchkit.Experiments()
	for _, id := range ids {
		id = strings.TrimSpace(id)
		run, ok := registry[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "pbibench: unknown experiment %q (have %s)\n", id, strings.Join(benchkit.Order, ", "))
			os.Exit(2)
		}
		res, err := run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pbibench: %s: %v\n", id, err)
			os.Exit(1)
		}
		if *csv {
			benchkit.RenderCSV(os.Stdout, res)
			continue
		}
		benchkit.Render(os.Stdout, res)
		if *stats {
			benchkit.RenderStats(os.Stdout, res)
		}
		benchkit.Summarize(os.Stdout, res)
	}
}
