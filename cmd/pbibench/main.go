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
	"io"
	"os"
	"strings"

	"github.com/pbitree/pbitree/internal/benchkit"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it parses args, runs the experiments they name and
// writes their tables to stdout, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pbibench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("exp", "all", "comma-separated experiment ids (e1..e8, a1..a8) or 'all'")
		scale    = fs.Float64("scale", 0.02, "synthetic dataset scale (1.0 = paper: 1e6/1e4 elements)")
		docScale = fs.Float64("docscale", 0.02, "document scale (1.0 = paper: XMark SF=1, full DBLP)")
		buffer   = fs.Int("buffer", 500, "buffer pool pages b (paper: 500)")
		pageSize = fs.Int("pagesize", 4096, "page size in bytes")
		seed     = fs.Int64("seed", 1, "generator seed")
		stats    = fs.Bool("stats", false, "also print dataset statistics tables (Table 2(a)-(d))")
		csv      = fs.Bool("csv", false, "emit CSV rows instead of tables")
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	cfg := benchkit.Config{
		Scale:       *scale,
		DocScale:    *docScale,
		BufferPages: *buffer,
		PageSize:    *pageSize,
		Seed:        *seed,
		Out:         stdout,
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
			fmt.Fprintf(stderr, "pbibench: unknown experiment %q (have %s)\n", id, strings.Join(benchkit.Order, ", "))
			return 2
		}
		res, err := run(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "pbibench: %s: %v\n", id, err)
			return 1
		}
		if *csv {
			benchkit.RenderCSV(stdout, res)
			continue
		}
		benchkit.Render(stdout, res)
		if *stats {
			benchkit.RenderStats(stdout, res)
		}
		benchkit.Summarize(stdout, res)
	}
	return 0
}
