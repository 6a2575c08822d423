// Command pbijoin evaluates a containment join between two files of
// PBiTree codes (one decimal code per line, as written by pbigen -kind
// synth) and reports the result cardinality with full cost counters — a
// workbench for comparing the framework's algorithms on arbitrary inputs.
//
// Usage:
//
//	pbijoin [-algo auto] [-buffer 500] [-pagesize 4096] [-shards 0]
//	        [-compare] [-analyze] a.codes d.codes
//
// -compare runs every applicable algorithm on the same inputs and prints a
// comparison table instead of a single run. -analyze prints an EXPLAIN
// ANALYZE table: the per-phase breakdown of page I/O, virtual disk time,
// buffer-pool hit rate and pairs, against the §3.4 cost prediction.
// -shards N runs the join through a scatter-gather shard.Engine instead:
// the inputs are split into N disjoint in-memory shards on the maximal
// disjoint code regions they span (exact for any input — containment pairs
// never cross region boundaries), with -buffer pages per shard.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/pbitree/pbitree/containment"
	"github.com/pbitree/pbitree/internal/shard"
	"github.com/pbitree/pbitree/pbicode"
)

func main() {
	var (
		algo     = flag.String("algo", "auto", "algorithm ("+strings.Join(containment.AlgorithmNames(), "|")+")")
		buffer   = flag.Int("buffer", 500, "buffer pool pages")
		pageSize = flag.Int("pagesize", 4096, "page size in bytes")
		compare  = flag.Bool("compare", false, "run all applicable algorithms and compare")
		analyze  = flag.Bool("analyze", false, "EXPLAIN ANALYZE: print the per-phase cost breakdown")
		shards   = flag.Int("shards", 0, "scatter-gather the join across N region-disjoint in-memory shards (0 = single engine)")
		timeout  = flag.Duration("timeout", 0, "abort each join after this long (0 = no deadline)")
	)
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: pbijoin [-algo NAME] [-compare] a.codes d.codes")
		os.Exit(2)
	}
	alg, ok := containment.ParseAlgorithm(*algo)
	if !ok {
		fmt.Fprintf(os.Stderr, "pbijoin: unknown algorithm %q (accepted: %s)\n",
			*algo, strings.Join(containment.AlgorithmNames(), ", "))
		os.Exit(2)
	}
	aCodes, err := readCodes(flag.Arg(0))
	if err != nil {
		fail(err)
	}
	dCodes, err := readCodes(flag.Arg(1))
	if err != nil {
		fail(err)
	}

	// Both execution shapes present the same three operations to run():
	// reset (cold cache, fresh counters), analyze, and join.
	var (
		resetFn   func() error
		analyzeFn func(context.Context, containment.JoinOptions) (*containment.Analysis, error)
		joinFn    func(context.Context, containment.JoinOptions) (*containment.Result, error)
	)
	if *shards > 0 {
		se, err := shard.New(shard.Config{
			BufferPages: *buffer,
			PageSize:    *pageSize,
			DiskCost:    containment.DefaultDiskCost,
		}, *shards)
		if err != nil {
			fail(err)
		}
		defer se.Close()
		partA, partD, err := partition(aCodes, dCodes, *shards)
		if err != nil {
			fail(err)
		}
		for g := 0; g < *shards; g++ {
			if err := se.LoadShard(g, "A", partA[g]); err != nil {
				fail(err)
			}
			if err := se.LoadShard(g, "D", partD[g]); err != nil {
				fail(err)
			}
		}
		a, _ := se.Relation("A")
		d, _ := se.Relation("D")
		fmt.Printf("%s  b=%d/shard  shards=%d\n", containment.InputHeader(a, d), *buffer, *shards)
		resetFn = func() error {
			for i := 0; i < se.NumShards(); i++ {
				if err := se.Shard(i).DropCache(); err != nil {
					return err
				}
				se.Shard(i).ResetIOStats()
			}
			return nil
		}
		analyzeFn = func(ctx context.Context, opts containment.JoinOptions) (*containment.Analysis, error) {
			return se.AnalyzeContext(ctx, a, d, opts)
		}
		joinFn = func(ctx context.Context, opts containment.JoinOptions) (*containment.Result, error) {
			return se.JoinContext(ctx, a, d, opts)
		}
	} else {
		eng, err := containment.NewEngine(containment.Config{
			BufferPages: *buffer,
			PageSize:    *pageSize,
			DiskCost:    containment.DefaultDiskCost,
		})
		if err != nil {
			fail(err)
		}
		defer eng.Close()
		a, err := eng.Load("A", aCodes)
		if err != nil {
			fail(err)
		}
		d, err := eng.Load("D", dCodes)
		if err != nil {
			fail(err)
		}
		fmt.Printf("%s  b=%d\n", containment.InputHeader(a, d), *buffer)
		resetFn = func() error {
			if err := eng.DropCache(); err != nil {
				return err
			}
			eng.ResetIOStats()
			return nil
		}
		analyzeFn = func(ctx context.Context, opts containment.JoinOptions) (*containment.Analysis, error) {
			return eng.AnalyzeContext(ctx, a, d, opts)
		}
		joinFn = func(ctx context.Context, opts containment.JoinOptions) (*containment.Result, error) {
			return eng.JoinContext(ctx, a, d, opts)
		}
	}

	// Ctrl-C cancels the running join cooperatively; a partial stats line
	// still prints. A second Ctrl-C kills the process the usual way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	run := func(name string, opts containment.JoinOptions) {
		if err := resetFn(); err != nil {
			fail(err)
		}
		jctx, cancel := ctx, context.CancelFunc(func() {})
		if *timeout > 0 {
			jctx, cancel = context.WithTimeout(ctx, *timeout)
		}
		defer cancel()
		if *analyze {
			an, err := analyzeFn(jctx, opts)
			if err != nil {
				if an != nil && canceled(err) {
					fmt.Print(an.Table())
				}
				fmt.Printf("%-12s error: %v\n", name, err)
				return
			}
			fmt.Print(an.Table())
			return
		}
		res, err := joinFn(jctx, opts)
		if err != nil {
			if res != nil && canceled(err) {
				fmt.Printf("%-12s CANCELED (%s) after pairs=%-10d pageIO=%-8d elapsed=%v\n",
					res.Algorithm, containment.Classify(err), res.Count, res.IO.Total(),
					(res.IO.VirtualTime + res.IO.WallTime).Round(time.Millisecond))
				return
			}
			fmt.Printf("%-12s error: %v\n", name, err)
			return
		}
		fmt.Printf("%-12s pairs=%-10d pageIO=%-8d predIO=%-8d falsehits=%-8d elapsed=%v\n",
			res.Algorithm, res.Count, res.IO.Total(), res.PredictedIO, res.FalseHits,
			(res.IO.VirtualTime + res.IO.WallTime).Round(1000000))
	}

	if *compare {
		for _, name := range []string{"rollup", "vpj", "stacktree", "mpmgjn", "inljn", "adb", "nlj"} {
			a, _ := containment.ParseAlgorithm(name)
			run(name, containment.JoinOptions{Algorithm: a})
		}
		return
	}
	run(*algo, containment.JoinOptions{Algorithm: alg})
}

// partition splits both code sets into n disjoint groups: Discover
// recovers the maximal disjoint regions the codes span, Pack balances the
// regions by code count, and every code follows its region's shard. Exact
// for any input — a containment pair always lies within one maximal
// region, so no pair crosses shards.
func partition(a, d []pbicode.Code, n int) (pa, pd [][]pbicode.Code, err error) {
	regions := shard.Discover(a, d)
	regionOf := func(c pbicode.Code) (int, error) {
		s := c.Start()
		k := sort.Search(len(regions), func(j int) bool { return regions[j].Start > s })
		if k == 0 {
			return 0, fmt.Errorf("pbijoin: code %v outside every region", c)
		}
		return k - 1, nil
	}
	weights := make([]int64, len(regions))
	for _, set := range [][]pbicode.Code{a, d} {
		for _, c := range set {
			i, err := regionOf(c)
			if err != nil {
				return nil, nil, err
			}
			weights[i]++
		}
	}
	shardOf := make([]int, len(regions))
	for g, idxs := range shard.Pack(weights, n) {
		for _, i := range idxs {
			shardOf[i] = g
		}
	}
	split := func(set []pbicode.Code) ([][]pbicode.Code, error) {
		per := make([][]pbicode.Code, n)
		for _, c := range set {
			i, err := regionOf(c)
			if err != nil {
				return nil, err
			}
			per[shardOf[i]] = append(per[shardOf[i]], c)
		}
		return per, nil
	}
	if pa, err = split(a); err != nil {
		return nil, nil, err
	}
	if pd, err = split(d); err != nil {
		return nil, nil, err
	}
	return pa, pd, nil
}

func readCodes(path string) ([]pbicode.Code, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []pbicode.Code
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		v, err := strconv.ParseUint(text, 10, 64)
		if err != nil || v == 0 {
			return nil, fmt.Errorf("%s:%d: bad code %q", path, line, text)
		}
		out = append(out, pbicode.Code(v))
	}
	return out, sc.Err()
}

// canceled reports whether err is a cancellation (Ctrl-C) or deadline
// (-timeout) abort, the cases where partial counters are worth printing.
func canceled(err error) bool {
	switch containment.Classify(err) {
	case containment.FailCanceled, containment.FailDeadline:
		return true
	}
	return false
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "pbijoin: %v\n", err)
	os.Exit(1)
}
