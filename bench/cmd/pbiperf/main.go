// Command pbiperf is the repository's benchmark (see bench/README.md).
//
//	pbiperf -workload W [-seed N] [-seconds S] [-trace 0|1]   one run
//	pbiperf -all                                              every workload once
//	pbiperf -aa N                                             A/A repeatability
//	pbiperf -manifest                                         print BENCHMARK.json
//
// The human log goes to stderr. A single run prints, as the last line of
// stdout, one JSON object {correct, attempted, failed, metrics}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/pbitree/pbitree/bench"
)

func main() {
	var (
		cfg      bench.Config
		trace    = flag.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics and the span file")
		all      = flag.Bool("all", false, "run every workload once, timed")
		aa       = flag.Int("aa", 0, "A/A check: run every workload N times twice over and compare medians and, from N = 5, spreads")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.StringVar(&cfg.Workload, "workload", "", "join_cold, serve_hot, route_miss or ingest_mix")
	flag.Int64Var(&cfg.Seed, "seed", 1, "seed of the corpus and the op sequence")
	flag.Float64Var(&cfg.Seconds, "seconds", bench.RunSeconds, "measured window in seconds")
	flag.Parse()
	cfg.Log = os.Stderr
	cfg.Trace = *trace != 0

	if *manifest {
		os.Stdout.Write(bench.Manifest()) //nolint:errcheck // stdout
		return
	}
	if err := bench.Validate(); err != nil {
		fatal(2, "metric registry: %v", err)
	}
	if err := os.MkdirAll(bench.WorkDir, 0o755); err != nil {
		fatal(2, "%v", err)
	}
	dir, err := os.MkdirTemp(bench.WorkDir, "run-")
	if err != nil {
		fatal(2, "%v", err)
	}
	// Every exit path removes the run's files: normal return, failure,
	// deadline and signal.
	exit := func(code int) {
		os.RemoveAll(dir) //nolint:errcheck // best effort on the way out
		os.Exit(code)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "pbiperf: interrupted in phase:", bench.Phase())
		exit(130)
	}()
	if cfg.Trace {
		cfg.SpanFile = fmt.Sprintf("%s/spans-%s.json", bench.WorkDir, cfg.Workload)
	}

	// one runs cfg under the hard deadline in its own sub-directory.
	runs := 0
	one := func(cfg bench.Config) *bench.Result {
		runs++
		cfg.Dir = fmt.Sprintf("%s/%d", dir, runs)
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			fatal(2, "%v", err)
		}
		fmt.Fprintf(os.Stderr, "pbiperf: workload=%s trace=%v seconds=%g %s\n", cfg.Workload, cfg.Trace, cfg.Seconds, bench.Header(cfg))
		deadline := bench.Deadline(cfg.Seconds)
		watchdog := time.AfterFunc(deadline, func() {
			fmt.Fprintf(os.Stderr, "pbiperf: deadline of %v passed; stuck in phase: %s\n", deadline, bench.Phase())
			exit(3)
		})
		res, err := bench.Run(cfg)
		watchdog.Stop()
		if err != nil {
			fmt.Fprintf(os.Stderr, "pbiperf: %s failed in phase %q: %v\n", cfg.Workload, bench.Phase(), err)
			exit(1)
		}
		os.RemoveAll(cfg.Dir) //nolint:errcheck // removed again on exit
		bench.PrintTable(os.Stderr, cfg, res)
		return res
	}

	switch {
	case *aa > 0:
		if !bench.AA(os.Stderr, cfg, *aa, one) {
			exit(1)
		}
	case *all:
		ok := true
		for _, w := range bench.Workloads {
			cfg.Workload = w.Name
			ok = one(cfg).Correct && ok
		}
		if !ok {
			exit(1)
		}
	default:
		res := one(cfg)
		out, _ := json.Marshal(bench.Contract(cfg, res)) // numbers and strings only
		fmt.Println(string(out))
		if !res.Correct {
			exit(1)
		}
	}
	exit(0)
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pbiperf: "+format+"\n", args...)
	os.Exit(code)
}
