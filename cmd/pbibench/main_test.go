package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestPaperTablesPinned runs `pbibench -exp e1,e2 -scale 0.005` and holds
// the columns of its tables that do not depend on wall time to a golden:
// each row's page I/O, pairs and false hits, and its predicted I/O except
// on the MIN_RGN rows, whose baseline is whichever region algorithm ran
// fastest. The experiments store the paper's layout, whose relations never
// claim document order, so every sort the paper charges still runs.
func TestPaperTablesPinned(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-exp", "e1,e2", "-scale", "0.005"}, &out, &errOut); code != 0 {
		t.Fatalf("pbibench exited %d: %s", code, errOut.String())
	}
	got := pinnedColumns(t, out.String())
	want, err := os.ReadFile("testdata/e1e2.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("pinned columns differ from testdata/e1e2.golden\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// pinnedColumns reduces pbibench's tables to one line per row: the
// experiment, dataset and algorithm, then pageIO, predIO ("-" on MIN_RGN
// rows), pairs and falsehits.
func pinnedColumns(t *testing.T, tables string) string {
	t.Helper()
	var b strings.Builder
	var exp string
	sc := bufio.NewScanner(strings.NewReader(tables))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "== "); ok {
			exp, _, _ = strings.Cut(rest, ":")
			continue
		}
		// dataset algorithm elapsed pageIO predIO pairs falsehits improv
		f := strings.Fields(line)
		if len(f) != 8 || f[0] == "dataset" {
			continue
		}
		pred := f[4]
		if f[1] == "MIN_RGN" {
			pred = "-"
		}
		fmt.Fprintf(&b, "%s %s %s pageIO=%s predIO=%s pairs=%s falsehits=%s\n", exp, f[0], f[1], f[3], pred, f[5], f[6])
	}
	if b.Len() == 0 {
		t.Fatalf("no table rows in pbibench output:\n%s", tables)
	}
	return b.String()
}
