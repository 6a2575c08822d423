package containment

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/pbitree/pbitree/xmltree"
)

// buildCancelDB saves a database big enough that a containment join emits
// well past the emission loop's 1024-pair cancellation poll, so a cancel
// fired from Emit is guaranteed to land mid-join.
func buildCancelDB(t *testing.T) (string, int64) {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("<doc>")
	for i := 0; i < 800; i++ {
		sb.WriteString("<section><title>t</title><figure/><para><figure/><figure/></para></section>")
	}
	sb.WriteString("</doc>")
	doc, err := xmltree.ParseString(sb.String(), xmltree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cancel.db")
	eng, err := NewEngine(Config{Path: path, TreeHeight: doc.Height})
	if err != nil {
		t.Fatal(err)
	}
	a, err := eng.Load("tag:section", doc.Codes("section"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := eng.Load("tag:figure", doc.Codes("figure"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Join(a, d, JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count < 2048 {
		t.Fatalf("cancel DB join count %d too small to outrun the 1024-pair poll", res.Count)
	}
	if err := eng.Save(a, d); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	return path, res.Count
}

// TestJoinContextCancel cancels a join deterministically — the Emit
// callback fires the cancel, so the abort lands mid-emission regardless of
// timing — and asserts the robustness contract: the error matches both
// vocabularies, Classify names it, a partial Result comes back, and the
// engine holds zero temporary pages afterwards (the failed join released
// them itself).
func TestJoinContextCancel(t *testing.T) {
	path, want := buildCancelDB(t)
	eng, rels, err := Open(Config{Path: path, ReadOnly: true, BufferPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	a, d := rels["tag:section"], rels["tag:figure"]

	for _, alg := range []Algorithm{Auto, MHCJRollup, VPJ, StackTree, MPMGJN} {
		ctx, cancel := context.WithCancel(context.Background())
		emitted := int64(0)
		res, err := eng.JoinContext(ctx, a, d, JoinOptions{
			Algorithm: alg,
			Emit: func(Pair) error {
				if emitted++; emitted == 1 {
					cancel()
				}
				return nil
			},
		})
		cancel()
		// The emission loop polls every 1024 pairs and the pool on every
		// page request; a tiny join may still complete. This workload emits
		// thousands of pairs across many pages, so the abort must land.
		if err == nil {
			t.Fatalf("alg %v: join completed (%d pairs) despite cancel", alg, res.Count)
		}
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("alg %v: error %v, want ErrCanceled ∧ context.Canceled", alg, err)
		}
		if got := Classify(err); got != FailCanceled {
			t.Fatalf("alg %v: Classify = %v, want FailCanceled", alg, got)
		}
		if res == nil {
			t.Fatalf("alg %v: no partial result on cancellation", alg)
		}
		if res.Count >= want {
			t.Fatalf("alg %v: partial count %d not less than full count %d", alg, res.Count, want)
		}
		if n := eng.TempPages(); n != 0 {
			t.Fatalf("alg %v: %d temp pages leaked after canceled join", alg, n)
		}
	}

	// The engine is still healthy: the same join completes normally.
	res, err := eng.Join(a, d, JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want {
		t.Fatalf("post-cancel join count = %d, want %d", res.Count, want)
	}
}

// TestJoinContextDeadline runs a join under an already-expired deadline
// and asserts the deadline vocabulary end to end.
func TestJoinContextDeadline(t *testing.T) {
	path, want := buildTestDB(t)
	eng, rels, err := Open(Config{Path: path, ReadOnly: true, BufferPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	a, d := rels["tag:section"], rels["tag:figure"]

	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	_, err = eng.JoinContext(ctx, a, d, JoinOptions{})
	if err == nil {
		t.Fatal("join completed despite expired deadline")
	}
	if !errors.Is(err, ErrDeadlineExceeded) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v, want ErrDeadlineExceeded ∧ context.DeadlineExceeded", err)
	}
	if got := Classify(err); got != FailDeadline {
		t.Fatalf("Classify = %v, want FailDeadline", got)
	}
	if n := eng.TempPages(); n != 0 {
		t.Fatalf("%d temp pages leaked after deadline abort", n)
	}

	res, err := eng.Join(a, d, JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want {
		t.Fatalf("post-deadline join count = %d, want %d", res.Count, want)
	}
}

// TestAnalyzeContextPartial asserts an aborted traced join still yields a
// usable partial EXPLAIN ANALYZE whose root span is annotated with the
// abort cause.
func TestAnalyzeContextPartial(t *testing.T) {
	path, _ := buildCancelDB(t)
	eng, rels, err := Open(Config{Path: path, ReadOnly: true, BufferPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	ctx, cancel := context.WithCancel(context.Background())
	an, err := eng.AnalyzeContext(ctx, rels["tag:section"], rels["tag:figure"], JoinOptions{
		Algorithm: StackTree,
		Emit: func(Pair) error {
			cancel()
			return nil
		},
	})
	cancel()
	if err == nil {
		t.Fatal("analyze completed despite cancel")
	}
	if an == nil || an.Result == nil {
		t.Fatal("no partial analysis on cancellation")
	}
	root := an.SpanTree()
	if root == nil {
		t.Fatal("no span tree on canceled analyze")
	}
	if root.Detail != "canceled" {
		t.Fatalf("root span detail = %q, want \"canceled\"", root.Detail)
	}
}

// TestQueryContextCancel asserts the path front end aborts between and
// inside steps.
func TestQueryContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng, err := NewEngine(Config{BufferPages: 32, TreeHeight: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	doc, err := xmltree.ParseString("<a><b><c/></b><b><c/></b></a>", xmltree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.QueryContext(ctx, doc, "//a//b//c"); !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryContext error = %v, want context.Canceled", err)
	}
}
