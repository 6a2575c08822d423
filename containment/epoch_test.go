package containment

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/pbitree/pbitree/pbicode"
)

func codesOf(us []uint64) []pbicode.Code {
	cs := make([]pbicode.Code, len(us))
	for i, u := range us {
		cs[i] = pbicode.Code(u)
	}
	return cs
}

// buildEpochBase builds and saves a small v1 database and returns its path
// plus the code sets it stored.
func buildEpochBase(t testing.TB) (string, []uint64, []uint64) {
	return buildEpochBaseN(t, 600)
}

// buildEpochBaseN is buildEpochBase with n codes per relation.
func buildEpochBaseN(t testing.TB, n int) (string, []uint64, []uint64) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "base.pbidb")
	rng := rand.New(rand.NewSource(42))
	aCodes := randCodes(rng, n, 12)
	dCodes := randCodes(rng, n, 12)
	e, err := NewEngine(Config{Path: path, PageSize: 512, BufferPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	a, err := e.Load("A", aCodes)
	if err != nil {
		t.Fatal(err)
	}
	d, err := e.Load("D", dCodes)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Save(a, d); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	var as, ds []uint64
	for _, c := range aCodes {
		as = append(as, uint64(c))
	}
	for _, c := range dCodes {
		ds = append(ds, uint64(c))
	}
	return path, as, ds
}

func TestSaveEpochAndReopenChain(t *testing.T) {
	path, aCodes, _ := buildEpochBase(t)
	dir := filepath.Dir(path)

	// Epoch 1: reload A with extra codes through a read-only engine; the
	// new relation's pages land in the overlay and become the delta.
	e1, rels1, err := Open(Config{Path: path, BufferPages: 32, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if e1.Epoch() != 0 || len(e1.DeltaChain()) != 0 {
		t.Fatalf("v1 open: epoch %d chain %v", e1.Epoch(), e1.DeltaChain())
	}
	grown := append([]uint64(nil), aCodes...)
	grown = append(grown, grown[0]) // duplicate code is fine for a relation
	newA, err := e1.Load("A", codesOf(grown))
	if err != nil {
		t.Fatal(err)
	}
	ep1 := filepath.Join(dir, "epoch-000001.pbidb")
	if err := e1.SaveEpoch(ep1, 1, nil, newA, rels1["D"]); err != nil {
		t.Fatal(err)
	}
	if e1.Epoch() != 1 || len(e1.DeltaChain()) != 1 {
		t.Fatalf("after SaveEpoch: epoch %d chain %v", e1.Epoch(), e1.DeltaChain())
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}
	// The epoch is virtual: catalog + delta, no page file of its own.
	if _, err := os.Stat(ep1); !os.IsNotExist(err) {
		t.Fatalf("epoch page file exists: %v", err)
	}

	// Reopen epoch 1 read-only and check the grown relation; then chain a
	// second epoch on top of it.
	e2, rels2, err := Open(Config{Path: ep1, BufferPages: 32, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if e2.Epoch() != 1 || len(e2.DeltaChain()) != 1 {
		t.Fatalf("epoch 1 open: epoch %d chain %v", e2.Epoch(), e2.DeltaChain())
	}
	if got := rels2["A"].Len(); got != int64(len(grown)) {
		t.Fatalf("epoch 1 relation A: %d codes, want %d", got, len(grown))
	}
	res, err := e2.Join(rels2["A"], rels2["D"], JoinOptions{Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) == 0 {
		t.Fatal("epoch 1 join returned nothing")
	}
	// Temp state from the join must be dropped before the next commit.
	if err := e2.ReleaseTemp(); err != nil {
		t.Fatal(err)
	}
	grown2 := append(append([]uint64(nil), grown...), grown[1])
	newA2, err := e2.Load("A", codesOf(grown2))
	if err != nil {
		t.Fatal(err)
	}
	ep2 := filepath.Join(dir, "epoch-000002.pbidb")
	if err := e2.SaveEpoch(ep2, 2, []DocInfo{{Name: "doc0", Root: codesOf(grown)[0], Elements: 3}}, newA2, rels2["D"]); err != nil {
		t.Fatal(err)
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}

	e3, rels3, err := Open(Config{Path: ep2, BufferPages: 32, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e3.Close()
	if e3.Epoch() != 2 || len(e3.DeltaChain()) != 2 {
		t.Fatalf("epoch 2 open: epoch %d chain %v", e3.Epoch(), e3.DeltaChain())
	}
	if e3.BasePath() != path {
		t.Fatalf("epoch 2 base %s, want %s", e3.BasePath(), path)
	}
	if got := rels3["A"].Len(); got != int64(len(grown2)) {
		t.Fatalf("epoch 2 relation A: %d codes, want %d", got, len(grown2))
	}
	if docs, err := e3.Documents(); err != nil || len(docs) != 1 || docs[0].Name != "doc0" {
		t.Fatalf("epoch 2 documents: %+v, %v", docs, err)
	}

	// Epoch databases: fsck verifies base pages and the delta chain.
	rep, err := Fsck(ep2)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || len(rep.Deltas) != 2 || rep.Epoch != 2 {
		t.Fatalf("fsck: ok=%v deltas=%d epoch=%d", rep.OK(), len(rep.Deltas), rep.Epoch)
	}
	// Corrupt the first delta: fsck flags it, OK() turns false.
	buf, err := os.ReadFile(ep1 + ".delta")
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0x01
	if err := os.WriteFile(ep1+".delta", buf, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = Fsck(ep2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || rep.Deltas[0].OK || !rep.Deltas[1].OK {
		t.Fatalf("fsck after corruption: %+v", rep.Deltas)
	}
}

func TestEpochCatalogRefusesWritableOpen(t *testing.T) {
	path, _, _ := buildEpochBase(t)
	e, rels, err := Open(Config{Path: path, BufferPages: 32, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	ep := filepath.Join(filepath.Dir(path), "epoch-000001.pbidb")
	if err := e.SaveEpoch(ep, 1, nil, rels["A"], rels["D"]); err != nil {
		t.Fatal(err)
	}
	e.Close()
	if _, _, err := Open(Config{Path: ep, BufferPages: 32}); err == nil {
		t.Fatal("epoch catalog opened writable")
	}
	// SaveEpoch on a writable engine is refused.
	we, _, err := Open(Config{Path: path, BufferPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer we.Close()
	if err := we.SaveEpoch(ep, 2, nil); err == nil {
		t.Fatal("SaveEpoch accepted a writable engine")
	}
}

// buildDiffChain commits n epochs over a small buildEpochBase database, each
// re-storing A with one more code and carrying D over, and returns the
// base and the epochs' paths.
func buildDiffChain(t testing.TB, n int) (string, []string) {
	t.Helper()
	path, aCodes, _ := buildEpochBaseN(t, 150)
	e, rels, err := Open(Config{Path: path, BufferPages: 32, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var eps []string
	for i := 1; i <= n; i++ {
		a, err := loadOverList(t, e, rels["A"], "A", codesOf(append(slices.Clone(aCodes), aCodes[:i]...)))
		if err != nil {
			t.Fatal(err)
		}
		ep := filepath.Join(filepath.Dir(path), fmt.Sprintf("epoch-%06d.pbidb", i))
		docs := []DocInfo{{Name: "doc", Root: pbicode.Code(aCodes[0]), Elements: int64(i)}}
		if err := e.SaveEpoch(ep, int64(i), docs, a, rels["D"]); err != nil {
			t.Fatal(err)
		}
		rels["A"] = a
		eps = append(eps, ep)
	}
	return path, eps
}

// TestBrokenChainNamesItsFile: a diff catalog that is missing, or whose
// parent is at another epoch than it names, stops Open, Advance and Fsck,
// and each names the catalog file at fault: nothing answers from a broken
// chain.
func TestBrokenChainNamesItsFile(t *testing.T) {
	_, eps := buildDiffChain(t, 3)
	follower, _, err := Open(Config{Path: eps[0], BufferPages: 32, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	broken := func(what, culprit string) {
		t.Helper()
		if _, _, err := Open(Config{Path: eps[2], BufferPages: 32, ReadOnly: true}); err == nil || !strings.Contains(err.Error(), culprit) {
			t.Fatalf("%s: open: %v, want an error naming %s", what, err, culprit)
		}
		if _, err := follower.Advance(eps[2]); err == nil || !strings.Contains(err.Error(), culprit) {
			t.Fatalf("%s: advance: %v, want an error naming %s", what, err, culprit)
		}
		rep, err := Fsck(eps[2])
		if err != nil || rep.OK() || !strings.Contains(rep.Chain, culprit) {
			t.Fatalf("%s: fsck %+v, %v; want a broken chain naming %s", what, rep, err, culprit)
		}
	}
	cat2 := catalogPath(eps[1])
	if err := os.Rename(cat2, cat2+".away"); err != nil {
		t.Fatal(err)
	}
	broken("missing diff", cat2)
	if err := os.Rename(cat2+".away", cat2); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(cat2)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cat2, bytes.Replace(data, []byte(`"parent_epoch":1`), []byte(`"parent_epoch":0`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	broken("mis-parented diff", cat2)
	if err := os.WriteFile(cat2, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Healed, the chain folds again, and the follower advances over it.
	if rep, err := Fsck(eps[2]); err != nil || !rep.OK() {
		t.Fatalf("fsck of the healed chain: %+v, %v", rep, err)
	}
	if _, err := follower.Advance(eps[2]); err != nil {
		t.Fatal(err)
	}
}

// TestDocumentsDecodeError: a documents field that does not decode — in a
// full catalog or in a diff — is an error from Documents, not an empty
// document list, and the diff's error names its catalog.
func TestDocumentsDecodeError(t *testing.T) {
	path, eps := buildDiffChain(t, 2)
	corrupt := func(file, from, to string) []byte {
		t.Helper()
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(data, []byte(from)) {
			t.Fatalf("%s holds no %s", file, from)
		}
		if err := os.WriteFile(file, bytes.Replace(data, []byte(from), []byte(to), 1), 0o644); err != nil {
			t.Fatal(err)
		}
		return data
	}
	documents := func(what, want string) {
		t.Helper()
		e, _, err := Open(Config{Path: eps[1], BufferPages: 32, ReadOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if docs, err := e.Documents(); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: documents %+v, %v; want an error naming %s", what, docs, err, want)
		}
	}
	// The base was saved with no documents; give it columns that disagree.
	data := corrupt(catalogPath(path), `"relations"`, `"documents":{"names":["a"],"roots":[1,2],"elements":[3]},"relations"`)
	documents("full catalog", catalogPath(path))
	if err := os.WriteFile(catalogPath(path), data, 0o644); err != nil {
		t.Fatal(err)
	}
	corrupt(catalogPath(eps[1]), `"runs":[`, `"runs":[7,`)
	documents("diff catalog", catalogPath(eps[1]))
}
