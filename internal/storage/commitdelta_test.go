package storage_test

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/pbitree/pbitree/containment"
	"github.com/pbitree/pbitree/internal/storage"
	"github.com/pbitree/pbitree/pbicode"
)

func init() { storage.CommitDelta = commitDelta }

// commitDelta saves two relations in document order, appends to one of
// them in an epoch over the saved database, and returns the epoch's delta.
func commitDelta(dir string) ([]byte, error) {
	codes := make([]pbicode.Code, 600)
	for i := range codes {
		codes[i] = pbicode.Code(2*i + 1) // leaves, in document order
	}
	path := filepath.Join(dir, "base.db")
	e, err := containment.NewEngine(containment.Config{Path: path, PageSize: 512, BufferPages: 16})
	if err != nil {
		return nil, err
	}
	a, err := e.Load("A", codes[:500])
	if err != nil {
		return nil, err
	}
	d, err := e.Load("D", codes[:300])
	if err != nil {
		return nil, err
	}
	if err := e.Save(a, d); err != nil {
		return nil, err
	}
	if err := e.Close(); err != nil {
		return nil, err
	}
	ro, rels, err := containment.Open(containment.Config{Path: path, BufferPages: 16, ReadOnly: true})
	if err != nil {
		return nil, err
	}
	defer ro.Close()
	a, err = ro.LoadOver(rels["A"], "A", 500, codes[500:])
	if err != nil {
		return nil, err
	}
	if a.SharedPages() == 0 || !a.Ordered() {
		return nil, fmt.Errorf("the re-stored relation shares %d pages, ordered %v", a.SharedPages(), a.Ordered())
	}
	ep := filepath.Join(dir, "epoch-000001.db")
	if err := ro.SaveEpoch(ep, 1, nil, a, rels["D"]); err != nil {
		return nil, err
	}
	return os.ReadFile(ep + ".delta")
}
