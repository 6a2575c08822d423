package containment

import (
	"bytes"
	"encoding/base64"
	"math"
	"os"
	"testing"
)

// FuzzCatalog feeds arbitrary bytes as one catalog of an epoch chain —
// the base's version-1 catalog, a full version-2 epoch catalog, or a diff
// catalog at the chain's end or in its middle — through Open, Advance and
// Fsck. Each must only ever return an error: never panic, and never attach
// a page beyond the extent of the image the chain describes.
func FuzzCatalog(f *testing.F) {
	// base ← epoch 1 (full, as earlier versions wrote it) ← 2 ← 3 (diffs)
	base, eps := buildDiffChain(f, 3)
	writeFullCatalog(f, eps[0])
	links := []string{eps[2], eps[1], eps[0], base}
	originals := make([][]byte, len(links))
	for i, link := range links {
		data, err := os.ReadFile(catalogPath(link))
		if err != nil {
			f.Fatal(err)
		}
		originals[i] = data
		f.Add(uint8(i), data)
	}
	f.Add(uint8(1), bytes.Replace(originals[1], []byte(`"keep":`), []byte(`"keep":9`), 1))
	f.Add(uint8(3), bytes.ReplaceAll(originals[3], []byte(`"count":`), []byte(`"ordered":true,"count":`)))
	f.Add(uint8(0), bytes.Replace(originals[0], []byte(`{"version"`), []byte(`{"dropped":["Z"],"version"`), 1))
	f.Add(uint8(0), []byte(`{"version":3,"page_size":512,"epoch":3,"parent":"epoch-000002.pbidb","parent_epoch":2,"delta":"epoch-000003.pbidb.delta","relations":[{"name":"A","keep":1,"pages":[99999]}],"documents":{"runs":[0,5]}}`))
	// Fences: claimed over pages out of order, fewer than the pages, past
	// the largest Start, in a diff over a parent that records none, and
	// ones that do not decode.
	fences := func(f ...uint64) []byte {
		return []byte(`"ordered":true,"fences":"` + base64.StdEncoding.EncodeToString(packFences(f, 0)) + `",`)
	}
	f.Add(uint8(3), bytes.ReplaceAll(originals[3], []byte(`"count":`), append(fences(1, 0, 0, 0, 0, 0), `"count":`...)))
	f.Add(uint8(3), bytes.ReplaceAll(originals[3], []byte(`"count":`), append(fences(7), `"count":`...)))
	f.Add(uint8(0), bytes.Replace(originals[0], []byte(`"count":`), append(fences(math.MaxUint64, 1), `"count":`...), 1))
	f.Add(uint8(1), bytes.Replace(originals[1], []byte(`"keep":`), append(fences(3), `"keep":`...), 1))
	f.Add(uint8(3), bytes.ReplaceAll(originals[3], []byte(`"count":`), []byte(`"ordered":true,"fences":"gA==","count":`)))
	f.Add(uint8(3), bytes.ReplaceAll(originals[3], []byte(`"count":`), []byte(`"ordered":true,"fences":"!!","count":`)))
	// The key an older Engine.Sort wrote, which is read and ignored.
	f.Add(uint8(3), bytes.ReplaceAll(originals[3], []byte(`"count":`), []byte(`"sorted":true,"count":`)))

	f.Fuzz(func(t *testing.T, link uint8, data []byte) {
		i := int(link) % len(links)
		if err := os.WriteFile(catalogPath(links[i]), data, 0o644); err != nil {
			t.Fatal(err)
		}
		defer os.WriteFile(catalogPath(links[i]), originals[i], 0o644) //nolint:errcheck // restored for the next input
		within := func(what string, e *Engine) {
			t.Helper()
			extent := e.disk.NumPages()
			for name, sr := range e.at.rels {
				for _, id := range sr.r.rel.Pages() {
					if id < 0 || id >= extent {
						t.Fatalf("%s: relation %s attached page %d beyond the %d-page image", what, name, id, extent)
					}
				}
			}
			e.Documents() //nolint:errcheck // must not panic; an error is an answer
		}
		if e, _, err := Open(Config{Path: eps[2], BufferPages: 16, ReadOnly: true}); err == nil {
			within("open", e)
			e.Close()
		}
		for _, from := range []string{base, eps[1]} {
			e, _, err := Open(Config{Path: from, BufferPages: 16, ReadOnly: true})
			if err != nil {
				continue
			}
			if _, err := e.Advance(eps[2]); err == nil {
				within("advance", e)
			}
			e.Close()
		}
		Fsck(eps[2]) //nolint:errcheck // must not panic
	})
}
