// Package relationtest stores relations in every page layout a scan must
// read, for the tests that run over all of them. One of the three the
// system no longer produces — databases stored with the varint-delta pages
// of earlier versions must keep opening — so an encoder for it lives here.
package relationtest

import (
	"encoding/binary"

	"github.com/pbitree/pbitree/internal/buffer"
	"github.com/pbitree/pbitree/internal/relation"
	"github.com/pbitree/pbitree/internal/storage"
	"github.com/pbitree/pbitree/pbicode"
)

// Formats names the page layouts: the paper's fixed-width records, the
// varint deltas earlier versions wrote, and packed pages.
var Formats = []string{"fixed", "varint", "packed"}

// Store writes recs as a relation of the named format. Relations derived
// from it inherit the layout it writes: fixed under "fixed", packed
// otherwise.
func Store(pool *buffer.Pool, name, format string, recs []relation.Rec) (*relation.Relation, error) {
	if format == "varint" {
		return Varint(pool, name, recs)
	}
	r := relation.New(pool, name)
	r.SetPaperLayout(format == "fixed")
	return r, r.Append(recs...)
}

func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

// Varint stores recs as a relation of legacy varint pages (format byte 1),
// byte for byte what the removed encoder wrote: an 8-byte header
// [count uint16][1][0][used uint16][0 0], then per record the zigzag-varint
// deltas of code and aux against the previous record, a page closed once
// fewer than 20 bytes remain.
func Varint(pool *buffer.Pool, name string, recs []relation.Rec) (*relation.Relation, error) {
	const header, maxRec = 8, 2 * binary.MaxVarintLen64
	var pages []storage.PageID
	var span pbicode.Region
	for i := 0; i < len(recs); {
		f, err := pool.NewPage()
		if err != nil {
			return nil, err
		}
		pages = append(pages, f.ID)
		p := f.Data
		off, n := header, 0
		var prevCode, prevAux uint64
		for i < len(recs) && off+maxRec <= len(p) && n < 1<<16-1 {
			rec := recs[i]
			off += binary.PutUvarint(p[off:], zigzag(int64(uint64(rec.Code)-prevCode)))
			off += binary.PutUvarint(p[off:], zigzag(int64(rec.Aux-prevAux)))
			prevCode, prevAux = uint64(rec.Code), rec.Aux
			if s := rec.Code.Start(); i == 0 || s < span.Start {
				span.Start = s
			}
			if e := rec.Code.End(); i == 0 || e > span.End {
				span.End = e
			}
			n++
			i++
		}
		binary.LittleEndian.PutUint16(p, uint16(n))
		p[2] = 1
		binary.LittleEndian.PutUint16(p[4:], uint16(off-header))
		pool.Unpin(f, true)
	}
	return relation.Attach(pool, name, pages, int64(len(recs)), span, false), nil
}
