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
	return relation.Attach(pool, name, pages, int64(len(recs)), span, false, nil), nil
}

// Claims names the order claims a stored relation can carry: the loader's,
// with fences (relation.Fences), the one a catalog without fences makes,
// taken on trust (relation.OrderTrusted), and none.
var Claims = []string{"fenced", "trusted", "unordered"}

// Claim re-attaches r's pages under the named claim, whatever order its
// records are in: under "fenced" with the fences its pages hold, read from
// each page's first record, as a catalog the loader wrote records them.
func Claim(r *relation.Relation, claim string) (*relation.Relation, error) {
	var fences []uint64
	if claim == "fenced" {
		fences = make([]uint64, r.NumPages())
		next := ^uint64(0) // an empty page takes the next one's fence
		for i := len(fences) - 1; i >= 0; i-- {
			rec, err := r.FirstRecord(i)
			if err != nil {
				return nil, err
			}
			if rec.Code != 0 {
				next = rec.Code.Start()
			}
			fences[i] = next
		}
	}
	span, _ := r.Span()
	return relation.Attach(r.Pool(), r.Name(), r.Pages(), r.NumRecords(), span, claim != "unordered", fences), nil
}

// EmptyTail returns r with an empty page after its last, attached with no
// claim of order: Claim gives it one.
func EmptyTail(r *relation.Relation) (*relation.Relation, error) {
	f, err := r.Pool().NewPage()
	if err != nil {
		return nil, err
	}
	r.Pool().Unpin(f, true)
	span, _ := r.Span()
	return relation.Attach(r.Pool(), r.Name(), append(r.Pages(), f.ID), r.NumRecords(), span, false, nil), nil
}
