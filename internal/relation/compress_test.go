package relation_test

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/pbitree/pbitree/internal/buffer"
	"github.com/pbitree/pbitree/internal/relation"
	"github.com/pbitree/pbitree/internal/relation/relationtest"
	"github.com/pbitree/pbitree/internal/storage"
	"github.com/pbitree/pbitree/pbicode"
)

type Rec = relation.Rec

func newPool(t testing.TB, pageSize, b int) *buffer.Pool {
	t.Helper()
	d := storage.NewMemDisk(pageSize, storage.CostModel{})
	t.Cleanup(func() { d.Close() })
	return buffer.New(d, b)
}

var formats = relationtest.Formats

// store writes recs as a relation of the named format.
func store(t testing.TB, pool *buffer.Pool, name, format string, recs []Rec) *relation.Relation {
	t.Helper()
	r, err := relationtest.Store(pool, name, format, recs)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// roundTrip stores recs in the given format and reads them back through
// both the row scanner and the batch scanner, failing on any mismatch.
func roundTrip(t *testing.T, pool *buffer.Pool, name, format string, recs []Rec) *relation.Relation {
	t.Helper()
	r := store(t, pool, name, format, recs)
	if r.NumRecords() != int64(len(recs)) {
		t.Fatalf("NumRecords = %d, want %d", r.NumRecords(), len(recs))
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("ReadAll: %d records, want %d", len(got), len(recs))
	}
	for i := range got {
		if got[i] != recs[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], recs[i])
		}
	}
	var batch []Rec
	bs := r.BatchScan()
	for bs.Next() {
		codes, aux := bs.Codes(), bs.Aux()
		for i := range codes {
			batch = append(batch, Rec{Code: pbicode.Code(codes[i]), Aux: aux[i]})
		}
	}
	if err := bs.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batch, recs) && !(len(batch) == 0 && len(recs) == 0) {
		t.Fatalf("batch scan diverges from input (%d vs %d records)", len(batch), len(recs))
	}
	return r
}

// sortedRecs returns n records of ascending codes with gaps below maxGap,
// Aux = ordinal: the shape of a stored tag relation.
func sortedRecs(n int, maxGap int, seed int64) []Rec {
	recs := make([]Rec, n)
	c := uint64(0)
	rng := rand.New(rand.NewSource(seed))
	for i := range recs {
		c += uint64(rng.Intn(maxGap) + 1)
		recs[i] = Rec{Code: pbicode.Code(c), Aux: uint64(i)}
	}
	return recs
}

func TestCompressedRoundTripSorted(t *testing.T) {
	recs := sortedRecs(2000, 64, 1)
	pages := map[string]int64{}
	for _, format := range formats {
		t.Run(format, func(t *testing.T) {
			r := roundTrip(t, newPool(t, 256, 8), "sorted", format, recs)
			li, err := r.Layout()
			if err != nil {
				t.Fatal(err)
			}
			mine := map[string]int64{"fixed": li.FixedPages, "varint": li.VarintPages, "packed": li.PackedPages}[format]
			if mine != li.Pages || li.FixedPages+li.VarintPages+li.PackedPages != li.Pages {
				t.Fatalf("layout: %+v, want all pages %s", li, format)
			}
			if li.Records != int64(len(recs)) {
				t.Fatalf("layout records = %d, want %d", li.Records, len(recs))
			}
			if format == "fixed" && li.Pages != li.FixedEquivPages {
				t.Fatalf("fixed layout: %d pages, %d fixed-equivalent", li.Pages, li.FixedEquivPages)
			}
			pages[format] = li.Pages
		})
	}
	// Aux = ordinal costs the packed layout nothing and the codes one byte
	// each: it beats the varint layout's two bytes a record, which beat 16.
	if !(pages["packed"] < pages["varint"] && pages["varint"] < pages["fixed"]) {
		t.Fatalf("pages per format = %v, want packed < varint < fixed", pages)
	}
}

// TestCompressedRoundTripAdversarial drives the wrapping-delta layouts with
// sequences deltas hate: random 64-bit values, alternating extremes, and
// descending codes. Every one must round-trip exactly in every format.
func TestCompressedRoundTripAdversarial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cases := map[string][]Rec{}

	random := make([]Rec, 500)
	for i := range random {
		random[i] = Rec{Code: pbicode.Code(rng.Uint64() | 1), Aux: rng.Uint64()}
	}
	cases["random64"] = random

	extremes := make([]Rec, 200)
	for i := range extremes {
		if i%2 == 0 {
			extremes[i] = Rec{Code: 1, Aux: 0}
		} else {
			extremes[i] = Rec{Code: pbicode.Code(^uint64(0)), Aux: ^uint64(0)}
		}
	}
	cases["extremes"] = extremes

	desc := make([]Rec, 300)
	c := ^uint64(0)
	for i := range desc {
		desc[i] = Rec{Code: pbicode.Code(c), Aux: uint64(300 - i)}
		c -= uint64(rng.Intn(1 << 40))
	}
	cases["descending"] = desc

	for name, recs := range cases {
		t.Run(name, func(t *testing.T) {
			for _, format := range formats {
				t.Run(format, func(t *testing.T) { roundTrip(t, newPool(t, 256, 8), name, format, recs) })
			}
		})
	}
}

// TestCompressedTailResume closes and reopens appenders mid-page so the
// packed tail is resumed by decoding it back into the appender's columns,
// including across many one-record Append calls (the RelationSink pattern),
// and a resumed page that turns out to be full is left as it was.
func TestCompressedTailResume(t *testing.T) {
	pool := newPool(t, 256, 8)
	r := relation.New(pool, "resume")
	var want []Rec
	c := uint64(0)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 400; i++ {
		c += uint64(rng.Intn(1<<20) + 1)
		rec := Rec{Code: pbicode.Code(c), Aux: rng.Uint64()}
		want = append(want, rec)
		// One appender per record: every append resumes the tail.
		if err := r.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed appends diverge (%d vs %d records)", len(got), len(want))
	}
	// The same records through one appender fill the same pages: resuming
	// neither wastes room nor overfills.
	one := store(t, newPool(t, 256, 8), "one", "packed", want)
	if r.NumPages() != one.NumPages() || r.NumPages() < 10 {
		t.Fatalf("%d pages appended one record at a time, %d at once", r.NumPages(), one.NumPages())
	}
}

// TestMixedFormatRelation grows one relation through all three layouts —
// varint pages from an earlier version, then the paper's layout, then
// packed, then the paper's again — and scans must stitch them together
// seamlessly, each appender leaving a tail of another layout alone.
func TestMixedFormatRelation(t *testing.T) {
	pool := newPool(t, 256, 8)
	all := sortedRecs(5*137, 100, 4)
	r := store(t, pool, "mixed", "varint", all[:137])
	for phase := 1; phase < 5; phase++ {
		r.SetPaperLayout(phase%2 == 1)
		if err := r.Append(all[phase*137 : (phase+1)*137]...); err != nil {
			t.Fatal(err)
		}
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, all) {
		t.Fatalf("mixed-format scan diverges (%d vs %d records)", len(got), len(all))
	}
	li, err := r.Layout()
	if err != nil {
		t.Fatal(err)
	}
	if li.FixedPages == 0 || li.VarintPages == 0 || li.PackedPages == 0 || li.Records != int64(len(all)) {
		t.Fatalf("expected all three formats present, got %+v", li)
	}
}

func TestScannerReset(t *testing.T) {
	pool := newPool(t, 256, 8)
	recs := make([]Rec, 300)
	for i := range recs {
		recs[i] = Rec{Code: pbicode.Code(2*i + 1), Aux: uint64(i)}
	}
	r := roundTrip(t, pool, "reset", "fixed", recs)
	var s relation.Scanner
	for pass := 0; pass < 3; pass++ {
		s.Reset(r)
		n := 0
		for s.Next() {
			if s.Rec() != recs[n] {
				t.Fatalf("pass %d record %d: got %+v", pass, n, s.Rec())
			}
			n++
		}
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
		if n != len(recs) {
			t.Fatalf("pass %d: %d records", pass, n)
		}
	}
}

func TestBatchScanPages(t *testing.T) {
	recs := sortedRecs(3000, 1<<20, 5)
	for _, format := range formats {
		t.Run(format, func(t *testing.T) {
			r := roundTrip(t, newPool(t, 256, 8), "pages-"+format, format, recs)
			// Striped scan over disjoint page ranges must cover every record
			// exactly once, in order within each stripe.
			pages := int(r.NumPages())
			if pages < 6 {
				t.Fatalf("%d pages: too few to stripe", pages)
			}
			var got []Rec
			var bs relation.BatchScanner
			for lo := 0; lo < pages; lo += 2 {
				bs.ResetPages(r, lo, lo+2)
				for bs.Next() {
					codes, aux := bs.Codes(), bs.Aux()
					for i := range codes {
						got = append(got, Rec{Code: pbicode.Code(codes[i]), Aux: aux[i]})
					}
				}
				if err := bs.Err(); err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(got, recs) {
				t.Fatalf("striped batch scan diverges (%d vs %d records)", len(got), len(recs))
			}
		})
	}
}

// FuzzCompressedPage round-trips fuzz-chosen record sequences through the
// packed appender — at once and one appender per record — and both scanners.
func FuzzCompressedPage(f *testing.F) {
	f.Add(uint64(1), uint64(0), uint64(100), uint64(7), uint8(9))
	f.Add(^uint64(0), ^uint64(0), uint64(1), uint64(0), uint8(50))
	f.Add(uint64(12345), uint64(9), uint64(0x9e3779b97f4a7c15), uint64(1)<<40, uint8(255))
	f.Fuzz(func(t *testing.T, seed, auxSeed, stride, auxStride uint64, n uint8) {
		pool := newPool(t, 256, 8)
		recs := make([]Rec, 3*int(n)+1)
		c, a := seed, auxSeed
		for i := range recs {
			// Code 0 is invalid by the pbicode contract (Appender span
			// tracking calls Start), so pin the low bit.
			recs[i] = Rec{Code: pbicode.Code(c | 1), Aux: a}
			c += stride * uint64(i%7+1)
			a -= auxStride
		}
		r := store(t, pool, "fuzz", "packed", recs)
		got, err := r.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, recs) {
			t.Fatalf("fuzz round-trip diverges (%d vs %d records)", len(got), len(recs))
		}
		single := relation.New(pool, "fuzz.single")
		for _, rec := range recs {
			if err := single.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if got, err = single.ReadAll(); err != nil || !reflect.DeepEqual(got, recs) {
			t.Fatalf("one appender per record diverges (%d vs %d records, err %v)", len(got), len(recs), err)
		}
		if single.NumPages() != r.NumPages() {
			t.Fatalf("%d pages one record at a time, %d at once", single.NumPages(), r.NumPages())
		}
	})
}

// FuzzPageDecode attaches arbitrary bytes as a one-page relation, under each
// format byte and under one no layout uses: a scan must return the records
// the header claims or an error — never panic, never size a buffer from a
// count the payload cannot hold.
func FuzzPageDecode(f *testing.F) {
	const pageSize = 256
	// Seeds: a genuine packed page, the same page torn (its last block's
	// residuals cut short), and a header claiming the uint16 maximum.
	pool := newPool(f, pageSize, 4)
	r := store(f, pool, "seed", "packed", sortedRecs(90, 1<<20, 6)[:60])
	fr, err := pool.Fetch(r.Pages()[0])
	if err != nil {
		f.Fatal(err)
	}
	whole := append([]byte(nil), fr.Data...)
	pool.Unpin(fr, false)
	f.Add(whole, uint8(2))
	torn := append([]byte(nil), whole...)
	torn[4] -= 40 // used shrinks: the width bytes now promise more than is there
	f.Add(torn, uint8(2))
	wide := append([]byte(nil), whole...)
	wide[8+16] = 8 // the first block's code width says 8
	f.Add(wide, uint8(2))
	f.Add([]byte{0xff, 0xff, 0, 0, 3, 0, 0, 0, 1, 2, 3}, uint8(1))
	f.Add([]byte{0xff, 0xff}, uint8(0))
	f.Add(whole, uint8(7))

	f.Fuzz(func(t *testing.T, image []byte, format uint8) {
		pool := newPool(t, pageSize, 4)
		fr, err := pool.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		copy(fr.Data, image)
		fr.Data[2] = format
		count := int(fr.Data[0]) | int(fr.Data[1])<<8
		pool.Unpin(fr, true)
		r := relation.Attach(pool, "fuzz", []storage.PageID{fr.ID}, int64(count), pbicode.Region{}, false, nil)
		recs, err := r.ReadAll()
		if err != nil {
			return
		}
		if format > 2 {
			t.Fatalf("format byte %d decoded %d records", format, len(recs))
		}
		if len(recs) != count || count > relation.MaxPageRecs(pageSize) {
			t.Fatalf("decoded %d records from a header claiming %d", len(recs), count)
		}
		bs := r.BatchScan()
		n := 0
		for bs.Next() {
			n += len(bs.Codes())
		}
		if bs.Err() != nil || n != count {
			t.Fatalf("batch scan: %d records, err %v; row scan had %d", n, bs.Err(), count)
		}
	})
}

// TestFirstRecord: in every format, FirstRecord returns each page's first
// record as a scan decodes it, without decoding the page.
func TestFirstRecord(t *testing.T) {
	recs := make([]Rec, 2000)
	for i := range recs {
		recs[i] = Rec{Code: pbicode.Code(3*i*i + 1), Aux: uint64(i)}
	}
	for _, format := range formats {
		r := store(t, newPool(t, 256, 8), "R", format, recs)
		if r.NumPages() < 3 {
			t.Fatalf("%s: %d pages; the test wants several", format, r.NumPages())
		}
		for i := 0; i < int(r.NumPages()); i++ {
			s := r.BatchScanPages(i, i+1)
			if !s.Next() {
				t.Fatalf("%s: page %d is empty (%v)", format, i, s.Err())
			}
			want := Rec{Code: pbicode.Code(s.Codes()[0]), Aux: s.Aux()[0]}
			s.Close()
			if got, err := r.FirstRecord(i); err != nil || got != want {
				t.Fatalf("%s: FirstRecord(%d) = %v, %v; a scan reads %v", format, i, got, err, want)
			}
		}
	}
}
