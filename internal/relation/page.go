package relation

import (
	"encoding/binary"
	"fmt"
)

// This file is the heap page codec: the 8-byte header every heap page
// carries, the three record layouts a page can be read in, and the two a
// writer can still produce. Everything above it — appender, scanners,
// fsck — sees a page as two columns of words.

// pageHeader is the per-page header: bytes [0:2] hold the record count,
// byte [2] the page format tag, and bytes [4:6] the used payload size of
// the variable-size layouts. Legacy pages wrote zeros beyond the count,
// which is why pageFixed must stay 0: every page written before the format
// byte existed reads back as fixed-width without rewriting.
const pageHeader = 8

// Page format tags, stored in the header's format byte. The format is
// per-page, not per-relation, so pages of all three coexist in one
// relation (and one database) freely; the byte is the only authority on
// how a page is read.
const (
	pageFixed  = 0 // the paper's layout: 16-byte records
	pageVarint = 1 // legacy, read only: zigzag-varint deltas, record by record
	pagePacked = 2 // what writers emit: per-column frame-of-reference blocks
)

// Packed layout. After the header comes the first record raw (code, aux:
// 16 bytes); the remaining records are stored as deltas against their
// predecessor, column by column, in blocks of packedBlock records. A block
// is [code width][aux width][min code delta int64][min aux delta int64]
// followed by the code residuals and then the aux residuals, each
// delta-min as a little-endian unsigned of width bytes. Widths are 0 (a
// constant stride costs nothing: Aux = ordinal always is one), 1, 2, 3, 4
// or 8. Deltas wrap modulo 2^64, so any word sequence round-trips; sorted
// codes are merely the ones that come out small.
const (
	packedBlock    = 128
	packedBase     = 16
	packedBlockHdr = 18
)

// MaxPageRecs is the most records any heap page of the given size holds.
// The fixed and varint layouts stay below it by construction (16 and at
// least 2 bytes a record); packed pages are closed at it, which keeps a
// decoded page — and so every scan slab and appender buffer — at 8 page
// sizes whatever the data, and the count inside its uint16.
func MaxPageRecs(pageSize int) int { return pageSize / 2 }

// PerPage returns the number of fixed-width records that fit a page of the
// given size: the paper's records per page, and the unit the join kernels
// size their working memory in whatever format the pages on disk have.
func PerPage(pageSize int) int { return (pageSize - pageHeader) / RecSize }

func pageCount(p []byte) int       { return int(binary.LittleEndian.Uint16(p)) }
func setPageCount(p []byte, n int) { binary.LittleEndian.PutUint16(p, uint16(n)) }

func pageFormat(p []byte) int       { return int(p[2]) }
func setPageFormat(p []byte, f int) { p[2] = byte(f) }

// pageUsed is the payload byte count of a varint or packed page (bytes
// beyond the header holding encoded records). Meaningless on fixed pages.
func pageUsed(p []byte) int       { return int(binary.LittleEndian.Uint16(p[4:])) }
func setPageUsed(p []byte, n int) { binary.LittleEndian.PutUint16(p[4:], uint16(n)) }

// PageFormatName classifies a raw page image by its header format byte:
// "fixed", "varint", "packed", or "" for a byte no known layout uses.
func PageFormatName(p []byte) string {
	if len(p) < pageHeader {
		return ""
	}
	switch p[2] {
	case pageFixed:
		return "fixed"
	case pageVarint:
		return "varint"
	case pagePacked:
		return "packed"
	default:
		return ""
	}
}

// pageRecords reads a page's header and returns its record count and
// format after checking that the payload the header describes can hold
// that many records, so that no caller sizes a buffer from a count the
// page cannot justify. It does not look at the payload itself.
func pageRecords(p []byte) (n, format int, err error) {
	if len(p) < pageHeader {
		return 0, 0, fmt.Errorf("page of %d bytes has no header", len(p))
	}
	n, format = pageCount(p), pageFormat(p)
	room := len(p) - pageHeader
	switch format {
	case pageFixed:
		if n*RecSize > room {
			return 0, 0, fmt.Errorf("fixed page claims %d records, %d fit", n, room/RecSize)
		}
		return n, format, nil
	case pageVarint, pagePacked:
	default:
		return 0, 0, fmt.Errorf("unknown page format %d", format)
	}
	used := pageUsed(p)
	if used > room {
		return 0, 0, fmt.Errorf("page claims %d payload bytes of %d", used, room)
	}
	least := 2 * n // varint: two deltas of at least a byte each
	if format == pagePacked && n > 0 {
		least = packedBase + (n-1+packedBlock-1)/packedBlock*packedBlockHdr
	}
	if least > used || n > MaxPageRecs(len(p)) {
		return 0, 0, fmt.Errorf("page claims %d records in %d payload bytes", n, used)
	}
	return n, format, nil
}

// decodePage decodes the records of a page pageRecords accepted into the
// two columns, which must each hold its record count.
func decodePage(p []byte, format int, codes, aux []uint64) error {
	switch format {
	case pageFixed:
		for i := range codes {
			off := pageHeader + i*RecSize
			codes[i] = binary.LittleEndian.Uint64(p[off:])
			aux[i] = binary.LittleEndian.Uint64(p[off+8:])
		}
		return nil
	case pageVarint:
		return decodeVarint(p[pageHeader:pageHeader+pageUsed(p)], codes, aux)
	default:
		return decodePacked(p[pageHeader:pageHeader+pageUsed(p)], codes, aux)
	}
}

// CheckPage decodes a raw heap page image the way a scan would and
// reports its format name, its records' codes and, if so, how its header
// and payload disagree. Offline tools (pbifsck) verify catalogued pages
// with it without a Relation handle.
func CheckPage(p []byte) (format string, codes []uint64, err error) {
	n, f, err := pageRecords(p)
	if err != nil {
		return PageFormatName(p), nil, err
	}
	cols := make([]uint64, 2*n)
	if err := decodePage(p, f, cols[:n], cols[n:]); err != nil {
		return PageFormatName(p), nil, err
	}
	return PageFormatName(p), cols[:n], nil
}

func putRec(p []byte, i int, rec Rec) {
	off := pageHeader + i*RecSize
	binary.LittleEndian.PutUint64(p[off:], uint64(rec.Code))
	binary.LittleEndian.PutUint64(p[off+8:], rec.Aux)
}

// unzigzag unfolds the varint layout's sign-folded deltas.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// decodeVarint decodes a legacy varint payload: per record two zigzag
// varints, the code's and the aux's delta against the previous record
// (wrapping arithmetic, so any sequence round-trips). No writer produces
// the layout any more; databases that hold it open unchanged.
func decodeVarint(data []byte, codes, aux []uint64) error {
	off := 0
	var code, ax uint64
	for i := range codes {
		u, k := binary.Uvarint(data[off:])
		if k <= 0 {
			return fmt.Errorf("varint page truncated at record %d/%d", i, len(codes))
		}
		code += uint64(unzigzag(u))
		off += k
		u, k = binary.Uvarint(data[off:])
		if k <= 0 {
			return fmt.Errorf("varint page truncated at record %d/%d", i, len(codes))
		}
		ax += uint64(unzigzag(u))
		off += k
		codes[i] = code
		aux[i] = ax
	}
	return nil
}

// packWidth returns the residual width in bytes for a block whose deltas
// span the given range: the smallest of 0, 1, 2, 3, 4, 8 that holds it.
func packWidth(span uint64) int {
	switch {
	case span == 0:
		return 0
	case span < 1<<8:
		return 1
	case span < 1<<16:
		return 2
	case span < 1<<24:
		return 3
	case span < 1<<32:
		return 4
	default:
		return 8
	}
}

// packedSizer tracks, record by record, the exact payload size the packed
// encoder will produce for the records accepted so far, so the appender
// knows a page is full before it encodes anything.
type packedSizer struct {
	closed int // base record plus every finished block
	m      int // deltas in the open block
	w      int // the open block's residual bytes per record, both columns
	// The open block's signed delta ranges, which set w.
	cLo, cHi, aLo, aHi int64
}

// add accounts for one more record whose deltas against its predecessor
// are dc and da, unless the payload would then exceed room bytes. The
// first record of a page is the base: its deltas are ignored.
func (s *packedSizer) add(dc, da int64, room int) bool {
	if s.closed == 0 {
		if packedBase > room {
			return false
		}
		s.closed = packedBase
		return true
	}
	cLo, cHi, aLo, aHi, w := s.cLo, s.cHi, s.aLo, s.aHi, s.w
	switch {
	case s.m == 0:
		cLo, cHi, aLo, aHi, w = dc, dc, da, da, 0
	case dc < cLo || dc > cHi || da < aLo || da > aHi:
		cLo, cHi, aLo, aHi = min(cLo, dc), max(cHi, dc), min(aLo, da), max(aHi, da)
		w = packWidth(uint64(cHi)-uint64(cLo)) + packWidth(uint64(aHi)-uint64(aLo))
	}
	m := s.m + 1
	size := packedBlockHdr + m*w
	if s.closed+size > room {
		return false
	}
	if m == packedBlock {
		*s = packedSizer{closed: s.closed + size}
		return true
	}
	s.m, s.w, s.cLo, s.cHi, s.aLo, s.aHi = m, w, cLo, cHi, aLo, aHi
	return true
}

// encodePacked writes the records as a packed page into p, header
// included. The caller has sized the page with a packedSizer, so the
// payload fits.
func encodePacked(p []byte, codes, aux []uint64) {
	setPageCount(p, len(codes))
	setPageFormat(p, pagePacked)
	if len(codes) == 0 {
		setPageUsed(p, 0)
		return
	}
	data := p[pageHeader:]
	binary.LittleEndian.PutUint64(data, codes[0])
	binary.LittleEndian.PutUint64(data[8:], aux[0])
	off := packedBase
	for i := 1; i < len(codes); i += packedBlock {
		m := min(packedBlock, len(codes)-i)
		hdr := data[off : off+packedBlockHdr]
		off += packedBlockHdr
		off += packColumn(data[off:], &hdr[0], hdr[2:10], codes[i-1], codes[i:i+m])
		off += packColumn(data[off:], &hdr[1], hdr[10:18], aux[i-1], aux[i:i+m])
	}
	setPageUsed(p, off)
}

// packColumn writes one block column: the width and minimum delta into the
// block header, the residuals into dst, one loop per width as in
// unpackColumn. It returns the residual bytes.
func packColumn(dst []byte, width *byte, minDelta []byte, prev uint64, vals []uint64) int {
	lo, hi := int64(vals[0]-prev), int64(vals[0]-prev)
	for i := 1; i < len(vals); i++ {
		d := int64(vals[i] - vals[i-1])
		lo, hi = min(lo, d), max(hi, d)
	}
	w := packWidth(uint64(hi) - uint64(lo))
	*width = byte(w)
	binary.LittleEndian.PutUint64(minDelta, uint64(lo))
	dst = dst[:len(vals)*w]
	base := uint64(lo)
	switch w {
	case 1:
		for i, v := range vals {
			dst[i] = byte(v - prev - base)
			prev = v
		}
	case 2:
		for i, v := range vals {
			binary.LittleEndian.PutUint16(dst[2*i:], uint16(v-prev-base))
			prev = v
		}
	case 3:
		for i, v := range vals {
			r := v - prev - base
			d := dst[3*i : 3*i+3]
			d[0], d[1], d[2] = byte(r), byte(r>>8), byte(r>>16)
			prev = v
		}
	case 4:
		for i, v := range vals {
			binary.LittleEndian.PutUint32(dst[4*i:], uint32(v-prev-base))
			prev = v
		}
	case 8:
		for i, v := range vals {
			binary.LittleEndian.PutUint64(dst[8*i:], v-prev-base)
			prev = v
		}
	}
	return len(dst)
}

// decodePacked decodes a packed payload into the two columns. Every block
// is bounds-checked once against the payload before its loops run, and the
// payload must end exactly where the last block does.
func decodePacked(data []byte, codes, aux []uint64) error {
	n := len(codes)
	if n == 0 {
		if len(data) != 0 {
			return fmt.Errorf("packed page holds no records but %d payload bytes", len(data))
		}
		return nil
	}
	c, a := binary.LittleEndian.Uint64(data), binary.LittleEndian.Uint64(data[8:])
	codes[0], aux[0] = c, a
	off := packedBase
	for i := 1; i < n; i += packedBlock {
		m := min(packedBlock, n-i)
		if off+packedBlockHdr > len(data) {
			return fmt.Errorf("packed page truncated at record %d/%d", i, n)
		}
		wc, wa := int(data[off]), int(data[off+1])
		if !packedWidthOK(wc) || !packedWidthOK(wa) {
			return fmt.Errorf("packed page: block at record %d has widths %d/%d", i, wc, wa)
		}
		minC := binary.LittleEndian.Uint64(data[off+2:])
		minA := binary.LittleEndian.Uint64(data[off+10:])
		off += packedBlockHdr
		mid, end := off+m*wc, off+m*(wc+wa)
		if end > len(data) {
			return fmt.Errorf("packed page: block at record %d needs %d bytes, %d left", i, end-off, len(data)-off)
		}
		c = unpackColumn(codes[i:i+m], data[off:mid], wc, minC, c)
		a = unpackColumn(aux[i:i+m], data[mid:end], wa, minA, a)
		off = end
	}
	if off != len(data) {
		return fmt.Errorf("packed page: %d payload bytes after the last block", len(data)-off)
	}
	return nil
}

func packedWidthOK(w int) bool { return w <= 4 || w == 8 }

// unpackColumn is the decode kernel: dst[i] = acc += minDelta + residual i,
// one loop per residual width with no branch inside it. src holds exactly
// len(dst)*w bytes. It returns the last value, the next block's
// predecessor.
func unpackColumn(dst []uint64, src []byte, w int, minDelta, acc uint64) uint64 {
	switch w {
	case 0:
		for i := range dst {
			acc += minDelta
			dst[i] = acc
		}
	case 1:
		src = src[:len(dst)]
		for i := range dst {
			acc += minDelta + uint64(src[i])
			dst[i] = acc
		}
	case 2:
		for i := range dst {
			acc += minDelta + uint64(binary.LittleEndian.Uint16(src[2*i:]))
			dst[i] = acc
		}
	case 3:
		for i := range dst {
			s := src[3*i : 3*i+3]
			acc += minDelta + (uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16)
			dst[i] = acc
		}
	case 4:
		for i := range dst {
			acc += minDelta + uint64(binary.LittleEndian.Uint32(src[4*i:]))
			dst[i] = acc
		}
	default:
		for i := range dst {
			acc += minDelta + binary.LittleEndian.Uint64(src[8*i:])
			dst[i] = acc
		}
	}
	return acc
}
