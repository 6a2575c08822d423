package containment

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"

	"github.com/pbitree/pbitree/internal/relation"
	"github.com/pbitree/pbitree/internal/storage"
	"github.com/pbitree/pbitree/pbicode"
)

// This file is the offline integrity scanner behind cmd/pbifsck: it walks
// a persisted database's page file, recomputes every page's CRC32-C, and
// reports the pages whose content no longer matches the checksum sidecar —
// mapping each bad page back to the relations that own it so an operator
// knows which stored data is damaged. Unlike the serving path (which
// verifies lazily, on fetch, and quarantines), Fsck reads every page, so
// corruption in rarely-queried relations surfaces too.

// FsckBadPage is one page that failed verification: its checksum
// (FsckReport.Bad) or, the checksum holding, its decoding
// (FsckReport.Undecodable, which sets Error and leaves Want and Got zero).
type FsckBadPage struct {
	Page int64  `json:"page"`
	Want uint32 `json:"want"` // recorded checksum
	Got  uint32 `json:"got"`  // checksum of the page as read
	// Relations names the stored relations whose page lists include this
	// page; empty for pages no relation owns (catalog internals, slack).
	Relations []string `json:"relations,omitempty"`
	// Error says how the page fails to decode.
	Error string `json:"error,omitempty"`
}

// FsckDelta is the verification result for one delta file of an epoch
// chain: deltas carry a whole-file CRC32-C trailer (storage.VerifyDelta),
// so a delta is either intact or damaged as a unit.
type FsckDelta struct {
	Path  string `json:"path"`
	Pages int    `json:"pages"` // pages the delta carries
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
}

// FsckEntry is one relation whose catalog entry its pages contradict.
type FsckEntry struct {
	Relation string `json:"relation"`
	Error    string `json:"error"`
}

// FsckReport is the outcome of one database scan.
type FsckReport struct {
	Path     string        `json:"path"`
	PageSize int           `json:"page_size"`
	Pages    int64         `json:"pages"`   // pages in the file
	Checked  int64         `json:"checked"` // pages with a recorded checksum
	Bad      []FsckBadPage `json:"bad,omitempty"`
	// FixedPages / VarintPages / PackedPages tally the relation-owned
	// pages by their header format byte. Every one of them is decoded as a
	// scan would decode it: UnknownFormatPages counts owned pages whose
	// format byte no layout uses, Undecodable lists those whose header and
	// payload disagree — software-level inconsistencies even when the
	// checksum verifies.
	FixedPages         int64         `json:"fixed_pages,omitempty"`
	VarintPages        int64         `json:"varint_pages,omitempty"`
	PackedPages        int64         `json:"packed_pages,omitempty"`
	UnknownFormatPages int64         `json:"unknown_format_pages,omitempty"`
	Undecodable        []FsckBadPage `json:"undecodable,omitempty"`
	// Epoch and Deltas are set when the catalog is an epoch database: the
	// page scan above covers the base file, and each delta of the chain is
	// CRC-verified whole.
	Epoch  int64       `json:"epoch,omitempty"`
	Deltas []FsckDelta `json:"deltas,omitempty"`
	// Chain is set when the epoch's catalog does not fold: a diff catalog
	// of its chain is missing, names the wrong parent epoch, or changes
	// what its parent does not have. It names the catalog file at fault,
	// and nothing else is checked.
	Chain string `json:"chain,omitempty"`
	// Entries lists the relations whose catalog entry says other than their
	// decoded pages do: record count, region span, a non-zero height mask
	// (zero is "unknown"), a claim of document order (the sorts on the fly
	// trust it, so a false one would lose pairs), or fences (the merges
	// seek over them, so a false one would skip pairs): one per page, each
	// its page's first Start, ascending. Only relations whose every page
	// decodes are compared.
	Entries []FsckEntry `json:"entries,omitempty"`
	// NoChecksums marks a database saved before page integrity landed
	// (catalog flag absent): there is nothing to verify against. Use
	// AddChecksums to bring such a database under protection.
	NoChecksums bool `json:"no_checksums,omitempty"`
}

// OK reports whether the scan found the database intact (a legacy database
// with no checksums is not OK — it is unverifiable).
func (r *FsckReport) OK() bool {
	if r.Chain != "" || r.NoChecksums || len(r.Bad) > 0 || r.UnknownFormatPages > 0 || len(r.Undecodable) > 0 || len(r.Entries) > 0 {
		return false
	}
	for _, d := range r.Deltas {
		if !d.OK {
			return false
		}
	}
	return true
}

// Fsck scans the database at path: every page of the page file is read and
// its CRC32-C compared against the checksum sidecar. The returned report
// lists each mismatching page with the relations that own it. For an epoch
// database the catalog is first folded over its chain of diff catalogs —
// a chain that does not fold is reported as Chain — and the page scan
// covers the base file the chain ends at; every delta of the chain is
// additionally verified whole against its trailing CRC. Every page a
// catalogued relation owns — in the base file or in a delta — is also
// decoded as a scan would decode it, and each relation's catalog entry —
// its record count, region span, height mask, order claim and fences — compared
// with what its decoded pages hold (Entries). Databases saved before
// checksums existed return a report with NoChecksums set and no error —
// they are legacy, not broken.
func Fsck(path string) (*FsckReport, error) {
	rep, _, err := fsck(path)
	return rep, err
}

// fsck is Fsck, which also returns what each page that decodes holds.
func fsck(path string) (*FsckReport, map[int64]pageHolds, error) {
	cat, err := readCatalog(path)
	if err != nil {
		return nil, nil, err
	}
	at, err := readEpoch(path)
	if err != nil {
		return &FsckReport{Path: path, PageSize: cat.PageSize, Epoch: cat.Epoch, Chain: err.Error()}, nil, nil
	}
	pageSize := at.pageSize
	if pageSize <= 0 {
		pageSize = storage.DefaultPageSize
	}
	rep := &FsckReport{Path: path, PageSize: pageSize}
	owners := map[int64][]string{}
	for name, sr := range at.rels {
		for _, id := range sr.entry.Pages {
			owners[int64(id)] = append(owners[int64(id)], name)
		}
	}
	for _, rels := range owners {
		sort.Strings(rels)
	}
	// decode tallies one relation-owned page by format and checks that it
	// decodes. Each page ID is decoded once, in the version the relation
	// reads: a delta's over an earlier delta's over the base file's.
	decoded := map[int64]bool{}
	held := map[int64]pageHolds{} // what each page that decodes holds
	decode := func(id int64, page []byte) {
		if len(owners[id]) == 0 || decoded[id] {
			return
		}
		decoded[id] = true
		format, codes, err := relation.CheckPage(page)
		switch format {
		case "fixed":
			rep.FixedPages++
		case "varint":
			rep.VarintPages++
		case "packed":
			rep.PackedPages++
		default:
			rep.UnknownFormatPages++
			return
		}
		if err != nil {
			rep.Undecodable = append(rep.Undecodable, FsckBadPage{Page: id, Relations: owners[id], Error: err.Error()})
			return
		}
		h := pageHolds{n: int64(len(codes)), ordered: true}
		for i, c := range codes {
			h.stats.add(pbicode.Code(c))
			if i > 0 && relation.DocLess(pbicode.Code(c), pbicode.Code(codes[i-1])) {
				h.ordered = false
			}
		}
		if len(codes) > 0 {
			h.first = pbicode.Code(codes[0])
		}
		held[id] = h
	}

	pagePath, deltaPaths := at.base, at.deltas
	if pagePath != at.path {
		rep.Epoch = at.epoch
		rep.Deltas = make([]FsckDelta, len(deltaPaths))
		for i := len(deltaPaths) - 1; i >= 0; i-- {
			dp := deltaPaths[i]
			fd := FsckDelta{Path: dp}
			if d, err := storage.ReadDelta(dp, 0); err != nil {
				fd.Error = err.Error()
			} else {
				fd.Pages, fd.OK = len(d.Pages), true
				for id, page := range d.Pages {
					decode(int64(id), page)
				}
			}
			rep.Deltas[i] = fd
		}
	}
	if !at.checksums {
		rep.NoChecksums = true
		return rep, held, nil
	}
	sums, err := storage.LoadChecksums(pagePath)
	if err != nil {
		return nil, nil, fmt.Errorf("containment: %w", err)
	}

	f, err := os.Open(pagePath)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	if st.Size()%int64(pageSize) != 0 {
		return nil, nil, fmt.Errorf("containment: page file size %d is not a multiple of page size %d (truncated?)", st.Size(), pageSize)
	}
	rep.Pages = st.Size() / int64(pageSize)

	br := bufio.NewReaderSize(f, 1<<20)
	page := make([]byte, pageSize)
	for id := int64(0); id < rep.Pages; id++ {
		if _, err := io.ReadFull(br, page); err != nil {
			return nil, nil, fmt.Errorf("containment: read page %d: %w", id, err)
		}
		if int(id) >= sums.Pages() {
			// The file grew after the sidecar was written (a writable
			// engine extended it without re-saving): unverifiable tail.
			continue
		}
		rep.Checked++
		want := sums.Sum(storage.PageID(id))
		got := storage.PageChecksum(page)
		if got != want {
			// Damaged: reported here, and not also as failing to decode.
			rep.Bad = append(rep.Bad, FsckBadPage{Page: id, Want: want, Got: got, Relations: owners[id]})
			continue
		}
		decode(id, page)
	}
	sort.Slice(rep.Undecodable, func(i, j int) bool { return rep.Undecodable[i].Page < rep.Undecodable[j].Page })
	for name, sr := range at.rels {
		if msg, ok := checkEntry(sr.entry, held); ok && msg != "" {
			rep.Entries = append(rep.Entries, FsckEntry{Relation: name, Error: msg})
		}
	}
	sort.Slice(rep.Entries, func(i, j int) bool { return rep.Entries[i].Relation < rep.Entries[j].Relation })
	return rep, held, nil
}

// pageHolds is what one decoded page holds: its record count and their
// statistics (the last record among them), whether they are in document
// order, and the first of them.
type pageHolds struct {
	n       int64
	stats   codeStats
	ordered bool
	first   pbicode.Code
}

// checkEntry compares a catalog entry with its relation's decoded pages
// and says how they disagree — empty when they agree. It reports false
// when a page of the relation did not decode: there is nothing to compare.
func checkEntry(ent catalogEntry, held map[int64]pageHolds) (string, bool) {
	var n int64
	var s codeStats
	var prev pbicode.Code // the last record of the pages before
	disorder := -1        // the first page whose records break document order
	for i, id := range ent.Pages {
		h, ok := held[int64(id)]
		if !ok {
			return "", false
		}
		if disorder < 0 && (!h.ordered || n > 0 && h.n > 0 && relation.DocLess(h.first, prev)) {
			disorder = i
		}
		if h.n > 0 {
			prev = h.stats.last
		}
		n += h.n
		s = s.merge(h.stats)
	}
	switch {
	case ent.Count != n:
		return fmt.Sprintf("catalog counts %d records, pages hold %d", ent.Count, n), true
	case n > 0 && (ent.MinStart != s.minStart || ent.MaxEnd != s.maxEnd):
		return fmt.Sprintf("catalog span [%d,%d], records span [%d,%d]", ent.MinStart, ent.MaxEnd, s.minStart, s.maxEnd), true
	case ent.Heights != 0 && ent.Heights != s.heights:
		return fmt.Sprintf("catalog height mask %#x, records occupy %#x", ent.Heights, s.heights), true
	case ent.Ordered && disorder >= 0:
		return fmt.Sprintf("catalog claims document order, records leave it on page %d of %d", disorder+1, len(ent.Pages)), true
	}
	return checkFences(ent, held), true
}

// checkFences says how an entry's fences disagree with its pages: each must
// be its page's first Start — an empty page's the next non-empty page's,
// the largest Start after the last — and they must ascend under a claim of
// order. Empty when they agree, or when the entry records none.
func checkFences(ent catalogEntry, held map[int64]pageHolds) string {
	f := ent.Fences
	switch {
	case len(f) == 0:
		return ""
	case !ent.Ordered:
		return fmt.Sprintf("catalog records %d fences but no claim of document order", len(f))
	case len(f) != len(ent.Pages):
		return fmt.Sprintf("catalog records %d fences for %d pages", len(f), len(ent.Pages))
	case !slices.IsSorted(f):
		return "catalog fences do not ascend"
	}
	for i, want := range pageFences(ent.Pages, held) {
		if f[i] != want {
			return fmt.Sprintf("catalog fence of page %d of %d is %d, its records start at %d", i+1, len(f), f[i], want)
		}
	}
	return ""
}

// pageFences returns the fences of pages as their decoded records give
// them: each page's first Start, an empty page's the next non-empty
// page's, the largest Start after the last.
func pageFences(pages []storage.PageID, held map[int64]pageHolds) []uint64 {
	fences, next := make([]uint64, len(pages)), ^uint64(0)
	for i := len(pages) - 1; i >= 0; i-- {
		if h := held[int64(pages[i])]; h.n > 0 {
			next = h.first.Start()
		}
		fences[i] = next
	}
	return fences
}

// AddFences writes the fences of each relation that claims document order
// without them — as catalogs written before fences existed record it —
// into the catalog of the database at path: each page's first Start, as
// its decoded records give it. The database must verify first (Fsck: page
// checksums, decoding, and every catalog entry, order claims included), so
// only claims its pages bear out gain fences; such a relation then reopens
// with its claim as the loader's, and the merges seek over it instead of
// reading it to the end. It returns how many relations gained fences. Like
// AddChecksums it works on a full catalog: the diff catalogs of an epoch
// list the fences of the pages they write, and a diff over a relation
// whose parent has none leaves it without.
func AddFences(path string) (int, error) {
	cat, err := readCatalog(path)
	if err != nil {
		return 0, err
	}
	if cat.Version == catalogVersionDiff {
		return 0, fmt.Errorf("containment: %s is a diff catalog; run AddFences on the full catalog its chain ends at", catalogPath(path))
	}
	rep, held, err := fsck(path)
	if err != nil {
		return 0, err
	}
	if !rep.OK() {
		return 0, fmt.Errorf("containment: %s does not verify (see pbifsck); fences are added only to a database that does", path)
	}
	added := 0
	for i := range cat.Relations {
		if ent := &cat.Relations[i]; ent.Ordered && len(ent.Fences) == 0 && len(ent.Pages) > 0 {
			ent.Fences = pageFences(ent.Pages, held)
			added++
		}
	}
	if added == 0 {
		return 0, nil
	}
	return added, writeCatalog(path, cat)
}

// AddChecksums computes and writes the checksum sidecar for a database
// saved before page integrity landed, then marks the catalog so future
// opens verify. It trusts the page file as it stands — run it only on a
// database believed intact (there is nothing older to verify against).
// Idempotent: re-running recomputes the sidecar from the current file.
func AddChecksums(path string) error {
	cat, err := readCatalog(path)
	if err != nil {
		return err
	}
	if cat.Version != catalogVersion {
		return fmt.Errorf("containment: epoch catalogs inherit checksums from their base database; run AddChecksums on the base")
	}
	pageSize := cat.PageSize
	if pageSize <= 0 {
		pageSize = storage.DefaultPageSize
	}
	sums, err := storage.ComputeFileChecksums(path, pageSize)
	if err != nil {
		return fmt.Errorf("containment: checksum page file: %w", err)
	}
	if err := sums.Save(path); err != nil {
		return fmt.Errorf("containment: write checksum sidecar: %w", err)
	}
	cat.Checksums = true
	return writeCatalog(path, cat)
}
