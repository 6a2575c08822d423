// Package btree implements a disk-based B+-tree over the buffer pool,
// mapping uint64 keys to uint64 values with duplicate keys allowed. It
// plays the role of the Minibase B+-tree module: the index-nested-loop join
// probes it with region ranges, and the ADB+ join uses it for skip seeks.
//
// Both incremental insertion and bottom-up bulk-loading from a sorted
// stream are supported; the baselines that "build the index on the fly"
// use external sort + bulk-load, whose page I/O is charged through the
// shared buffer pool like every other access.
package btree

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/pbitree/pbitree/internal/buffer"
	"github.com/pbitree/pbitree/internal/storage"
)

// Page layout (little endian):
//
//	offset 0: type byte (0 = leaf, 1 = internal)
//	offset 2: count uint16 (number of keys)
//	offset 8: next PageID int64 (leaf: right sibling; internal: child[0])
//	offset 16: entries, 16 bytes each:
//	    leaf:     key uint64, value uint64
//	    internal: key uint64, child PageID  (child holds keys >= key)
const (
	typeLeaf     = 0
	typeInternal = 1
	hdrSize      = 16
	entrySize    = 16
)

// Tree is a B+-tree rooted at a page.
type Tree struct {
	pool   *buffer.Pool
	root   storage.PageID
	height int
	count  int64
	pages  int64
	cap    int // entries per page
}

// ErrEmpty is returned by operations that need a non-empty tree.
var ErrEmpty = errors.New("btree: empty tree")

// New creates an empty tree whose pages are allocated from pool's disk.
func New(pool *buffer.Pool) (*Tree, error) {
	t := &Tree{pool: pool, cap: (pool.PageSize() - hdrSize) / entrySize}
	if t.cap < 4 {
		return nil, fmt.Errorf("btree: page size %d too small", pool.PageSize())
	}
	f, err := pool.NewPage()
	if err != nil {
		return nil, err
	}
	initPage(f.Data, typeLeaf)
	t.root = f.ID
	t.height = 1
	t.pages = 1
	pool.Unpin(f, true)
	return t, nil
}

// NumKeys returns the number of stored entries.
func (t *Tree) NumKeys() int64 { return t.count }

// NumPages returns the number of pages the tree occupies.
func (t *Tree) NumPages() int64 { return t.pages }

// Height returns the number of levels (1 = a single leaf).
func (t *Tree) Height() int { return t.height }

func initPage(p []byte, typ byte) {
	for i := range p[:hdrSize] {
		p[i] = 0
	}
	p[0] = typ
	setNextPtr(p, storage.InvalidPageID)
}

func pageType(p []byte) byte      { return p[0] }
func keyCount(p []byte) int       { return int(binary.LittleEndian.Uint16(p[2:])) }
func setKeyCount(p []byte, n int) { binary.LittleEndian.PutUint16(p[2:], uint16(n)) }
func nextPtr(p []byte) storage.PageID {
	return storage.PageID(int64(binary.LittleEndian.Uint64(p[8:])))
}
func setNextPtr(p []byte, id storage.PageID) {
	binary.LittleEndian.PutUint64(p[8:], uint64(int64(id)))
}
func entryKey(p []byte, i int) uint64 {
	return binary.LittleEndian.Uint64(p[hdrSize+i*entrySize:])
}
func entryVal(p []byte, i int) uint64 {
	return binary.LittleEndian.Uint64(p[hdrSize+i*entrySize+8:])
}
func setEntry(p []byte, i int, k, v uint64) {
	binary.LittleEndian.PutUint64(p[hdrSize+i*entrySize:], k)
	binary.LittleEndian.PutUint64(p[hdrSize+i*entrySize+8:], v)
}

// insertAt shifts entries [i, n) right by one and writes (k, v) at i.
func insertAt(p []byte, n, i int, k, v uint64) {
	copy(p[hdrSize+(i+1)*entrySize:hdrSize+(n+1)*entrySize], p[hdrSize+i*entrySize:hdrSize+n*entrySize])
	setEntry(p, i, k, v)
	setKeyCount(p, n+1)
}

// lowerBound returns the first entry index with key >= k.
func lowerBound(p []byte, k uint64) int {
	lo, hi := 0, keyCount(p)
	for lo < hi {
		mid := (lo + hi) / 2
		if entryKey(p, mid) < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// upperBound returns the first entry index with key > k.
func upperBound(p []byte, k uint64) int {
	lo, hi := 0, keyCount(p)
	for lo < hi {
		mid := (lo + hi) / 2
		if entryKey(p, mid) <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childFor returns the rightmost child page that can hold key k (used by
// Insert so duplicate runs grow on the right): child[0] holds keys before
// key[0]; entry i's child holds keys from key[i] on.
func childFor(p []byte, k uint64) storage.PageID {
	i := upperBound(p, k)
	if i == 0 {
		return nextPtr(p)
	}
	return storage.PageID(int64(entryVal(p, i-1)))
}

// childForSeek returns the leftmost child page that can hold key k. Because
// duplicate keys may straddle a separator equal to k (the left sibling can
// end with the same key the right sibling starts with), point and range
// lookups must descend left of such separators and rely on the leaf chain
// to walk right.
func childForSeek(p []byte, k uint64) storage.PageID {
	i := lowerBound(p, k)
	if i == 0 {
		return nextPtr(p)
	}
	return storage.PageID(int64(entryVal(p, i-1)))
}

// Insert adds (key, value). Duplicate keys are kept (value order among
// duplicates is unspecified).
func (t *Tree) Insert(key, value uint64) error {
	sepKey, right, split, err := t.insert(t.root, key, value, t.height)
	if err != nil {
		return err
	}
	if !split {
		t.count++
		return nil
	}
	// Grow a new root.
	f, err := t.pool.NewPage()
	if err != nil {
		return err
	}
	initPage(f.Data, typeInternal)
	setNextPtr(f.Data, t.root)
	setEntry(f.Data, 0, sepKey, uint64(int64(right)))
	setKeyCount(f.Data, 1)
	t.root = f.ID
	t.height++
	t.pages++
	t.pool.Unpin(f, true)
	t.count++
	return nil
}

// insert descends to the leaf, inserts, and propagates splits upward.
func (t *Tree) insert(page storage.PageID, key, value uint64, level int) (sepKey uint64, right storage.PageID, split bool, err error) {
	f, err := t.pool.Fetch(page)
	if err != nil {
		return 0, 0, false, err
	}
	if level == 1 { // leaf
		n := keyCount(f.Data)
		i := upperBound(f.Data, key)
		if n < t.cap {
			insertAt(f.Data, n, i, key, value)
			t.pool.Unpin(f, true)
			return 0, 0, false, nil
		}
		sep, rid, err := t.splitLeaf(f, i, key, value)
		t.pool.Unpin(f, true)
		return sep, rid, true, err
	}
	child := childFor(f.Data, key)
	csep, cright, csplit, err := t.insert(child, key, value, level-1)
	if err != nil {
		t.pool.Unpin(f, false)
		return 0, 0, false, err
	}
	if !csplit {
		t.pool.Unpin(f, false)
		return 0, 0, false, nil
	}
	n := keyCount(f.Data)
	i := upperBound(f.Data, csep)
	if n < t.cap {
		insertAt(f.Data, n, i, csep, uint64(int64(cright)))
		t.pool.Unpin(f, true)
		return 0, 0, false, nil
	}
	sep, rid, err := t.splitInternal(f, i, csep, cright)
	t.pool.Unpin(f, true)
	return sep, rid, true, err
}

// splitLeaf splits a full leaf, inserting (key, value) at logical index i.
func (t *Tree) splitLeaf(f buffer.Frame, i int, key, value uint64) (uint64, storage.PageID, error) {
	rf, err := t.pool.NewPage()
	if err != nil {
		return 0, 0, err
	}
	defer t.pool.Unpin(rf, true)
	initPage(rf.Data, typeLeaf)
	t.pages++
	n := t.cap
	mid := (n + 1) / 2
	// Gather the n+1 entries in order, then redistribute.
	keys := make([]uint64, 0, n+1)
	vals := make([]uint64, 0, n+1)
	for j := 0; j < n; j++ {
		if j == i {
			keys, vals = append(keys, key), append(vals, value)
		}
		keys, vals = append(keys, entryKey(f.Data, j)), append(vals, entryVal(f.Data, j))
	}
	if i == n {
		keys, vals = append(keys, key), append(vals, value)
	}
	for j := 0; j < mid; j++ {
		setEntry(f.Data, j, keys[j], vals[j])
	}
	setKeyCount(f.Data, mid)
	for j := mid; j <= n; j++ {
		setEntry(rf.Data, j-mid, keys[j], vals[j])
	}
	setKeyCount(rf.Data, n+1-mid)
	setNextPtr(rf.Data, nextPtr(f.Data))
	setNextPtr(f.Data, rf.ID)
	return keys[mid], rf.ID, nil
}

// splitInternal splits a full internal page, inserting (key, child) at
// logical index i. The middle key moves up.
func (t *Tree) splitInternal(f buffer.Frame, i int, key uint64, child storage.PageID) (uint64, storage.PageID, error) {
	rf, err := t.pool.NewPage()
	if err != nil {
		return 0, 0, err
	}
	defer t.pool.Unpin(rf, true)
	initPage(rf.Data, typeInternal)
	t.pages++
	n := t.cap
	keys := make([]uint64, 0, n+1)
	vals := make([]uint64, 0, n+1)
	for j := 0; j < n; j++ {
		if j == i {
			keys, vals = append(keys, key), append(vals, uint64(int64(child)))
		}
		keys, vals = append(keys, entryKey(f.Data, j)), append(vals, entryVal(f.Data, j))
	}
	if i == n {
		keys, vals = append(keys, key), append(vals, uint64(int64(child)))
	}
	mid := (n + 1) / 2 // keys[mid] moves up
	for j := 0; j < mid; j++ {
		setEntry(f.Data, j, keys[j], vals[j])
	}
	setKeyCount(f.Data, mid)
	setNextPtr(rf.Data, storage.PageID(int64(vals[mid])))
	for j := mid + 1; j <= n; j++ {
		setEntry(rf.Data, j-mid-1, keys[j], vals[j])
	}
	setKeyCount(rf.Data, n-mid)
	return keys[mid], rf.ID, nil
}

// Delete removes one entry matching both key and value (duplicates make
// the key alone ambiguous), reporting whether one was found. Removal is
// leaf-local: entries shift left within the leaf, with no page merging and
// no separator maintenance — an emptied leaf stays in the chain and
// internal separators keep routing correctly because they only bound key
// ranges, they never promise the key is present. That is the right
// trade-off for the incremental-maintenance write path (internal/ingest):
// deletes are rare next to lookups, and compaction periodically rewrites
// the whole page image anyway, reclaiming hollow leaves.
func (t *Tree) Delete(key, value uint64) (bool, error) {
	page := t.root
	for level := t.height; level > 1; level-- {
		f, err := t.pool.Fetch(page)
		if err != nil {
			return false, err
		}
		child := childForSeek(f.Data, key)
		t.pool.Unpin(f, false)
		page = child
	}
	// Duplicates of key may straddle leaves; walk the chain until a greater
	// key proves the (key, value) pair absent.
	for page != storage.InvalidPageID {
		f, err := t.pool.Fetch(page)
		if err != nil {
			return false, err
		}
		n := keyCount(f.Data)
		for i := lowerBound(f.Data, key); i < n; i++ {
			if entryKey(f.Data, i) != key {
				t.pool.Unpin(f, false)
				return false, nil
			}
			if entryVal(f.Data, i) != value {
				continue
			}
			copy(f.Data[hdrSize+i*entrySize:hdrSize+(n-1)*entrySize],
				f.Data[hdrSize+(i+1)*entrySize:hdrSize+n*entrySize])
			setKeyCount(f.Data, n-1)
			t.pool.Unpin(f, true)
			t.count--
			return true, nil
		}
		next := nextPtr(f.Data)
		t.pool.Unpin(f, false)
		page = next
	}
	return false, nil
}

// Iter is a forward iterator over leaf entries. It pins the current leaf
// only. Close it when done.
type Iter struct {
	t      *Tree
	frame  buffer.Frame
	pinned bool
	idx    int
	key    uint64
	val    uint64
	err    error
}

// Seek returns an iterator positioned at the first entry with key >= k.
func (t *Tree) Seek(k uint64) (*Iter, error) {
	it := new(Iter)
	if err := t.SeekInto(it, k); err != nil {
		return nil, err
	}
	return it, nil
}

// SeekInto repositions it at the first entry with key >= k, releasing
// whatever pin it held. Callers that probe in a loop keep one Iter (the
// zero value is ready to use) instead of allocating one per Seek. On error
// the iterator is left closed.
func (t *Tree) SeekInto(it *Iter, k uint64) error {
	it.Close()
	page := t.root
	for level := t.height; level > 1; level-- {
		f, err := t.pool.Fetch(page)
		if err != nil {
			return err
		}
		child := childForSeek(f.Data, k)
		t.pool.Unpin(f, false)
		page = child
	}
	f, err := t.pool.Fetch(page)
	if err != nil {
		return err
	}
	*it = Iter{t: t, frame: f, pinned: true, idx: lowerBound(f.Data, k)}
	return nil
}

// Next advances the iterator, reporting false at the end or on error.
func (it *Iter) Next() bool {
	if it.err != nil {
		return false
	}
	for {
		if !it.pinned {
			return false
		}
		if it.idx < keyCount(it.frame.Data) {
			it.key = entryKey(it.frame.Data, it.idx)
			it.val = entryVal(it.frame.Data, it.idx)
			it.idx++
			return true
		}
		next := nextPtr(it.frame.Data)
		it.t.pool.Unpin(it.frame, false)
		it.pinned = false
		if next == storage.InvalidPageID {
			return false
		}
		f, err := it.t.pool.Fetch(next)
		if err != nil {
			it.err = err
			return false
		}
		it.frame, it.pinned, it.idx = f, true, 0
	}
}

// Key returns the current key. Valid after a true Next.
func (it *Iter) Key() uint64 { return it.key }

// Val returns the current value. Valid after a true Next.
func (it *Iter) Val() uint64 { return it.val }

// Err returns the first error encountered.
func (it *Iter) Err() error { return it.err }

// Close releases the iterator's pin.
func (it *Iter) Close() {
	if it.pinned {
		it.t.pool.Unpin(it.frame, false)
		it.pinned = false
	}
}

// Range calls emit for every entry with lo <= key <= hi, in key order.
func (t *Tree) Range(lo, hi uint64, emit func(key, val uint64) error) error {
	var it Iter
	if err := t.SeekInto(&it, lo); err != nil {
		return err
	}
	defer it.Close()
	for it.Next() {
		if it.Key() > hi {
			break
		}
		if err := emit(it.Key(), it.Val()); err != nil {
			return err
		}
	}
	return it.Err()
}
