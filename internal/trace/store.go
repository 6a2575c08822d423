package trace

import "sync"

// Entry is one retained trace: its trace ID, and the Record it renders
// into when read. A tier keeps whatever it measured — finished span trees,
// timings, which replica answered — and builds the wire shape only for a
// request that asks for it, so a trace nobody reads costs no rendering.
// Record must return the same JSON every time, and the facts it reads must
// not change once the entry is stored: renders may run concurrently.
type Entry interface {
	ID() string
	Record() *Record
}

// Store is a bounded ring of recent traces keyed by trace ID — the backing
// store for GET /debug/trace/{id} on both pbiserve and pbirouter. When the
// ring is full the oldest entry is evicted; storing an entry whose trace ID
// is already present replaces it in place (a retried request keeps one
// slot). All methods are safe for concurrent use.
type Store struct {
	mu   sync.Mutex
	cap  int
	ring []string // trace IDs in insertion order, oldest first
	head int      // next slot to overwrite once the ring is full
	byID map[string]Entry
}

// NewStore returns a store that retains the most recent capacity entries.
// capacity <= 0 disables retention: Put becomes a no-op and Get always
// misses.
func NewStore(capacity int) *Store {
	if capacity <= 0 {
		return &Store{}
	}
	return &Store{
		cap:  capacity,
		ring: make([]string, 0, capacity),
		byID: make(map[string]Entry, capacity),
	}
}

// Put retains e, evicting the oldest entry if the ring is full. Entries
// without a trace ID are not retrievable and are dropped.
func (s *Store) Put(e Entry) {
	if s == nil || e == nil || s.cap <= 0 {
		return
	}
	id := e.ID()
	if id == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.byID[id]; ok {
		s.byID[id] = e
		return
	}
	if len(s.ring) < s.cap {
		s.ring = append(s.ring, id)
	} else {
		delete(s.byID, s.ring[s.head])
		s.ring[s.head] = id
		s.head = (s.head + 1) % s.cap
	}
	s.byID[id] = e
}

// Get returns the record for id, rendered from its entry, or nil if it was
// never stored or has been evicted.
func (s *Store) Get(id string) *Record {
	if s == nil || s.cap <= 0 {
		return nil
	}
	s.mu.Lock()
	e := s.byID[id]
	s.mu.Unlock()
	if e == nil {
		return nil
	}
	return e.Record()
}

// Len reports how many entries are currently retained.
func (s *Store) Len() int {
	if s == nil || s.cap <= 0 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byID)
}
