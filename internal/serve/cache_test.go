package serve

import (
	"fmt"
	"testing"
)

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	c.Put("a", []byte("A"))
	c.Put("b", []byte("B"))
	if _, ok := c.Get("a"); !ok { // a is now most recent
		t.Fatal("a missing")
	}
	c.Put("c", []byte("C")) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should have survived")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c missing")
	}
	s := c.Stats()
	if s.Entries != 2 || s.Evicted != 1 {
		t.Fatalf("stats = %+v, want 2 entries / 1 evicted", s)
	}
	// hits: a, a, c = 3; misses: get(b) after its eviction = 1.
	if s.Hits != 3 || s.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 3/1", s.Hits, s.Misses)
	}
	if s.HitRate < 0.74 || s.HitRate > 0.76 {
		t.Fatalf("hit rate = %v, want 0.75", s.HitRate)
	}
}

func TestCacheReplace(t *testing.T) {
	c := NewCache(4)
	c.Put("k", []byte("v1"))
	c.Put("k", []byte("v2"))
	got, ok := c.Get("k")
	if !ok || string(got) != "v2" {
		t.Fatalf("get = %q/%v, want v2", got, ok)
	}
	if s := c.Stats(); s.Entries != 1 {
		t.Fatalf("entries = %d, want 1", s.Entries)
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := NewCache(32)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", (g*7+i)%64)
				if _, ok := c.Get(key); !ok {
					c.Put(key, []byte(key))
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if s := c.Stats(); s.Entries > 32 {
		t.Fatalf("cache over capacity: %d", s.Entries)
	}
}

// TestDisabledCache pins the nil cache both tiers get from a non-positive
// capacity: it misses, stores nothing, reports no /stats block and
// renders its /metrics families at zero.
func TestDisabledCache(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		c := NewCache(capacity)
		if c != nil {
			t.Fatalf("NewCache(%d) = %v, want nil", capacity, c)
		}
		c.Put("k", []byte("v"))
		if _, ok := c.Get("k"); ok {
			t.Fatal("disabled cache hit")
		}
		if c.Stats() != nil {
			t.Fatal("disabled cache reports stats")
		}
	}
}
