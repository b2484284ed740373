package bdd

import "testing"

// padPool grows the pool with distinct, unprotected nodes, built directly
// with mkNode so the op cache is untouched, until exactly target slots are
// in use. Each level combines every ordered pair of distinct nodes from
// the levels below it.
func padPool(t *testing.T, m *Manager, target int) {
	t.Helper()
	below := []Ref{False, True}
	for l := m.nvars - 1; l >= 0; l-- {
		var made []Ref
		for _, lo := range below {
			for _, hi := range below {
				if m.size >= target {
					return
				}
				if lo != hi {
					made = append(made, m.mkNode(l, lo, hi))
				}
			}
		}
		below = append(below, made...)
	}
	if m.size < target {
		t.Fatalf("padPool: ran out of distinct nodes at %d of %d slots", m.size, target)
	}
}

// TestNodePointerSurvivesGrowth: a *node taken before the pool grows by
// whole pages still addresses the same node afterwards.
func TestNodePointerSurvivesGrowth(t *testing.T) {
	m := New(20, Config{})
	f := m.And(m.Var(0), m.Or(m.Var(3), m.NVar(7)))
	p := m.node(f)
	level, low, high := p.level, p.low, p.high
	pages := len(m.pages)
	padPool(t, m, 3*pageSize+5)
	if len(m.pages) != pages+3 {
		t.Fatalf("pool grew from %d to %d pages, want %d", pages, len(m.pages), pages+3)
	}
	if m.node(f) != p {
		t.Fatal("node moved when the pool grew")
	}
	if p.level != level || p.low != low || p.high != high {
		t.Fatalf("node changed across growth: (%d,%d,%d) -> (%d,%d,%d)", level, low, high, p.level, p.low, p.high)
	}
}

// TestCacheGrowsWithUniqueTable: the default op cache starts at the unique
// table's size, doubles with it, and keeps its entries across growth.
func TestCacheGrowsWithUniqueTable(t *testing.T) {
	m := New(20, Config{})
	if len(m.cache) != initBuckets || len(m.buckets) != initBuckets {
		t.Fatalf("initial cache %d, buckets %d; want %d each", len(m.cache), len(m.buckets), initBuckets)
	}
	const entries = 4000
	for i := range Ref(entries) {
		m.cacheStore(opAndExists, i, i+1, i+2, i+3)
	}
	var stored []Ref
	for i := range Ref(entries) {
		if r, ok := m.cacheLookup(opAndExists, i, i+1, i+2); ok && r == i+3 {
			stored = append(stored, i)
		}
	}
	if len(stored) < entries/2 {
		t.Fatalf("only %d of %d entries survived storing", len(stored), entries)
	}
	padPool(t, m, 4*initBuckets+10) // past two rehashes
	if len(m.buckets) != 4*initBuckets {
		t.Fatalf("unique table has %d buckets, want %d", len(m.buckets), 4*initBuckets)
	}
	if len(m.cache) != len(m.buckets) {
		t.Fatalf("cache has %d entries, unique table %d buckets", len(m.cache), len(m.buckets))
	}
	if got := m.SnapshotStats().CacheSize; got != len(m.cache) {
		t.Fatalf("Stats.CacheSize = %d, want %d", got, len(m.cache))
	}
	for _, i := range stored {
		if r, ok := m.cacheLookup(opAndExists, i, i+1, i+2); !ok || r != i+3 {
			t.Fatalf("entry %d lost when the cache grew", i)
		}
	}
}

// TestCacheSizePinned: a positive CacheSize fixes the cache, rounded up to
// a power of two, however far the unique table grows.
func TestCacheSizePinned(t *testing.T) {
	m := New(20, Config{CacheSize: 1000})
	padPool(t, m, 4*initBuckets+10)
	if len(m.buckets) != 4*initBuckets {
		t.Fatalf("unique table has %d buckets, want %d", len(m.buckets), 4*initBuckets)
	}
	if len(m.cache) != 1024 {
		t.Fatalf("pinned cache has %d entries, want 1024", len(m.cache))
	}
}

// TestNodeLimitCap: New rejects a node limit whose references would
// collide with the op code packed into cache keys.
func TestNodeLimitCap(t *testing.T) {
	New(1, Config{NodeLimit: MaxNodeLimit})
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted NodeLimit above MaxNodeLimit")
		}
	}()
	New(1, Config{NodeLimit: MaxNodeLimit + 1})
}
