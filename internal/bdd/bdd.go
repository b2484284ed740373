// Package bdd implements reduced ordered binary decision diagrams (ROBDDs)
// with a paged node pool, a chained unique table, a direct-mapped operation
// cache that by default grows with the unique table, explicit mark-and-sweep
// garbage collection, quantification, relational products, order-preserving
// renaming, and exact model counting. It is the backend of the symbolic
// model checker (package mc/symbolic).
//
// Memory layout: nodes live in fixed-size pages that are appended, never
// copied, so a *node stays valid while the pool grows. The unique table
// doubles when the live pool outgrows twice its bucket count; the default
// op cache doubles with it, one 16-byte entry per bucket, keeping its
// entries. Every sizing decision depends only on node counts, so the work
// an operation does repeats exactly from run to run.
package bdd

import (
	"errors"
	"fmt"
	"time"
)

// Ref identifies a BDD node in a Manager. The constants False and True are
// the terminal nodes of every manager.
type Ref int32

// Terminal nodes.
const (
	False Ref = 0
	True  Ref = 1
)

// ErrNodeLimit is thrown (via panic, recovered at engine boundaries) when a
// manager exceeds its configured node capacity.
var ErrNodeLimit = errors.New("bdd: node limit exceeded")

// MaxNodeLimit is the largest Config.NodeLimit New accepts: op-cache keys
// keep the operation code in the top three bits of a 32-bit node reference.
const MaxNodeLimit = 1 << opShift

type node struct {
	level     int32 // position in the current order; terminals use level = nvars; -1 marks a free slot
	low, high Ref
	next      int32 // unique-table chain
}

// The node pool is a list of fixed-size pages: growth appends a page and
// never moves a node.
const (
	pageBits = 16 // 1<<16 nodes, 1 MiB per page
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

type page [pageSize]node

// cacheEntry is one 16-byte op-cache slot. key holds the first operand in
// its low opShift bits and the operation code above them; the zero key
// marks an empty slot (operation codes start at 1).
type cacheEntry struct {
	key          uint32
	g, h, result Ref
}

// Cache operation codes.
const (
	opIte uint32 = iota + 1
	opExists
	opAndExists
	opPermute
)

const opShift = 29

// initBuckets is the unique table's starting bucket count, and the default
// op cache's starting entry count.
const initBuckets = 1 << 14

// Manager owns the node pool of a BDD universe. Variables start at level
// i = variable index (0 is topmost); dynamic reordering (see reorder.go)
// may move them, with var2level/level2var tracking the mapping. All public
// APIs speak variable indices; node levels are internal.
type Manager struct {
	nvars     int32
	pages     []*page
	size      int   // slots handed out, terminals and free slots included
	free      []Ref // freelist from GC
	buckets   []int32
	cache     []cacheEntry
	cacheAuto bool // the cache doubles with the unique table

	var2level []int32   // variable index -> level
	level2var []int32   // level -> variable index
	groups    [][]int32 // variable groups kept adjacent while sifting

	roots     map[Ref]int // protected external references
	nodeLimit int
	gcCount   int
	permEpoch int32 // distinguishes permutations in the op cache

	// Dynamic-reordering state (reorder.go).
	autoReorder      bool
	reorderStart     int
	reorderMaxGrowth float64
	reorderThreshold int
	reorderPending   bool
	inReorder        bool
	rs               *reorderState
	reorders         int
	reorderSwaps     int
	reorderGain      int
	reorderPause     time.Duration

	// Stats: plain fields — the manager is single-threaded and the cache
	// probe is the hottest path in the symbolic engine. PublishObs flushes
	// deltas to an attached obs registry at safe points.
	gcFreed     int
	gcPause     time.Duration
	cacheHits   int
	cacheMisses int

	obs obsSinks
}

// Config tunes a Manager.
type Config struct {
	// NodeLimit caps the node pool (0 = default 48M nodes, roughly 1 GiB;
	// at most MaxNodeLimit).
	NodeLimit int
	// CacheSize pins the operation-cache entry count, rounded up to a
	// power of two. 0 (the default) sizes the cache with the unique
	// table: one entry per bucket, doubling as the live pool grows.
	CacheSize int
	// AutoReorder arms dynamic variable reordering: once the node pool
	// grows past the reorder threshold, the manager flags a reorder as
	// pending, and the next safe point (ReorderIfPending, or a manual
	// Reorder) runs pair-grouped sifting. Reordering has the same caller
	// contract as GC: no unprotected intermediate results may be live.
	AutoReorder bool
	// ReorderStart is the live-node count that arms the first automatic
	// reorder (0 = default 1<<14). After each reorder the threshold is
	// doubled relative to the post-reorder pool so reordering amortises.
	ReorderStart int
	// ReorderMaxGrowth bounds transient growth while sifting: a block
	// stops moving in a direction once the pool exceeds this factor of the
	// best size seen (0 = default 1.2).
	ReorderMaxGrowth float64
}

// New returns a manager with nvars boolean variables.
func New(nvars int, cfg Config) *Manager {
	if cfg.NodeLimit == 0 {
		cfg.NodeLimit = 48 << 20
	}
	if cfg.NodeLimit > MaxNodeLimit {
		panic(fmt.Sprintf("bdd: NodeLimit %d above MaxNodeLimit %d", cfg.NodeLimit, MaxNodeLimit))
	}
	if cfg.ReorderStart == 0 {
		cfg.ReorderStart = 1 << 14
	}
	if cfg.ReorderMaxGrowth == 0 {
		cfg.ReorderMaxGrowth = 1.2
	}
	cacheSize := initBuckets
	if cfg.CacheSize > 0 {
		cacheSize = 1
		for cacheSize < cfg.CacheSize {
			cacheSize <<= 1
		}
	}
	m := &Manager{
		nvars:            int32(nvars),
		buckets:          make([]int32, initBuckets),
		cache:            make([]cacheEntry, cacheSize),
		cacheAuto:        cfg.CacheSize <= 0,
		roots:            make(map[Ref]int),
		nodeLimit:        cfg.NodeLimit,
		var2level:        make([]int32, nvars),
		level2var:        make([]int32, nvars),
		autoReorder:      cfg.AutoReorder,
		reorderStart:     cfg.ReorderStart,
		reorderMaxGrowth: cfg.ReorderMaxGrowth,
		reorderThreshold: cfg.ReorderStart,
	}
	for i := range m.buckets {
		m.buckets[i] = -1
	}
	for i := 0; i < nvars; i++ {
		m.var2level[i] = int32(i)
		m.level2var[i] = int32(i)
	}
	*m.node(m.alloc()) = node{level: m.nvars, low: False, high: False, next: -1}
	*m.node(m.alloc()) = node{level: m.nvars, low: True, high: True, next: -1}
	return m
}

// node returns the slot of r. Pages never move, so the pointer stays valid
// across pool growth.
func (m *Manager) node(r Ref) *node { return &m.pages[r>>pageBits][r&pageMask] }

// alloc hands out the next never-used slot, appending a page when the last
// one is full. The caller fills the slot.
func (m *Manager) alloc() Ref {
	if m.size == len(m.pages)<<pageBits {
		if m.size >= MaxNodeLimit {
			panic(ErrNodeLimit)
		}
		m.pages = append(m.pages, new(page))
	}
	m.size++
	return Ref(m.size - 1)
}

// NumVars returns the variable count.
func (m *Manager) NumVars() int { return int(m.nvars) }

// NumNodes returns the number of live (allocated, not freed) nodes,
// including the two terminals.
func (m *Manager) NumNodes() int { return m.size - len(m.free) }

// Level returns the level (position in the current variable order)
// labelling f, or NumVars for terminals. Until a reorder has run, level
// and variable index coincide; use VarLevel/VarAt to convert afterwards.
func (m *Manager) Level(f Ref) int { return int(m.node(f).level) }

// VarLevel returns the current level of variable i.
func (m *Manager) VarLevel(i int) int { return int(m.var2level[i]) }

// VarAt returns the variable index at the given level.
func (m *Manager) VarAt(level int) int { return int(m.level2var[level]) }

// VarOrder returns the current order as a level-indexed slice of variable
// indices (a copy).
func (m *Manager) VarOrder() []int {
	out := make([]int, m.nvars)
	for l, v := range m.level2var {
		out[l] = int(v)
	}
	return out
}

// Low and High return the cofactors of a non-terminal node.
func (m *Manager) Low(f Ref) Ref { return m.node(f).low }

// High returns the positive cofactor of a non-terminal node.
func (m *Manager) High(f Ref) Ref { return m.node(f).high }

// Var returns the BDD for variable i.
func (m *Manager) Var(i int) Ref {
	return m.mkNode(m.var2level[i], False, True)
}

// NVar returns the BDD for the negation of variable i.
func (m *Manager) NVar(i int) Ref {
	return m.mkNode(m.var2level[i], True, False)
}

func hash3(a, b, c int32) uint64 {
	h := uint64(a)*0x9e3779b97f4a7c15 ^ uint64(b)*0xbf58476d1ce4e5b9 ^ uint64(c)*0x94d049bb133111eb
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return h
}

// mkNode returns the canonical node (level, low, high), creating it if
// needed.
func (m *Manager) mkNode(level int32, low, high Ref) Ref {
	if low == high {
		return low
	}
	h := hash3(level, int32(low), int32(high)) & uint64(len(m.buckets)-1)
	for i := m.buckets[h]; i >= 0; {
		n := m.node(Ref(i))
		if n.level == level && n.low == low && n.high == high {
			return Ref(i)
		}
		i = n.next
	}
	var r Ref
	if len(m.free) > 0 {
		r = m.free[len(m.free)-1]
		m.free = m.free[:len(m.free)-1]
	} else {
		if m.size >= m.nodeLimit {
			panic(ErrNodeLimit)
		}
		r = m.alloc()
	}
	*m.node(r) = node{level: level, low: low, high: high, next: m.buckets[h]}
	m.buckets[h] = int32(r)
	if m.autoReorder && !m.reorderPending && m.NumNodes() >= m.reorderThreshold {
		m.reorderPending = true
	}
	if m.NumNodes() > 2*len(m.buckets) {
		m.rehash()
	}
	return r
}

// rehash doubles the unique table and, when the cache follows it, the op
// cache too.
func (m *Manager) rehash() {
	m.buckets = make([]int32, len(m.buckets)*2)
	for i := range m.buckets {
		m.buckets[i] = -1
	}
	for i := 2; i < m.size; i++ {
		n := m.node(Ref(i))
		if n.level < 0 { // free, or freed during a reorder
			continue
		}
		h := hash3(n.level, int32(n.low), int32(n.high)) & uint64(len(m.buckets)-1)
		n.next = m.buckets[h]
		m.buckets[h] = int32(i)
	}
	if m.cacheAuto {
		m.growCache()
	}
}

// growCache doubles the op cache and re-inserts its entries. An entry in
// old slot i can only land in slot i or i+len(old), so none is lost.
func (m *Manager) growCache() {
	old := m.cache
	m.cache = make([]cacheEntry, 2*len(old))
	for i := range old {
		if e := &old[i]; e.key != 0 {
			*m.cacheSlot(e.key, e.g, e.h) = *e
		}
	}
}

func (m *Manager) cacheSlot(key uint32, g, h Ref) *cacheEntry {
	return &m.cache[hash3(int32(key), int32(g), int32(h))&uint64(len(m.cache)-1)]
}

func (m *Manager) cacheLookup(op uint32, f, g, h Ref) (Ref, bool) {
	key := uint32(f) | op<<opShift
	e := m.cacheSlot(key, g, h)
	if e.key == key && e.g == g && e.h == h {
		m.cacheHits++
		return e.result, true
	}
	m.cacheMisses++
	return 0, false
}

func (m *Manager) cacheStore(op uint32, f, g, h, result Ref) {
	key := uint32(f) | op<<opShift
	*m.cacheSlot(key, g, h) = cacheEntry{key: key, g: g, h: h, result: result}
}

// Ite computes if-then-else: f ? g : h.
func (m *Manager) Ite(f, g, h Ref) Ref {
	// Terminal cases.
	switch {
	case f == True:
		return g
	case f == False:
		return h
	case g == h:
		return g
	case g == True && h == False:
		return f
	}
	if r, ok := m.cacheLookup(opIte, f, g, h); ok {
		return r
	}
	nf, ng, nh := m.node(f), m.node(g), m.node(h)
	top := nf.level
	if ng.level < top {
		top = ng.level
	}
	if nh.level < top {
		top = nh.level
	}
	f0, f1 := m.cofactors(f, top)
	g0, g1 := m.cofactors(g, top)
	h0, h1 := m.cofactors(h, top)
	r0 := m.Ite(f0, g0, h0)
	r1 := m.Ite(f1, g1, h1)
	r := m.mkNode(top, r0, r1)
	m.cacheStore(opIte, f, g, h, r)
	return r
}

func (m *Manager) cofactors(f Ref, level int32) (Ref, Ref) {
	n := m.node(f)
	if n.level != level {
		return f, f
	}
	return n.low, n.high
}

// Not returns the negation of f.
func (m *Manager) Not(f Ref) Ref { return m.Ite(f, False, True) }

// And returns f AND g.
func (m *Manager) And(f, g Ref) Ref { return m.Ite(f, g, False) }

// Or returns f OR g.
func (m *Manager) Or(f, g Ref) Ref { return m.Ite(f, True, g) }

// Xor returns f XOR g.
func (m *Manager) Xor(f, g Ref) Ref { return m.Ite(f, m.Not(g), g) }

// Iff returns f <-> g.
func (m *Manager) Iff(f, g Ref) Ref { return m.Ite(f, g, m.Not(g)) }

// Implies returns f -> g.
func (m *Manager) Implies(f, g Ref) Ref { return m.Ite(f, g, True) }

// Diff returns f AND NOT g.
func (m *Manager) Diff(f, g Ref) Ref { return m.Ite(g, False, f) }

// String renders summary statistics.
func (m *Manager) String() string {
	return fmt.Sprintf("bdd: %d vars, %d nodes (%d GCs, %d freed)",
		m.nvars, m.NumNodes(), m.gcCount, m.gcFreed)
}
