package bdd

import (
	"sort"
	"time"

	"ttastartup/internal/obs"
)

// Dynamic variable reordering: an adjacent-level swap primitive that is
// correct under hash-consing, and Rudell-style sifting of variable blocks
// on top of it.
//
// The swap rewrites every node at the upper level IN PLACE, so external
// Refs keep denoting the same boolean function throughout — callers never
// see a reorder happen except through Level/VarLevel. Reordering has the
// same caller contract as GC (it starts and ends with one): no unprotected
// intermediate results may be live when it runs. The manager therefore
// never reorders inside an operation; it only flags a reorder as pending
// (mkNode, on pool growth) and runs it when the owner reaches a safe point
// and calls Reorder or ReorderIfPending.
//
// Blocks: SetGroups declares variables that must stay adjacent, in order —
// the symbolic engine groups each current-state bit with its next-state
// bit so the cur<->next renamings stay order-preserving however the pairs
// themselves move. Ungrouped variables sift alone.

// ReorderStats summarises one reordering pass.
type ReorderStats struct {
	Swaps       int           // adjacent-level swaps performed
	NodesBefore int           // live nodes after the leading GC
	NodesAfter  int           // live nodes after the trailing GC
	Duration    time.Duration // wall time of the whole pass
}

// reorderState is the transient bookkeeping of one sifting pass.
type reorderState struct {
	ref   []int32 // per-node reference counts (protected roots included)
	lvl   [][]Ref // per-level node lists; entries with a stale level are dead
	count []int   // exact live-node count per level
	total int     // sum of count
	swaps int
}

// block is a maximal run of variables that move as a unit.
type block struct {
	vars []int32 // variable indices in top-to-bottom level order
}

// SetGroups declares variable groups for reordering: the variables of each
// group stay level-adjacent, in the given order, and sift as one block.
// Each group must currently occupy adjacent levels in declaration order
// (true for any grouping declared before the order has changed, such as
// the compiler's interleaved cur/next pairs). Variables in no group are
// singleton blocks.
func (m *Manager) SetGroups(groups [][]int) {
	seen := make([]bool, m.nvars)
	gs := make([][]int32, 0, len(groups))
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		gg := make([]int32, len(g))
		for i, v := range g {
			if v < 0 || v >= int(m.nvars) {
				panic("bdd: group variable out of range")
			}
			if seen[v] {
				panic("bdd: variable appears in more than one group")
			}
			seen[v] = true
			gg[i] = int32(v)
			if i > 0 && m.var2level[gg[i]] != m.var2level[gg[i-1]]+1 {
				panic("bdd: group variables must occupy adjacent levels")
			}
		}
		gs = append(gs, gg)
	}
	m.groups = gs
}

// ReorderPending reports whether automatic reordering has been armed by
// node-pool growth and is waiting for a safe point.
func (m *Manager) ReorderPending() bool { return m.reorderPending }

// ReorderIfPending runs Reorder when one is pending and reports whether it
// did. Callers pass the same extra roots they would pass to GC.
func (m *Manager) ReorderIfPending(extra ...Ref) (ReorderStats, bool) {
	if !m.reorderPending {
		return ReorderStats{}, false
	}
	return m.Reorder(extra...), true
}

// Reorder runs one pair-grouped sifting pass over the whole order. Like
// GC, it must only be called when no unprotected intermediate results are
// still needed; extra roots are protected for the duration. External Refs
// remain valid: nodes are rewritten in place and keep their function.
func (m *Manager) Reorder(extra ...Ref) ReorderStats {
	start := time.Now()
	sp := m.obs.tracer.Start(obs.CatBDD, "reorder")
	m.GC(extra...)
	before := m.NumNodes()
	m.inReorder = true
	swaps := m.sift(extra)
	m.inReorder = false
	m.GC(extra...)
	after := m.NumNodes()
	m.reorderPending = false
	m.reorderThreshold = 2 * after
	if m.reorderThreshold < m.reorderStart {
		m.reorderThreshold = m.reorderStart
	}
	st := ReorderStats{Swaps: swaps, NodesBefore: before, NodesAfter: after, Duration: time.Since(start)}
	m.reorders++
	m.reorderSwaps += swaps
	m.reorderGain += before - after
	m.reorderPause += st.Duration
	m.publishReorder(sp, st)
	return st
}

// sift runs one full sifting pass: every block, largest first, is moved
// through the whole order and parked at its best position.
func (m *Manager) sift(extra []Ref) int {
	rs := &reorderState{}
	m.rs = rs
	defer func() { m.rs = nil }()
	m.buildReorderState(extra)
	blocks := m.buildBlocks()
	if len(blocks) < 2 {
		return 0
	}
	size := func(b *block) int {
		s := 0
		for _, v := range b.vars {
			s += rs.count[m.var2level[v]]
		}
		return s
	}
	order := make([]*block, len(blocks))
	copy(order, blocks)
	sort.SliceStable(order, func(i, j int) bool { return size(order[i]) > size(order[j]) })
	for _, b := range order {
		m.siftBlock(blocks, b)
	}
	return rs.swaps
}

// buildReorderState scans the pool once: per-level node lists, exact level
// sizes, and reference counts (children plus protected/extra roots). It
// runs right after a GC, so every node not marked free (level -1) is live.
func (m *Manager) buildReorderState(extra []Ref) {
	rs := m.rs
	rs.ref = make([]int32, m.size)
	rs.lvl = make([][]Ref, m.nvars)
	rs.count = make([]int, m.nvars)
	for i := 2; i < m.size; i++ {
		n := m.node(Ref(i))
		if n.level < 0 {
			continue
		}
		rs.lvl[n.level] = append(rs.lvl[n.level], Ref(i))
		rs.count[n.level]++
		rs.total++
		rs.ref[n.low]++
		rs.ref[n.high]++
	}
	for r, c := range m.roots {
		rs.ref[r] += int32(c)
	}
	for _, r := range extra {
		rs.ref[r]++
	}
}

// buildBlocks derives the block sequence, in level order, from the
// registered groups.
func (m *Manager) buildBlocks() []*block {
	groupOf := make([]int, m.nvars)
	for i := range groupOf {
		groupOf[i] = -1
	}
	for gi, g := range m.groups {
		for _, v := range g {
			groupOf[v] = gi
		}
	}
	var blocks []*block
	for l := int32(0); l < m.nvars; {
		v := m.level2var[l]
		gi := groupOf[v]
		if gi < 0 {
			blocks = append(blocks, &block{vars: []int32{v}})
			l++
			continue
		}
		g := m.groups[gi]
		if g[0] != v {
			panic("bdd: reorder: group no longer level-adjacent")
		}
		for i, gv := range g {
			if m.level2var[l+int32(i)] != gv {
				panic("bdd: reorder: group no longer level-adjacent")
			}
		}
		blocks = append(blocks, &block{vars: append([]int32(nil), g...)})
		l += int32(len(g))
	}
	return blocks
}

// siftBlock moves b through every position (nearer end first), tracking
// the position with the smallest pool, and parks it there. Movement in a
// direction stops early when the pool exceeds ReorderMaxGrowth times the
// best size seen.
func (m *Manager) siftBlock(blocks []*block, b *block) {
	rs := m.rs
	pos := -1
	for i, bb := range blocks {
		if bb == b {
			pos = i
			break
		}
	}
	n := len(blocks)
	best, bestPos := rs.total, pos
	limit := func() bool {
		if rs.total < best {
			best, bestPos = rs.total, pos
		}
		return float64(rs.total) > m.reorderMaxGrowth*float64(best)
	}
	down := func() bool { m.swapBlocks(blocks, pos); pos++; return limit() }
	up := func() bool { m.swapBlocks(blocks, pos-1); pos--; return limit() }
	if n-1-pos <= pos {
		for pos < n-1 {
			if down() {
				break
			}
		}
		for pos > 0 {
			if up() {
				break
			}
		}
	} else {
		for pos > 0 {
			if up() {
				break
			}
		}
		for pos < n-1 {
			if down() {
				break
			}
		}
	}
	for pos < bestPos {
		m.swapBlocks(blocks, pos)
		pos++
	}
	for pos > bestPos {
		m.swapBlocks(blocks, pos-1)
		pos--
	}
}

// swapBlocks exchanges the adjacent blocks at positions i and i+1 with
// len(a)*len(b) adjacent-level swaps, preserving both internal orders.
func (m *Manager) swapBlocks(blocks []*block, i int) {
	a, b := blocks[i], blocks[i+1]
	top := int32(0)
	for _, bb := range blocks[:i] {
		top += int32(len(bb.vars))
	}
	ka, kb := len(a.vars), len(b.vars)
	for x := ka - 1; x >= 0; x-- {
		for y := 0; y < kb; y++ {
			m.swapAdjacent(top + int32(x+y))
		}
	}
	blocks[i], blocks[i+1] = b, a
}

// swapAdjacent exchanges levels l and l+1. Writing A for the variable at
// level l and B for the one at l+1: B-nodes move up to level l unchanged;
// an A-node that does not depend on B moves down to level l+1; an A-node f
// that does is rewritten in place as a B-node at level l over the four
// grandcofactors, with its A-cofactors rebuilt at level l+1. At most one
// of the rebuilt cofactors can collapse below level l+1 (both collapsing
// would mean f's original cofactors were equal), so a rewritten node keeps
// a level-l+1 child and can never collide with a surviving B-node — the
// unique table stays canonical without touching any external Ref.
func (m *Manager) swapAdjacent(l int32) {
	rs := m.rs
	va, vb := m.level2var[l], m.level2var[l+1]
	oldA, oldB := rs.lvl[l], rs.lvl[l+1]

	// Unhook both levels from the unique table (dead entries skipped).
	for _, f := range oldA {
		if m.node(f).level == l {
			m.unhook(f)
		}
	}
	for _, g := range oldB {
		if m.node(g).level == l+1 {
			m.unhook(g)
		}
	}

	upper := make([]Ref, 0, len(oldB)+len(oldA))
	lower := make([]Ref, 0, len(oldA))

	// Pass 0: B-nodes rise to level l.
	for _, g := range oldB {
		if m.node(g).level != l+1 {
			continue
		}
		m.node(g).level = l
		m.hook(g)
		upper = append(upper, g)
	}
	// Pass 1: A-nodes independent of B sink to level l+1. They go into the
	// table before any rebuild so pass 2 shares them instead of duplicating.
	for _, f := range oldA {
		n := m.node(f)
		if n.level != l {
			continue
		}
		if !(n.low > 1 && m.node(n.low).level == l) && !(n.high > 1 && m.node(n.high).level == l) {
			n.level = l + 1
			m.hook(f)
			lower = append(lower, f)
		}
	}
	// Pass 2: A-nodes depending on B are rewritten in place.
	var orphans []Ref
	for _, f := range oldA {
		n := m.node(f)
		if n.level != l { // moved in pass 1 or dead
			continue
		}
		f0, f1 := n.low, n.high
		dep0 := f0 > 1 && m.node(f0).level == l
		dep1 := f1 > 1 && m.node(f1).level == l
		if !dep0 && !dep1 {
			continue // moved in pass 1
		}
		var f00, f01, f10, f11 Ref
		if dep0 {
			b0 := m.node(f0)
			f00, f01 = b0.low, b0.high
		} else {
			f00, f01 = f0, f0
		}
		if dep1 {
			b1 := m.node(f1)
			f10, f11 = b1.low, b1.high
		} else {
			f10, f11 = f1, f1
		}
		newLow := m.reorderMk(l+1, f00, f10, &lower)
		newHigh := m.reorderMk(l+1, f01, f11, &lower)
		rs.ref[newLow]++
		rs.ref[newHigh]++
		rs.ref[f0]--
		rs.ref[f1]--
		orphans = append(orphans, f0, f1)
		// n is still f's slot: reorderMk's allocations never move a node.
		n.low, n.high = newLow, newHigh // level stays l; the label is now B
		m.hook(f)
		upper = append(upper, f)
	}

	rs.lvl[l], rs.lvl[l+1] = upper, lower
	oldTotal := rs.count[l] + rs.count[l+1]
	rs.count[l], rs.count[l+1] = len(upper), len(lower)
	rs.total += rs.count[l] + rs.count[l+1] - oldTotal

	m.level2var[l], m.level2var[l+1] = vb, va
	m.var2level[va], m.var2level[vb] = l+1, l

	// Free nodes orphaned by the rewrites (cascading into their cones) so
	// sifting sees exact sizes, not sizes inflated by garbage.
	for _, c := range orphans {
		m.reorderKill(c)
	}
	rs.swaps++
}

// reorderMk is mkNode for the swap primitive: it bypasses the freelist (so
// dead level-list entries can never be confused with reused slots), skips
// the node limit (transient growth is bounded by the sifting policy), and
// maintains the reorder bookkeeping.
func (m *Manager) reorderMk(level int32, low, high Ref, list *[]Ref) Ref {
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
	r := m.alloc()
	*m.node(r) = node{level: level, low: low, high: high, next: m.buckets[h]}
	m.buckets[h] = int32(r)
	rs := m.rs
	rs.ref = append(rs.ref, 0)
	rs.ref[low]++
	rs.ref[high]++
	*list = append(*list, r)
	rs.count[level]++
	rs.total++
	return r
}

// reorderKill frees r if its reference count reached zero, cascading into
// its children. Freed slots are only sentinel-marked (level -1); the GC at
// the end of Reorder returns them to the freelist.
func (m *Manager) reorderKill(r Ref) {
	rs := m.rs
	// The level>=0 guard makes kill idempotent: several rewrites can orphan
	// the same shared node, queueing it more than once.
	for r > 1 && rs.ref[r] <= 0 && m.node(r).level >= 0 {
		n := m.node(r)
		m.unhook(r)
		rs.count[n.level]--
		rs.total--
		low, high := n.low, n.high
		n.level = -1
		rs.ref[low]--
		rs.ref[high]--
		m.reorderKill(low)
		r = high
	}
}

// unhook removes f from its unique-table bucket chain.
func (m *Manager) unhook(f Ref) {
	n := m.node(f)
	h := hash3(n.level, int32(n.low), int32(n.high)) & uint64(len(m.buckets)-1)
	if m.buckets[h] == int32(f) {
		m.buckets[h] = n.next
		n.next = -1
		return
	}
	for i := m.buckets[h]; i >= 0; i = m.node(Ref(i)).next {
		if p := m.node(Ref(i)); p.next == int32(f) {
			p.next = n.next
			n.next = -1
			return
		}
	}
	panic("bdd: reorder: node missing from unique table")
}

// hook inserts f into the unique-table bucket for its current triple.
func (m *Manager) hook(f Ref) {
	n := m.node(f)
	h := hash3(n.level, int32(n.low), int32(n.high)) & uint64(len(m.buckets)-1)
	n.next = m.buckets[h]
	m.buckets[h] = int32(f)
}
