package bdd

import (
	"time"

	"ttastartup/internal/obs"
)

// Protect registers f as an external root so that garbage collection keeps
// it (and its cone) alive. Calls nest: a node protected twice needs two
// Unprotects.
func (m *Manager) Protect(f Ref) Ref {
	m.roots[f]++
	return f
}

// Unprotect releases one protection of f.
func (m *Manager) Unprotect(f Ref) {
	if m.roots[f] == 0 {
		panic("bdd: Unprotect of unprotected node")
	}
	m.roots[f]--
	if m.roots[f] == 0 {
		delete(m.roots, f)
	}
}

// GC frees every node not reachable from the protected roots or the extra
// roots given, marking each freed slot with level -1, and clears the
// operation cache. It must only be called at points where no unprotected
// intermediate results are still needed. It returns the number of nodes
// freed.
func (m *Manager) GC(extra ...Ref) int {
	gcStart := time.Now()
	sp := m.obs.tracer.Start(obs.CatBDD, "gc")
	marked := make([]bool, m.size)
	marked[False] = true
	marked[True] = true
	var mark func(Ref)
	mark = func(f Ref) {
		if marked[f] {
			return
		}
		marked[f] = true
		n := m.node(f)
		mark(n.low)
		mark(n.high)
	}
	for r := range m.roots {
		mark(r)
	}
	for _, r := range extra {
		mark(r)
	}

	// Clear the operation cache (entries may reference dead nodes).
	clear(m.cache)

	// Rebuild the freelist and the unique table.
	freed := 0
	m.free = m.free[:0]
	for i := range m.buckets {
		m.buckets[i] = -1
	}
	for i := m.size - 1; i >= 2; i-- {
		n := m.node(Ref(i))
		if !marked[i] {
			n.level = -1
			m.free = append(m.free, Ref(i))
			freed++
			continue
		}
		h := hash3(n.level, int32(n.low), int32(n.high)) & uint64(len(m.buckets)-1)
		n.next = m.buckets[h]
		m.buckets[h] = int32(i)
	}
	m.gcCount++
	m.gcFreed += freed
	pause := time.Since(gcStart)
	m.gcPause += pause
	m.publishGC(sp, pause, freed)
	return freed
}

// ShouldGC reports whether the node pool has grown past the point where a
// collection at the caller's next safe point is worthwhile.
func (m *Manager) ShouldGC() bool {
	return m.NumNodes() > m.nodeLimit/2
}
