package bdd

import (
	"time"

	"ttastartup/internal/obs"
)

// obsSinks holds the manager's attached instrumentation: the metric
// handles are resolved once at SetObs so publishing is pointer-chasing
// only, and everything is nil (a no-op) until a scope is attached.
type obsSinks struct {
	tracer     *obs.Tracer
	gcs        *obs.Counter
	gcFreed    *obs.Counter
	gcPause    *obs.Histogram
	hits       *obs.Counter
	misses     *obs.Counter
	nodes      *obs.Gauge
	nodesPeak  *obs.Gauge
	uniqueSize *obs.Gauge
	cacheSize  *obs.Gauge

	reorders     *obs.Counter
	reorderSwaps *obs.Counter
	reorderGain  *obs.Counter
	reorderPause *obs.Histogram

	lastHits, lastMisses int // high-water marks for delta flushing
}

// SetObs attaches an instrumentation scope. The hot paths (cache probes,
// mkNode) still update plain fields; PublishObs flushes them, and GC
// publishes its pause and a "bdd/gc" span directly.
func (m *Manager) SetObs(scope obs.Scope) {
	m.obs = obsSinks{
		tracer:     scope.Trace,
		gcs:        scope.Reg.Counter(obs.MBDDGCs),
		gcFreed:    scope.Reg.Counter(obs.MBDDGCFreed),
		gcPause:    scope.Reg.Histogram(obs.MBDDGCPauseUS),
		hits:       scope.Reg.Counter(obs.MBDDCacheHits),
		misses:     scope.Reg.Counter(obs.MBDDCacheMisses),
		nodes:      scope.Reg.Gauge(obs.MBDDNodes),
		nodesPeak:  scope.Reg.Gauge(obs.MBDDNodesPeak),
		uniqueSize: scope.Reg.Gauge(obs.MBDDUniqueSize),
		cacheSize:  scope.Reg.Gauge(obs.MBDDCacheSize),

		reorders:     scope.Reg.Counter(obs.MBDDReorders),
		reorderSwaps: scope.Reg.Counter(obs.MBDDReorderSwaps),
		reorderGain:  scope.Reg.Counter(obs.MBDDReorderGain),
		reorderPause: scope.Reg.Histogram(obs.MBDDReorderPauseUS),
	}
}

// PublishObs flushes the manager's counters to the attached registry:
// cache hit/miss deltas since the previous flush, plus the live-node,
// unique-table and op-cache gauges. Safe (and a near no-op) with no scope attached.
// The symbolic engine calls this once per fixpoint iteration.
func (m *Manager) PublishObs() {
	m.obs.hits.Add(int64(m.cacheHits - m.obs.lastHits))
	m.obs.misses.Add(int64(m.cacheMisses - m.obs.lastMisses))
	m.obs.lastHits, m.obs.lastMisses = m.cacheHits, m.cacheMisses
	n := int64(m.NumNodes())
	m.obs.nodes.Set(n)
	m.obs.nodesPeak.SetMax(n)
	m.obs.uniqueSize.Set(int64(len(m.buckets)))
	m.obs.cacheSize.Set(int64(len(m.cache)))
}

// publishGC records one collection: counters, the pause histogram, and a
// span on the attached tracer.
func (m *Manager) publishGC(sp *obs.Span, pause time.Duration, freed int) {
	m.obs.gcs.Inc()
	m.obs.gcFreed.Add(int64(freed))
	m.obs.gcPause.Observe(pause.Microseconds())
	sp.Attr("freed", freed).Attr("live", m.NumNodes()).End()
}

// publishReorder records one sifting pass: counters, the pause histogram,
// and a span on the attached tracer.
func (m *Manager) publishReorder(sp *obs.Span, st ReorderStats) {
	m.obs.reorders.Inc()
	m.obs.reorderSwaps.Add(int64(st.Swaps))
	m.obs.reorderGain.Add(int64(st.NodesBefore - st.NodesAfter))
	m.obs.reorderPause.Observe(st.Duration.Microseconds())
	sp.Attr("before", st.NodesBefore).Attr("after", st.NodesAfter).Attr("swaps", st.Swaps).End()
}

// Stats is a point-in-time snapshot of the manager's internal counters.
type Stats struct {
	Nodes        int           // live nodes, terminals included
	UniqueSize   int           // unique-table bucket count
	CacheSize    int           // op-cache entry count
	CacheHits    int           // op-cache hits since creation
	CacheMisses  int           // op-cache misses since creation
	GCs          int           // collections run
	GCFreed      int           // nodes reclaimed across all collections
	GCPause      time.Duration // total stop-the-world time across all collections
	Reorders     int           // sifting passes run
	ReorderSwaps int           // adjacent-level swaps across all passes
	ReorderGain  int           // live nodes shed by reordering (summed)
	ReorderPause time.Duration // total wall time spent sifting
}

// SnapshotStats returns the current counter values.
func (m *Manager) SnapshotStats() Stats {
	return Stats{
		Nodes:        m.NumNodes(),
		UniqueSize:   len(m.buckets),
		CacheSize:    len(m.cache),
		CacheHits:    m.cacheHits,
		CacheMisses:  m.cacheMisses,
		GCs:          m.gcCount,
		GCFreed:      m.gcFreed,
		GCPause:      m.gcPause,
		Reorders:     m.reorders,
		ReorderSwaps: m.reorderSwaps,
		ReorderGain:  m.reorderGain,
		ReorderPause: m.reorderPause,
	}
}
