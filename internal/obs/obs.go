// Package obs is a stdlib-only instrumentation layer shared by every
// engine in the repository: a registry of named counters, gauges, and
// log-scale histograms with atomic updates cheap enough for engine hot
// loops; span-based tracing with a Chrome trace_event exporter (loadable
// in chrome://tracing or Perfetto) and a JSONL span log; a periodic
// heartbeat that renders a one-line progress summary; and an optional
// debug HTTP endpoint (net/http/pprof plus a /metricsz JSON dump).
//
// The zero Scope is the disabled state: every method on a nil *Registry,
// nil *Counter, nil *Gauge, nil *Histogram, nil *Tracer, or nil *Span is
// a no-op, so instrumented code never branches on an "enabled" flag —
// it just calls through, and the disabled path costs one nil check.
// Engine hot loops (SAT propagation, BDD cache probes) keep plain integer
// fields and flush deltas to the registry at natural boundaries (per
// Solve call, per GC, per fixpoint iteration), so the disabled path is
// byte-for-byte the arithmetic the engines already did.
package obs

// Scope bundles the two instrumentation sinks a component may publish
// to. The zero value disables both; Scope is comparable so callers can
// test `scope == obs.Scope{}`.
type Scope struct {
	Reg   *Registry
	Trace *Tracer
}

// Enabled reports whether any sink is attached.
func (s Scope) Enabled() bool { return s.Reg != nil || s.Trace != nil }

// Canonical metric names. Components publish under these so front-ends
// (heartbeat, /metricsz, BENCH_obs.json) can rely on stable keys.
const (
	// SAT backend (flushed per Solve call by mc.SATTap).
	MSATQueries      = "sat.queries"
	MSATConflicts    = "sat.conflicts"
	MSATDecisions    = "sat.decisions"
	MSATPropagations = "sat.propagations"
	MSATRestarts     = "sat.restarts"
	MSATLearnts      = "sat.learnts"

	// BDD backend.
	MBDDNodes       = "bdd.nodes"        // gauge: live nodes after last GC/growth check
	MBDDNodesPeak   = "bdd.nodes.peak"   // gauge (max): peak live nodes observed
	MBDDCacheHits   = "bdd.cache.hits"   // counter: op-cache hits (ITE/quantify/compose/...)
	MBDDCacheMisses = "bdd.cache.misses" // counter: op-cache misses
	MBDDUniqueSize  = "bdd.unique.size"  // gauge: unique-table entries
	MBDDCacheSize   = "bdd.cache.size"   // gauge: op-cache entries
	MBDDGCs         = "bdd.gc.count"     // counter: mark-sweep collections
	MBDDGCFreed     = "bdd.gc.freed"     // counter: nodes reclaimed across all GCs
	MBDDGCPauseUS   = "bdd.gc.pause_us"  // histogram: stop-the-world pause per GC

	// BDD dynamic reordering (pair-grouped sifting).
	MBDDReorders       = "bdd.reorder.count"    // counter: sifting passes run
	MBDDReorderSwaps   = "bdd.reorder.swaps"    // counter: adjacent-level swaps across all passes
	MBDDReorderGain    = "bdd.reorder.gain"     // counter: live nodes shed (before-after, summed)
	MBDDReorderPauseUS = "bdd.reorder.pause_us" // histogram: wall time per sifting pass

	// Engines.
	MExplicitVisited  = "explicit.visited"    // gauge: states visited so far
	MExplicitFrontier = "explicit.frontier"   // gauge: size of the current BFS layer
	MExplicitLayers   = "explicit.layers"     // gauge: BFS layers completed
	MSymbolicIters    = "symbolic.iterations" // gauge: fixpoint iterations completed
	MIC3Frames        = "ic3.frames"          // gauge (max): highest frame opened
	MIC3Obligations   = "ic3.obligations"     // counter: proof obligations discharged
	MIC3QueueDepth    = "ic3.queue.depth"     // gauge: obligation priority-queue depth
	MIC3CoreKept      = "ic3.core.kept"       // counter: cube literals kept by UNSAT cores
	MIC3CoreTotal     = "ic3.core.total"      // counter: cube literals offered to cores

	// Engine-independent run accounting (published by mc.Run.Finish).
	MRuns     = "engine.runs"       // counter: completed checks across all engines
	MRunMS    = "engine.run_ms"     // histogram: wall time per check, milliseconds
	MRunIters = "engine.iterations" // gauge (max): layers/iterations/frames of the last deepest run

	// Static model optimizer (internal/gcl/opt), published by core.Suite
	// and the campaign's bus jobs when -opt routes a check through the
	// optimized system.
	MOptRuns        = "opt.runs"         // counter: optimizer pipeline runs
	MOptVarsDropped = "opt.vars.dropped" // counter: state variables eliminated, summed over runs
	MOptCmdsDropped = "opt.cmds.dropped" // counter: commands eliminated, summed over runs
	MOptBitsSaved   = "opt.bits.saved"   // counter: state-encoding bits removed, summed over runs

	// Campaign runner.
	MCampaignJobs    = "campaign.jobs.done" // counter: jobs completed
	MCampaignBusyMS  = "campaign.busy_ms"   // counter: summed per-job wall time (utilisation numerator)
	MCampaignWorkers = "campaign.workers"   // gauge: worker-pool size

	// Monte-Carlo fault-injection campaigns (internal/sim/mcfi and the
	// legacy sim.RunCampaign wrapper).
	MSimRuns        = "sim.runs"            // counter: scenarios executed
	MSimSlots       = "sim.slots"           // counter: simulator slots stepped, summed over runs
	MSimUnsynced    = "sim.unsynced"        // counter: runs that never synchronised within the bound
	MSimViolations  = "sim.violations"      // counter: agreement/timeliness violations (in-hypothesis)
	MSimNear        = "sim.near"            // counter: near-violations (startup close to the bound)
	MSimBatches     = "sim.batches.done"    // counter: batches checkpointed
	MSimCorpusSize  = "sim.corpus.size"     // gauge: corpus entries retained
	MSimCoverEdges  = "sim.coverage.edges"  // gauge: distinct abstract transitions seen
	MSimCoverStates = "sim.coverage.states" // gauge: distinct abstract states seen
	MSimReplays     = "sim.replays"         // counter: differential replays performed
	MSimReplayFails = "sim.replays.failed"  // counter: replays that diverged from the model
	MSimWorkers     = "sim.workers"         // gauge: campaign worker-pool size

	// Verification daemon (internal/serve).
	MServeJobsSubmitted  = "serve.jobs.submitted"   // counter: campaign jobs accepted
	MServeJobsDone       = "serve.jobs.done"        // counter: campaign jobs finished (any outcome)
	MServeJobsFailed     = "serve.jobs.failed"      // counter: campaign jobs that ended in error
	MServeUnitsExecuted  = "serve.units.executed"   // counter: work units run on a worker
	MServeUnitsCached    = "serve.units.cached"     // counter: work units answered by the verdict cache
	MServeUnitsRecovered = "serve.units.recovered"  // counter: leased-but-unjournaled units re-run after restart
	MServeQueueDepth     = "serve.queue.depth"      // gauge: work units waiting for a worker
	MServeWorkers        = "serve.workers"          // gauge: worker processes configured
	MServeWorkersBusy    = "serve.workers.busy"     // gauge: worker slots currently executing a unit
	MServeWorkerRestarts = "serve.workers.restarts" // counter: worker processes respawned after dying
	MServeSavedMS        = "serve.saved_ms"         // counter: wall-ms the verdict cache saved (summed per hit)

	// Per-unit fleet accounting: the daemon observes one sample per
	// executed unit from the worker's shipped UnitStats.
	MServeUnitWallMS = "serve.unit.wall_ms" // histogram: wall time per executed unit
	MServeUnitCPUMS  = "serve.unit.cpu_ms"  // histogram: CPU time per executed unit
	MServeUnitRSSKB  = "serve.unit.rss_kb"  // histogram: worker peak RSS at unit completion
)

// Span categories. The Chrome trace viewer groups and colors by "cat";
// the acceptance bar for a useful trace is at least the engine, sat, and
// frame layers appearing on one timeline.
const (
	CatEngine   = "engine"
	CatSAT      = "sat"
	CatFrame    = "frame"
	CatBDD      = "bdd"
	CatCampaign = "campaign"
	CatSim      = "sim"
	CatServe    = "serve"
)
