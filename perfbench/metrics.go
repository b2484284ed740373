package main

// layerMetric is one per-layer metric, with the end-to-end metric and the
// workload it should move (empty for a count that only records size or
// work done). BENCHMARK.json lists the same names, units and directions.
type layerMetric struct {
	name, unit, better string
	moves              string
	value              func(x *layerRun) float64
}

// layerRun is what the per-layer metrics are computed from.
type layerRun struct {
	self     map[string]float64 // self time per span name in the traced pass
	setup    map[string]float64 // median over set-up repeats of the same
	c        counters           // the traced pass's counters and measurements
	setupC   counters           // the last set-up's counters
	untraced []*pass
	traced   *pass
	coverage float64
	fail     float64
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (x *layerRun) satTime() float64 { return x.self["bmc.check"] + x.self["ic3.check"] }

// medianOver is the median of f over the untraced passes.
func (x *layerRun) medianOver(f func(p *pass) float64) float64 {
	var xs []float64
	for _, p := range x.untraced {
		xs = append(xs, f(p))
	}
	return median(xs)
}

func (x *layerRun) warm() []float64 {
	var xs []float64
	for _, p := range x.untraced {
		xs = append(xs, p.warmMS...)
	}
	return xs
}

func selfTime(span string) func(*layerRun) float64 {
	return func(x *layerRun) float64 { return x.self[span] }
}

func setupTime(span string) func(*layerRun) float64 {
	return func(x *layerRun) float64 { return x.setup[span] }
}

func counter(name string) func(*layerRun) float64 {
	return func(x *layerRun) float64 { return x.c[name] }
}

var perLayer = []layerMetric{
	{"tta.build_s", "s", "lower", "setup_s on every workload", setupTime("tta.build")},
	{"gcl.compile_s", "s", "lower", "setup_s on every workload", setupTime("gcl.compile")},
	{"gcl.state_bits", "count", "lower", "", func(x *layerRun) float64 { return x.setupC["gcl.state_bits"] }},
	{"l2s.transform_s", "s", "lower", "wall_s on sat-engines", selfTime("l2s.transform")},
	{"l2s.product_bits", "count", "lower", "sat.propagations, and through it wall_s, on sat-engines", counter("l2s.product_bits")},
	{"opt.bits_saved", "count", "higher", "cold_units_per_s on serve-sweep", counter("opt.bits_saved")},
	{"bdd.cache_lookups", "count", "lower", "wall_s on fig6-bdd; cold_units_per_s on serve-sweep stays", counter("bdd.cache_lookups")},
	{"bdd.cache_hit_ratio", "ratio", "higher", "wall_s on fig6-bdd; cold_units_per_s on serve-sweep stays", func(x *layerRun) float64 {
		return ratio(x.c["bdd.cache_hits"], x.c["bdd.cache_lookups"])
	}},
	{"bdd.nodes_peak", "count", "lower", "peak_rss_mib on fig6-bdd", counter("bdd.nodes_peak")},
	{"bdd.unique_size", "count", "lower", "peak_rss_mib on fig6-bdd", counter("bdd.unique_size")},
	{"bdd.gc_count", "count", "lower", "peak_rss_mib on fig6-bdd", counter("bdd.gc_count")},
	{"bdd.gc_pause_s", "s", "lower", "wall_s on fig6-bdd", counter("bdd.gc_pause_s")},
	{"symbolic.build_s", "s", "lower", "wall_s on fig6-bdd", selfTime("symbolic.build")},
	{"symbolic.reach_s", "s", "lower", "wall_s on fig6-bdd", selfTime("symbolic.reach")},
	{"symbolic.invariant_s", "s", "lower", "wall_s on fig6-bdd", selfTime("symbolic.invariant")},
	{"symbolic.eventually_s", "s", "lower", "wall_s on fig6-bdd", selfTime("symbolic.eventually")},
	{"symbolic.iterations", "count", "lower", "", counter("symbolic.iterations")},
	{"explicit.explore_s", "s", "lower", "wall_s on sat-engines", selfTime("explicit.explore")},
	{"explicit.states", "count", "lower", "wall_s on sat-engines", counter("explicit.states")},
	{"explicit.states_per_s", "1/s", "higher", "wall_s on sat-engines", func(x *layerRun) float64 {
		return ratio(x.c["explicit.states"], x.self["explicit.explore"])
	}},
	{"gcl.eval_s", "s", "lower", "wall_s on sat-engines", selfTime("gcl.eval")},
	{"sat.queries", "count", "lower", "", counter("sat.queries")},
	{"sat.propagations", "count", "lower", "", counter("sat.propagations")},
	{"sat.decisions", "count", "lower", "", counter("sat.decisions")},
	{"sat.conflicts", "count", "lower", "", counter("sat.conflicts")},
	{"sat.restarts", "count", "lower", "", counter("sat.restarts")},
	{"sat.propagations_per_s", "1/s", "higher", "wall_s on sat-engines", func(x *layerRun) float64 {
		return ratio(x.c["sat.propagations"], x.satTime())
	}},
	{"sat.us_per_query", "us", "lower", "wall_s on sat-engines", func(x *layerRun) float64 {
		return ratio(x.satTime()*1e6, x.c["sat.queries"])
	}},
	{"bmc.check_s", "s", "lower", "wall_s on sat-engines", selfTime("bmc.check")},
	{"bmc.clique_depth", "count", "lower", "", counter("bmc.clique_depth")},
	{"ic3.check_s", "s", "lower", "wall_s on sat-engines", selfTime("ic3.check")},
	{"ic3.core_keep_ratio", "ratio", "lower", "wall_s on sat-engines", func(x *layerRun) float64 {
		return ratio(x.c["ic3.core_kept"], x.c["ic3.obligations"])
	}},
	{"ic3.queries_per_obligation", "count", "lower", "wall_s on sat-engines", func(x *layerRun) float64 {
		return ratio(x.c["ic3.queries"], x.c["ic3.obligations"])
	}},
	{"ic3.frames", "count", "lower", "", counter("ic3.frames")},
	{"ic3.obligations", "count", "lower", "", counter("ic3.obligations")},
	{"mcfi.execute_s", "s", "lower", "sim_runs_per_s on sat-engines", selfTime("mcfi.execute")},
	{"mcfi.slots_per_s", "1/s", "higher", "sim_runs_per_s on sat-engines", func(x *layerRun) float64 {
		return ratio(x.c["mcfi.slots"], x.self["mcfi.execute"])
	}},
	{"mcfi.replay_s", "s", "lower", "wall_s on sat-engines", selfTime("mcfi.replay")},
	{"mcfi.corpus_size", "count", "lower", "", counter("mcfi.corpus_size")},
	{"mcfi.replay_entries", "count", "lower", "", counter("mcfi.replay_entries")},
	{"serve.start_s", "s", "lower", "setup_s on serve-sweep", setupTime("serve.start")},
	{"serve.unit_exec_s", "s", "lower", "cold_units_per_s on serve-sweep", counter("serve.unit_exec_s")},
	{"serve.slot_busy_ratio", "ratio", "higher", "cold_units_per_s on serve-sweep", func(x *layerRun) float64 {
		return ratio(x.c["serve.unit_exec_s"], serveWorkers*x.c["serve.cold_s"])
	}},
	{"serve.dispatch_ms_per_unit", "ms", "lower", "cold_units_per_s on serve-sweep", func(x *layerRun) float64 {
		return ratio((serveWorkers*x.c["serve.cold_s"]-x.c["serve.unit_exec_s"])*1e3, x.c["serve.cold_units"])
	}},
	{"serve.warm_cache_hit_ratio", "ratio", "higher", "warm_submit_p50_ms on serve-sweep", func(x *layerRun) float64 {
		return ratio(x.c["serve.warm_cached"], x.c["serve.warm_units"])
	}},
	{"serve.worker_max_rss_mib", "MiB", "lower", "peak_rss_mib on serve-sweep", counter("serve.worker_max_rss_mib")},
	{"serve.submit_s", "s", "lower", "warm_submit_p50_ms on serve-sweep", selfTime("serve.submit")},
	{"serve.wait_s", "s", "lower", "cold_units_per_s on serve-sweep", selfTime("serve.wait")},
	{"serve.units_s", "s", "lower", "warm_submit_p50_ms on serve-sweep", selfTime("serve.units")},

	// Workload-level numbers, measured on the untraced passes. They apply
	// to one workload each, so they cannot be end-to-end metrics, which
	// every workload must report; wall_s bounds them, since every pass
	// does a fixed amount of work.
	{"sim_runs_per_s", "1/s", "higher", "wall_s on sat-engines", func(x *layerRun) float64 {
		return x.medianOver(func(p *pass) float64 { return ratio(p.stats["mcfi.runs"], p.stats["mcfi.run_s"]) })
	}},
	{"cold_units_per_s", "1/s", "higher", "wall_s on serve-sweep", func(x *layerRun) float64 {
		return x.medianOver(func(p *pass) float64 { return ratio(p.stats["serve.cold_units"], p.stats["serve.cold_s"]) })
	}},
	{"warm_submit_p50_ms", "ms", "lower", "wall_s on serve-sweep", func(x *layerRun) float64 { return quantile(x.warm(), 0.5) }},
	{"warm_submit_p90_ms", "ms", "lower", "wall_s on serve-sweep", func(x *layerRun) float64 { return quantile(x.warm(), 0.9) }},
	{"warm_submit_samples", "count", "higher", "", func(x *layerRun) float64 { return float64(len(x.warm())) }},
	{"fail_ratio", "ratio", "lower", "", func(x *layerRun) float64 { return x.fail }},

	{"bench.span_coverage", "ratio", "higher", "", func(x *layerRun) float64 { return x.coverage }},
	{"bench.trace_overhead_ratio", "ratio", "lower", "", func(x *layerRun) float64 {
		return ratio(x.traced.wall.Seconds(), x.medianOver(func(p *pass) float64 { return p.wall.Seconds() })) - 1
	}},
}

// layerMetrics computes every per-layer metric.
func layerMetrics(rec *recorder, untraced []*pass, traced *pass, tracedRoot int, setupRoots []int, setupC counters, sum *summary) map[string]metric {
	x := &layerRun{
		self:     rec.selfTimes(tracedRoot),
		setup:    make(map[string]float64),
		c:        counters{},
		setupC:   setupC,
		untraced: untraced,
		traced:   traced,
		coverage: rec.coverage(tracedRoot),
		fail:     ratio(float64(sum.Failed), float64(sum.Attempted)),
	}
	x.c.add(traced.total)
	x.c.add(traced.stats)
	perSetup := make(map[string][]float64)
	for _, root := range setupRoots {
		for name, t := range rec.selfTimes(root) {
			perSetup[name] = append(perSetup[name], t)
		}
	}
	for name, ts := range perSetup {
		x.setup[name] = median(ts)
	}
	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = metric{m.value(x), m.unit}
	}
	return out
}
