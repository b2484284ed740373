package main

// layers.go is the benchmark's single point of contact with the
// verification stack: every call into a ttastartup/internal package is made
// here, each wrapped in a recorder call named after its layer (tta., gcl.,
// l2s., symbolic., explicit., bmc., ic3., mcfi., serve.). The workloads
// call these functions and never the packages themselves, so a change to
// how checks are dispatched edits this file alone. Nothing here adds
// instrumentation to the stack: the counters are the ones the engines
// already expose (mc.Stats, bdd.Manager.SnapshotStats, served unit stats).

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"ttastartup/internal/bdd"
	"ttastartup/internal/campaign"
	"ttastartup/internal/gcl"
	"ttastartup/internal/gcl/l2s"
	"ttastartup/internal/mc"
	"ttastartup/internal/mc/bmc"
	"ttastartup/internal/mc/explicit"
	"ttastartup/internal/mc/ic3"
	"ttastartup/internal/mc/symbolic"
	"ttastartup/internal/obs"
	"ttastartup/internal/serve"
	"ttastartup/internal/sim/mcfi"
	"ttastartup/internal/tta"
	"ttastartup/internal/tta/original"
	"ttastartup/internal/tta/startup"
)

// modelSpec names one model instance. Hub models are the paper's star
// topology (internal/tta/startup), bus models its original design
// (internal/tta/original).
type modelSpec struct {
	Bus        bool
	N          int
	FaultyNode int // -1: none
	FaultyHub  int // -1: none
	Degree     int // fault degree of the faulty node (unused for a faulty hub)
	DeltaInit  int // 0: the model's default power-on window
	NoBigBang  bool
}

func (s modelSpec) String() string {
	topo := "hub"
	switch {
	case s.Bus:
		topo = "bus"
	case s.NoBigBang:
		topo = "hub-nobb"
	}
	fault := fmt.Sprintf("node%d-deg%d", s.FaultyNode, s.Degree)
	if s.FaultyHub >= 0 {
		fault = fmt.Sprintf("hub%d", s.FaultyHub)
	}
	init := ""
	if s.DeltaInit != 0 {
		init = fmt.Sprintf("-init%d", s.DeltaInit)
	}
	return fmt.Sprintf("%s-n%d-%s%s", topo, s.N, fault, init)
}

// wsup is the paper's worst-case startup time w_sup for the spec's n.
func (s modelSpec) wsup() int { return tta.Params{N: s.N}.WorstCaseStartup() }

// model is a built and compiled model with its lemmas.
type model struct {
	spec  modelSpec
	sys   *gcl.System
	comp  *gcl.Compiled
	props map[string]mc.Property
}

// layers issues the layer calls of one benchmark run through its recorder.
type layers struct {
	ctx context.Context
	rec *recorder
}

// build constructs and compiles one model (tta.build, gcl.compile).
func (l *layers) build(spec modelSpec) (*model, error) {
	m := &model{spec: spec, props: make(map[string]mc.Property)}
	err := l.rec.call("tta.build", func() (counters, error) {
		if spec.Bus {
			b, err := original.Build(original.Config{N: spec.N, FaultyNode: spec.FaultyNode, FaultDegree: spec.Degree, DeltaInit: spec.DeltaInit})
			if err != nil {
				return nil, err
			}
			m.sys = b.Sys
			m.props["safety"], m.props["liveness"] = b.Safety(), b.Liveness()
			return nil, nil
		}
		cfg := startup.DefaultConfig(spec.N)
		if spec.FaultyHub >= 0 {
			cfg = cfg.WithFaultyHub(spec.FaultyHub)
		} else {
			cfg = cfg.WithFaultyNode(spec.FaultyNode)
			cfg.FaultDegree = spec.Degree
		}
		cfg.DeltaInit = spec.DeltaInit
		cfg.DisableBigBang = spec.NoBigBang
		h, err := startup.Build(cfg)
		if err != nil {
			return nil, err
		}
		// The timeliness bound of core.Suite: w_sup plus one round.
		bound := h.P.WorstCaseStartup() + h.P.Round()
		m.sys = h.Sys
		m.props["safety"], m.props["liveness"] = h.Safety(), h.Liveness()
		m.props["timeliness"], m.props["safety_2"] = h.Timeliness(bound), h.Safety2(bound)
		return nil, nil
	})
	if err != nil {
		return nil, fmt.Errorf("build %v: %w", spec, err)
	}
	err = l.rec.call("gcl.compile", func() (counters, error) {
		m.comp = m.sys.Compile()
		return counters{"gcl.state_bits": float64(stateBits(m.sys))}, nil
	})
	return m, err
}

func stateBits(sys *gcl.System) int {
	bits := 0
	for _, v := range sys.StateVars() {
		bits += v.Type.Bits()
	}
	return bits
}

func (m *model) prop(lemma string) (mc.Property, error) {
	p, ok := m.props[lemma]
	if !ok {
		return mc.Property{}, fmt.Errorf("model %v has no lemma %q", m.spec, lemma)
	}
	return p, nil
}

// outcome is what one check produced: the verdict and the numbers the
// benchmark's output checks compare against their pinned values.
type outcome struct {
	Verdict string
	Reach   string // exact reachable-state count (symbolic invariant checks)
	Depth   int    // BMC depth reached / IC3 frames / k
	States  int    // explicit engine: states explored
	Cex     *cex   // counterexample, replayed by the output checks
}

// cex is a counterexample together with what replaying it needs.
type cex struct {
	sys   *gcl.System
	prop  mc.Property
	trace *mc.Trace
}

func resultOutcome(m *model, res *mc.Result) outcome {
	o := outcome{Verdict: res.Verdict.String(), Depth: res.Stats.Iterations}
	if res.Stats.Reachable != nil {
		o.Reach = res.Stats.Reachable.String()
	}
	if res.Trace != nil {
		o.Cex = &cex{sys: m.sys, prop: res.Property, trace: res.Trace}
	}
	return o
}

// satCounters are the SAT-engine work counters of one run.
func satCounters(st mc.Stats) counters {
	return counters{
		"sat.queries":      float64(st.SATQueries),
		"sat.propagations": float64(st.Propagations),
		"sat.decisions":    float64(st.Decisions),
		"sat.conflicts":    float64(st.Conflicts),
		"sat.restarts":     float64(st.Restarts),
	}
}

func ic3Counters(st mc.Stats) counters {
	c := satCounters(st)
	c["ic3.queries"] = float64(st.SATQueries)
	c["ic3.frames"] = float64(st.Iterations)
	c["ic3.obligations"] = float64(st.Obligations)
	// CoreShrink is a per-run mean; weighting it by the run's obligations
	// lets the sum over runs be divided back into one ratio.
	c["ic3.core_kept"] = st.CoreShrink * float64(st.Obligations)
	return c
}

// symEngine is a symbolic engine over one model.
type symEngine struct {
	m    *model
	eng  *symbolic.Engine
	last bdd.Stats
}

// bddDelta reports the BDD manager's work since the engine's previous
// layer call, so each call is charged only for its own lookups and GCs.
func (e *symEngine) bddDelta() counters {
	now := e.eng.Manager().SnapshotStats()
	c := counters{
		"bdd.cache_hits":    float64(now.CacheHits - e.last.CacheHits),
		"bdd.cache_lookups": float64(now.CacheHits + now.CacheMisses - e.last.CacheHits - e.last.CacheMisses),
		"bdd.gc_count":      float64(now.GCs - e.last.GCs),
		"bdd.gc_pause_s":    (now.GCPause - e.last.GCPause).Seconds(),
		"bdd.unique_size":   float64(now.UniqueSize),
	}
	e.last = now
	return c
}

// symbolicNew builds the BDD encoding of m's transition relation.
func (l *layers) symbolicNew(m *model) (*symEngine, error) {
	e := &symEngine{m: m}
	err := l.rec.call("symbolic.build", func() (counters, error) {
		eng, err := symbolic.New(m.comp, symbolic.Options{})
		if err != nil {
			return nil, err
		}
		e.eng = eng
		return e.bddDelta(), nil
	})
	return e, err
}

// reach computes the reachable states (the forward-image fixpoint).
func (l *layers) reach(e *symEngine) error {
	return l.rec.call("symbolic.reach", func() (counters, error) {
		if _, err := e.eng.ReachableCtx(l.ctx); err != nil {
			return nil, err
		}
		c := e.bddDelta()
		c["symbolic.iterations"] = float64(e.eng.Iterations())
		return c, nil
	})
}

// symbolicCheck checks one lemma on the engine's (cached) reachable set:
// an invariant by set difference, an eventuality by the EG fixpoint.
func (l *layers) symbolicCheck(e *symEngine, lemma string) (outcome, error) {
	prop, err := e.m.prop(lemma)
	if err != nil {
		return outcome{}, err
	}
	name := "symbolic.invariant"
	if prop.Kind == mc.Eventually {
		name = "symbolic.eventually"
	}
	var o outcome
	err = l.rec.call(name, func() (counters, error) {
		var res *mc.Result
		var err error
		if prop.Kind == mc.Eventually {
			res, err = e.eng.CheckEventuallyCtx(l.ctx, prop)
		} else {
			res, err = e.eng.CheckInvariantCtx(l.ctx, prop)
		}
		if err != nil {
			return nil, err
		}
		o = resultOutcome(e.m, res)
		c := e.bddDelta()
		c["bdd.nodes_peak"] = float64(res.Stats.PeakNodes)
		return c, nil
	})
	return o, err
}

// graph is a fully explored explicit state graph.
type graph struct {
	m *model
	g *explicit.Graph
}

// explore runs the explicit engine's breadth-first search to exhaustion.
func (l *layers) explore(m *model) (*graph, error) {
	g := &graph{m: m}
	err := l.rec.call("explicit.explore", func() (counters, error) {
		res, err := explicit.ExploreCtx(l.ctx, m.sys, explicit.Options{})
		if err != nil {
			return nil, err
		}
		g.g = res
		return counters{"explicit.states": float64(res.NumStates())}, nil
	})
	return g, err
}

// scanInvariant evaluates an invariant on every explored state with the
// gcl interpreter; the verdict is VIOLATED if any state breaks it.
func (l *layers) scanInvariant(g *graph, lemma string) (outcome, error) {
	prop, err := g.m.prop(lemma)
	if err != nil {
		return outcome{}, err
	}
	o := outcome{Verdict: mc.Holds.String(), States: g.g.NumStates()}
	err = l.rec.call("gcl.eval", func() (counters, error) {
		for i, st := range g.g.States {
			if !gcl.Holds(prop.Pred, st) {
				o.Verdict = mc.Violated.String()
				o.Cex = &cex{sys: g.m.sys, prop: prop, trace: g.pathTo(int32(i))}
				break
			}
		}
		return nil, nil
	})
	return o, err
}

// pathTo is the breadth-first tree path from an initial state to state i.
func (g *graph) pathTo(i int32) *mc.Trace {
	var states []gcl.State
	for ; i >= 0; i = g.g.Parents[i] {
		states = append(states, g.g.States[i])
	}
	slices.Reverse(states)
	return mc.NewTrace(states)
}

// bmcCheck runs bounded model checking to depth: an invariant by
// unrolling, an eventuality by lasso search.
func (l *layers) bmcCheck(m *model, lemma string, depth int) (outcome, error) {
	prop, err := m.prop(lemma)
	if err != nil {
		return outcome{}, err
	}
	var o outcome
	err = l.rec.call("bmc.check", func() (counters, error) {
		opts := bmc.Options{MaxDepth: depth}
		var res *mc.Result
		var err error
		if prop.Kind == mc.Eventually {
			res, err = bmc.CheckEventuallyRefuteCtx(l.ctx, m.comp, prop, opts)
		} else {
			res, err = bmc.CheckInvariantCtx(l.ctx, m.comp, prop, opts)
		}
		if err != nil {
			return nil, err
		}
		o = resultOutcome(m, res)
		return satCounters(res.Stats), nil
	})
	return o, err
}

// inductionCheck proves a lemma by k-induction up to maxK; an eventuality
// goes through the liveness-to-safety product with simple-path
// constraints, which makes the induction complete on it.
func (l *layers) inductionCheck(m *model, lemma string, maxK int) (outcome, error) {
	prop, err := m.prop(lemma)
	if err != nil {
		return outcome{}, err
	}
	if prop.Kind == mc.Eventually {
		return l.viaProduct(m, prop, "bmc.check", func(comp *gcl.Compiled, safe mc.Property) (*mc.Result, counters, error) {
			res, err := bmc.CheckInvariantInductionCtx(l.ctx, comp, safe, bmc.InductionOptions{MaxK: maxK, SimplePath: true})
			if err != nil {
				return nil, nil, err
			}
			return res, satCounters(res.Stats), nil
		})
	}
	var o outcome
	err = l.rec.call("bmc.check", func() (counters, error) {
		res, err := bmc.CheckInvariantInductionCtx(l.ctx, m.comp, prop, bmc.InductionOptions{MaxK: maxK})
		if err != nil {
			return nil, err
		}
		o = resultOutcome(m, res)
		return satCounters(res.Stats), nil
	})
	return o, err
}

// ic3Check proves or refutes a lemma with IC3; an eventuality goes through
// the liveness-to-safety product.
func (l *layers) ic3Check(m *model, lemma string) (outcome, error) {
	prop, err := m.prop(lemma)
	if err != nil {
		return outcome{}, err
	}
	run := func(comp *gcl.Compiled, p mc.Property) (*mc.Result, counters, error) {
		res, err := ic3.CheckInvariantCtx(l.ctx, comp, p, ic3.Options{})
		if err != nil {
			return nil, nil, err
		}
		return res, ic3Counters(res.Stats), nil
	}
	if prop.Kind == mc.Eventually {
		return l.viaProduct(m, prop, "ic3.check", run)
	}
	var o outcome
	err = l.rec.call("ic3.check", func() (counters, error) {
		res, c, err := run(m.comp, prop)
		if err != nil {
			return nil, err
		}
		o = resultOutcome(m, res)
		return c, nil
	})
	return o, err
}

// viaProduct checks AF p by an invariant engine on the liveness-to-safety
// product, the same steps ic3.CheckEventually and
// bmc.CheckEventuallyInduction take, issued one layer call at a time:
// l2s.transform, l2s.compile, the engine, and l2s.project, which maps a
// product counterexample back to a lasso of the source model.
func (l *layers) viaProduct(m *model, prop mc.Property, engine string, check func(*gcl.Compiled, mc.Property) (*mc.Result, counters, error)) (outcome, error) {
	var prod *l2s.Product
	err := l.rec.call("l2s.transform", func() (counters, error) {
		p, err := l2s.Transform(m.sys, prop.Pred)
		if err != nil {
			return nil, err
		}
		prod = p
		return counters{"l2s.product_bits": float64(stateBits(p.Sys))}, nil
	})
	if err != nil {
		return outcome{}, err
	}
	var comp *gcl.Compiled
	if err := l.rec.call("l2s.compile", func() (counters, error) {
		comp = prod.Sys.Compile()
		return nil, nil
	}); err != nil {
		return outcome{}, err
	}
	var res *mc.Result
	err = l.rec.call(engine, func() (counters, error) {
		r, c, err := check(comp, mc.Property{Name: prop.Name, Kind: mc.Invariant, Pred: prod.Safe})
		res = r
		return c, err
	})
	if err != nil {
		return outcome{}, err
	}
	res.Property = prop
	if res.Verdict == mc.Violated {
		err = l.rec.call("l2s.project", func() (counters, error) {
			states, loopsTo, err := prod.ProjectLasso(res.Trace.States)
			if err != nil {
				return nil, err
			}
			res.Trace = &mc.Trace{States: states, LoopsTo: loopsTo}
			return nil, nil
		})
		if err != nil {
			return outcome{}, err
		}
	}
	return resultOutcome(m, res), nil
}

// replay checks a counterexample on the gcl interpreter: it starts in an
// initial state, every step is a transition of the model, an invariant
// counterexample ends in a bad state, and a liveness lasso closes with a
// transition back to its loop state and never satisfies the predicate.
func (l *layers) replay(c *cex) error {
	return l.rec.call("gcl.replay", func() (counters, error) {
		return nil, replayTrace(c)
	})
}

func replayTrace(c *cex) error {
	tr, sys := c.trace, c.sys
	if tr == nil || tr.Len() == 0 {
		return fmt.Errorf("empty counterexample")
	}
	stepper := gcl.NewStepper(sys)
	vars := sys.StateVars()
	isInit := false
	first := gcl.Key(tr.States[0], vars)
	stepper.InitStates(func(st gcl.State) bool {
		isInit = gcl.Key(st, vars) == first
		return !isInit
	})
	if !isInit {
		return fmt.Errorf("counterexample does not start in an initial state")
	}
	step := func(from, to gcl.State) bool {
		want, ok := gcl.Key(to, vars), false
		stepper.Successors(from, func(next gcl.State) bool {
			ok = gcl.Key(next, vars) == want
			return !ok
		})
		return ok
	}
	for i := 0; i+1 < tr.Len(); i++ {
		if !step(tr.States[i], tr.States[i+1]) {
			return fmt.Errorf("counterexample step %d is not a transition", i)
		}
	}
	last := tr.States[tr.Len()-1]
	switch c.prop.Kind {
	case mc.Invariant:
		if gcl.Holds(c.prop.Pred, last) {
			return fmt.Errorf("counterexample ends in a state satisfying %s", c.prop.Name)
		}
	case mc.Eventually:
		if tr.LoopsTo < 0 || tr.LoopsTo >= tr.Len() {
			return fmt.Errorf("liveness counterexample is not a lasso (loops to %d)", tr.LoopsTo)
		}
		if !step(last, tr.States[tr.LoopsTo]) {
			return fmt.Errorf("lasso back-edge is not a transition")
		}
		for i, st := range tr.States {
			if gcl.Holds(c.prop.Pred, st) {
				return fmt.Errorf("lasso state %d satisfies %s", i, c.prop.Name)
			}
		}
	}
	return nil
}

// mcfiCampaign is a finished Monte-Carlo fault-injection campaign.
type mcfiCampaign struct {
	spec   mcfi.Spec
	report *mcfi.Report
}

// Runs, Violations, Slots and CorpusSize summarise the campaign report.
func (c *mcfiCampaign) Runs() int       { return c.report.TotalRuns() }
func (c *mcfiCampaign) Violations() int { return c.report.Violations }
func (c *mcfiCampaign) CorpusSize() int { return len(c.report.Corpus) }
func (c *mcfiCampaign) Slots() int64 {
	var slots int64
	for _, k := range c.report.Kinds {
		slots += k.TotalSlots
	}
	return slots
}

// Digest is the SHA-256 of the campaign's JSON report, which by design
// carries no timing and is byte-identical across worker counts.
func (c *mcfiCampaign) Digest() (string, error) {
	h := sha256.New()
	if err := c.report.WriteJSON(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// mcfiRun runs a Monte-Carlo fault-injection campaign of samples scenarios
// over the tta/sim simulator on a pool of workers, in memory (no
// checkpoint file).
func (l *layers) mcfiRun(n, samples int, seed int64, workers int) (*mcfiCampaign, error) {
	c := &mcfiCampaign{spec: mcfi.Spec{N: n, Samples: samples, Seed: seed}.Normalize()}
	err := l.rec.call("mcfi.execute", func() (counters, error) {
		rep, err := mcfi.Run(l.ctx, c.spec, mcfi.RunOptions{Workers: workers})
		if err != nil {
			return nil, err
		}
		if !rep.Completed {
			return nil, fmt.Errorf("mcfi campaign stopped after %d of %d batches", rep.Batches, c.spec.Batches())
		}
		c.report = rep
		return nil, nil
	})
	return c, err
}

// mcfiReplay replays the campaign's whole corpus through the gcl stepper
// and returns how many entries failed their cross-checks.
func (l *layers) mcfiReplay(c *mcfiCampaign, workers int) (failed int, err error) {
	err = l.rec.call("mcfi.replay", func() (counters, error) {
		results, err := mcfi.ReplayCorpusCtx(l.ctx, c.spec, c.report.Corpus, workers, obs.Scope{})
		if err != nil {
			return nil, err
		}
		for _, r := range results {
			if !r.OK {
				failed++
			}
		}
		return nil, nil
	})
	return failed, err
}

// serveWorkerFlag makes the benchmark binary act as a ttaserved worker
// process: the daemon re-executes the binary with it.
const serveWorkerFlag = "-serve-worker"

func runServeWorker() error {
	return serve.RunWorker(context.Background(), os.Stdin, os.Stdout)
}

// sweepSpec is a verification campaign: the four paper lemmas on hub
// models of each n and fault degree, symbolic engine.
type sweepSpec struct {
	Ns        []int
	Degrees   []int
	DeltaInit int
}

func (s sweepSpec) request() serve.SubmitRequest {
	return serve.SubmitRequest{Kind: serve.KindVerify, Verify: &campaign.Spec{
		Ns: s.Ns, Degrees: s.Degrees, DeltaInit: s.DeltaInit,
	}}
}

// units is the number of units, one per campaign job, the sweep expands to.
func (s sweepSpec) units() (int, error) {
	jobs, err := s.request().Verify.Jobs()
	return len(jobs), err
}

// models lists the distinct models the sweep's jobs check.
func (s sweepSpec) models() ([]modelSpec, error) {
	jobs, err := s.request().Verify.Jobs()
	if err != nil {
		return nil, err
	}
	seen := make(map[modelSpec]bool)
	var out []modelSpec
	for _, j := range jobs {
		cfg := campaign.HubConfig(j)
		ms := modelSpec{N: cfg.N, FaultyNode: cfg.FaultyNode, FaultyHub: cfg.FaultyHub, Degree: cfg.FaultDegree, DeltaInit: cfg.DeltaInit, NoBigBang: cfg.DisableBigBang}
		if ms.FaultyHub >= 0 {
			ms.Degree = 0
		}
		if !seen[ms] {
			seen[ms] = true
			out = append(out, ms)
		}
	}
	return out, nil
}

// daemon is an in-process verification service whose units run on
// re-executed worker processes of this binary.
type daemon struct {
	d *serve.Daemon
}

// serveStart opens a daemon on dir with the given number of worker slots.
func (l *layers) serveStart(dir string, workers int) (*daemon, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	d := &daemon{}
	err = l.rec.call("serve.start", func() (counters, error) {
		sd, err := serve.New(serve.Config{Dir: dir, Workers: workers, WorkerCmd: []string{exe, serveWorkerFlag}, Log: io.Discard})
		d.d = sd
		return nil, err
	})
	return d, err
}

// serveClose stops the daemon and waits for its worker processes to exit.
func (l *layers) serveClose(d *daemon) error {
	return l.rec.call("serve.close", func() (counters, error) {
		return nil, d.d.Close()
	})
}

// submission is one finished job of the daemon.
type submission struct {
	Total, Cached, Executed, Failed int
	// Verdicts counts the canonical report's unit verdicts.
	Verdicts map[string]int
	// Report is the canonical (timing-free) report text.
	Report string
	// ExecS sums the wall time of the units executed on workers;
	// WorkerRSSKiB is each worker slot's peak resident set.
	ExecS        float64
	WorkerRSSKiB map[int]int64
}

// serveSubmit submits a sweep, waits for its report and reads the job's
// per-unit accounting (serve.submit, serve.wait, serve.report,
// serve.units).
func (l *layers) serveSubmit(d *daemon, s sweepSpec) (*submission, error) {
	var id string
	if err := l.rec.call("serve.submit", func() (counters, error) {
		st, err := d.d.Submit(s.request())
		id = st.ID
		return nil, err
	}); err != nil {
		return nil, err
	}
	sub := &submission{Verdicts: make(map[string]int), WorkerRSSKiB: make(map[int]int64)}
	if err := l.rec.call("serve.wait", func() (counters, error) {
		st, err := d.d.Wait(l.ctx, id)
		if err != nil {
			return nil, err
		}
		if st.State != "done" {
			return nil, fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
		}
		sub.Total, sub.Cached, sub.Executed, sub.Failed = st.Total, st.Cached, st.Executed, st.Failed
		return nil, nil
	}); err != nil {
		return nil, err
	}
	if err := l.rec.call("serve.report", func() (counters, error) {
		text, err := d.d.ReportText(id)
		if err != nil {
			return nil, err
		}
		sub.Report = string(text)
		for _, line := range strings.Split(strings.TrimSpace(sub.Report), "\n") {
			if f := strings.Split(line, "\t"); len(f) >= 2 {
				sub.Verdicts[f[1]]++
			}
		}
		return nil, nil
	}); err != nil {
		return nil, err
	}
	err := l.rec.call("serve.units", func() (counters, error) {
		units, err := d.d.Units(id)
		if err != nil {
			return nil, err
		}
		c := counters{}
		for _, u := range units {
			if u.Stats == nil || u.Cached {
				continue
			}
			sub.ExecS += float64(u.Stats.WallMS) / 1e3
			sub.WorkerRSSKiB[u.Worker] = max(sub.WorkerRSSKiB[u.Worker], u.Stats.MaxRSSKB)
			m := u.Stats.Metrics
			c["opt.bits_saved"] += float64(m.Counters[obs.MOptBitsSaved])
			c["bdd.cache_hits"] += float64(m.Counters[obs.MBDDCacheHits])
			c["bdd.cache_lookups"] += float64(m.Counters[obs.MBDDCacheHits] + m.Counters[obs.MBDDCacheMisses])
			c["bdd.gc_count"] += float64(m.Counters[obs.MBDDGCs])
			c["bdd.gc_pause_s"] += float64(m.Histograms[obs.MBDDGCPauseUS].Sum) / 1e6
			c["bdd.nodes_peak"] = max(c["bdd.nodes_peak"], float64(m.Gauges[obs.MBDDNodesPeak]))
			c["bdd.unique_size"] = max(c["bdd.unique_size"], float64(m.Gauges[obs.MBDDUniqueSize]))
		}
		return c, nil
	})
	return sub, err
}

// writeChrome writes the recorded spans as a Chrome trace_event file,
// the format the ttatrace validator checks.
func writeChrome(path string, spans []span) error {
	events := make([]obs.SpanEvent, 0, len(spans))
	for _, s := range spans {
		args := map[string]any{"id": s.id}
		if s.parent >= 0 {
			args["parent"] = s.parent
		}
		if s.label != "" {
			args["op"] = s.label
		}
		for k, v := range s.counters {
			args[k] = v
		}
		events = append(events, obs.SpanEvent{
			Name: s.name, Cat: strings.SplitN(s.name, ".", 2)[0], Ph: "X",
			TS: s.start.Microseconds(), Dur: (s.end - s.start).Microseconds(), Args: args,
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeEvents(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
