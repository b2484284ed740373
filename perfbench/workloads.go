package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime/debug"
	"strconv"
	"time"
)

// The seed argument the benchmark defaults to, and a held-out seed kept out
// of tuning: both have their results pinned below.
const (
	defaultSeed = 1
	heldOutSeed = 104729
)

// workload is one named set of inputs. Each stresses a different layer of
// the stack. The identities of the faulty node and hub change the work of
// a check by up to two times (node 0/1/2 liveness: 32/30/22 s), so every
// workload checks a fixed set of identities and the seed never picks them,
// so that runs made with different seeds can be compared. The seed picks
// what leaves the amount of work alone: the order of the checks, the
// Monte-Carlo campaign seed, and the order of the served sweep's degrees.
type workload struct {
	name, why string
	// models lists the models that set-up builds and compiles.
	models func() ([]modelSpec, error)
	// daemon makes set-up also start and stop a verification daemon.
	daemon bool
	// passes is the least number of passes a run makes: the medians of
	// several short passes shrug off a burst of load on the machine.
	passes int
	// gcPercent, when set, replaces Go's default garbage-collection target
	// (GOGC=100) for the run.
	gcPercent int
	// run issues one pass of the workload's checks.
	run func(p *pass) error
}

var workloads = []*workload{
	{
		name:   "fig6-bdd",
		why:    "Fig. 6 n=3 at the paper's delta_init, symbolic engine: the BDD kernel with forward images and the backward EG fixpoint does all the work",
		models: func() ([]modelSpec, error) { return fig6Models(), nil },
		passes: 1,
		// The BDD node table is one pointer-free slice that append grows
		// in steps. At GOGC=100 whether a collection frees the old table
		// before the next step is a matter of timing, and peak RSS lands
		// at 660, 760 or 850 MiB from run to run; at GOGC=50 a collection
		// always comes first. The other workloads' heaps are full of
		// pointers and pay for a lower target (at GOGC=25 the served
		// sweep used 60% more CPU), so they keep the default.
		gcPercent: 50,
		run:       fig6Pass,
	},
	{
		name:   "sat-engines",
		why:    "bus lemmas by BMC, k-induction and IC3 (liveness via l2s), the section 5.2 clique, the section 3 explicit BFS and an mcfi campaign, on one core: SAT and concrete-state layers, no BDDs",
		models: func() ([]modelSpec, error) { return satModels(), nil },
		passes: 1,
		run:    satPass,
	},
	{
		name:   "serve-sweep",
		why:    "served symbolic sweep, cold then warm resubmissions: dispatch, journal, worker IPC, verdict cache and many small BDD managers",
		models: serveSweep.models,
		daemon: true,
		passes: 2,
		run:    servePass,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// expect pins what a check must produce; zero fields are not compared.
type expect struct {
	Verdict string
	Reach   string
	Depth   int
	States  int
}

const (
	holds        = "holds"
	holdsBounded = "holds (bounded)"
	violated     = "VIOLATED"
)

// result is one operation group's outcome, judged after the pass. An
// operation is a check, an mcfi run or a served unit.
type result struct {
	name   string
	ops    int     // operations in the group
	failed int     // operations found failed one by one
	err    error   // fails every operation of the group
	want   *expect // compared against out when set
	out    outcome
}

// pass is one run of a workload's checks.
type pass struct {
	l      *layers
	seed   int64
	rng    *rand.Rand
	models map[modelSpec]*model
	dir    string // scratch directory

	wall, cpu time.Duration // summed over the operations
	childCPU  time.Duration // worker processes, reaped in the pass
	childRSS  int64         // KiB summed over the worker processes' peaks
	total     counters      // counters charged by the pass's layer calls
	stats     counters      // numbers the benchmark measures itself
	warmMS    []float64     // warm submission latencies
	results   []result
	work      work // deterministic counters per operation
}

func newPass(l *layers, seed int64, models map[modelSpec]*model, dir string) *pass {
	return &pass{
		l: l, seed: seed, rng: rand.New(rand.NewSource(seed)), models: models, dir: dir,
		stats: counters{}, work: make(work),
	}
}

// op runs a group of layer calls as one named operation, adds its time to
// the pass's wall_s and cpu_s, and records its deterministic work
// counters. Before the clock starts it collects garbage and returns free
// memory to the system, so that what earlier operations left behind
// neither burdens nor inflates this one: peak_rss_mib is then the peak of
// the largest operation, whatever order the seed gave them. Set-up, the
// output checks and a daemon's start and stop happen outside operations.
func (p *pass) op(name string, fn func() error) error {
	debug.FreeOSMemory()
	cpu0, t0 := selfCPU(), time.Now()
	c, err := p.l.rec.operation(name, fn)
	wall, cpu := time.Since(t0), selfCPU()-cpu0
	p.wall += wall
	p.cpu += cpu
	fmt.Fprintf(os.Stderr, "  %s: wall %.3f s, cpu %.3f s, peak RSS %.1f MiB\n", name, wall.Seconds(), cpu.Seconds(), float64(selfMaxRSS())/1024)
	p.recordWork(name, c)
	return err
}

// check runs one model-checking check whose outcome must match want.
func (p *pass) check(name string, want expect, fn func() (outcome, error)) {
	var o outcome
	err := p.op(name, func() error {
		var err error
		o, err = fn()
		return err
	})
	p.results = append(p.results, result{name: name, ops: 1, err: err, want: &want, out: o})
}

// deterministicCounters are the work counters that must repeat exactly
// for the same code and seed.
var deterministicCounters = []string{
	"sat.queries", "sat.propagations", "sat.decisions", "sat.conflicts", "sat.restarts",
	"ic3.frames", "ic3.obligations",
	"bdd.cache_lookups", "bdd.nodes_peak", "symbolic.iterations", "explicit.states",
}

func (p *pass) recordWork(name string, c counters) {
	rec := make(map[string]string)
	for _, k := range deterministicCounters {
		if v, ok := c[k]; ok && v != 0 {
			rec[k] = strconv.FormatFloat(v, 'f', -1, 64)
		}
	}
	if len(rec) > 0 {
		p.work[name] = rec
	}
}

func (p *pass) note(opName, key, value string) {
	if p.work[opName] == nil {
		p.work[opName] = make(map[string]string)
	}
	p.work[opName][key] = value
}

// verify judges every result of the pass: pinned outcomes, and a replay
// of every counterexample on the gcl interpreter.
func (p *pass) verify(report func(string)) (attempted, failed int) {
	for _, r := range p.results {
		attempted += r.ops
		err := r.err
		if err == nil && r.want != nil {
			err = compare(*r.want, r.out)
		}
		if err == nil && r.out.Cex != nil {
			err = p.l.replay(r.out.Cex)
		}
		switch {
		case err != nil:
			failed += r.ops
			report(fmt.Sprintf("%s: %v", r.name, err))
		case r.failed > 0:
			failed += r.failed
			report(fmt.Sprintf("%s: %d of %d operations failed", r.name, r.failed, r.ops))
		}
	}
	return attempted, failed
}

func compare(want expect, got outcome) error {
	switch {
	case want.Verdict != "" && got.Verdict != want.Verdict:
		return fmt.Errorf("verdict %q, want %q", got.Verdict, want.Verdict)
	case want.Reach != "" && got.Reach != want.Reach:
		return fmt.Errorf("reachable states %s, want %s", got.Reach, want.Reach)
	case want.Depth != 0 && got.Depth != want.Depth:
		return fmt.Errorf("depth %d, want %d", got.Depth, want.Depth)
	case want.States != 0 && got.States != want.States:
		return fmt.Errorf("states %d, want %d", got.States, want.States)
	case got.Verdict == violated && got.Cex == nil:
		return fmt.Errorf("violated without a counterexample")
	}
	return nil
}

// ---- fig6-bdd ----

// fig6LivenessNode is the faulty node whose liveness lemma the workload
// checks: the EG fixpoint takes 22-32 s per node, too long for all three.
const fig6LivenessNode = 2

func fig6Node(id int) modelSpec {
	return modelSpec{N: 3, FaultyNode: id, FaultyHub: -1, Degree: 6}
}

func fig6Hub(ch int) modelSpec {
	return modelSpec{N: 3, FaultyNode: -1, FaultyHub: ch}
}

func fig6Models() []modelSpec {
	return []modelSpec{fig6Node(0), fig6Node(1), fig6Node(2), fig6Hub(0), fig6Hub(1)}
}

// fig6Reach pins the reachable-state counts of the Fig. 6 n=3 models.
var fig6Reach = map[modelSpec]string{
	fig6Node(0): "1313415",
	fig6Node(1): "1356306",
	fig6Node(2): "1183766",
	fig6Hub(0):  "401689",
	fig6Hub(1):  "401689",
}

func fig6Pass(p *pass) error {
	type job struct {
		spec   modelSpec
		lemmas []string
	}
	var jobs []job
	for _, id := range p.rng.Perm(3) {
		lemmas := []string{"safety", "timeliness"}
		if id == fig6LivenessNode {
			lemmas = append(lemmas, "liveness")
		}
		jobs = append(jobs, job{fig6Node(id), lemmas})
	}
	for _, ch := range p.rng.Perm(2) {
		jobs = append(jobs, job{fig6Hub(ch), []string{"safety_2"}})
	}
	for _, j := range jobs {
		m := p.models[j.spec]
		var e *symEngine
		err := p.op(j.spec.String()+"/reach", func() error {
			var err error
			if e, err = p.l.symbolicNew(m); err != nil {
				return err
			}
			return p.l.reach(e)
		})
		if err != nil {
			// The model's checks cannot run: they all fail.
			p.results = append(p.results, result{name: j.spec.String(), ops: len(j.lemmas), err: err})
			continue
		}
		for _, lemma := range j.lemmas {
			want := expect{Verdict: holds}
			if lemma != "liveness" {
				want.Reach = fig6Reach[j.spec]
			}
			p.check(j.spec.String()+"/"+lemma+"/symbolic", want, func() (outcome, error) {
				return p.l.symbolicCheck(e, lemma)
			})
		}
	}
	return nil
}

// ---- sat-engines ----

// satBus is the bus with a faulty node 1 (with node 0, IC3 liveness alone
// takes 8 s at degree 3; with node 1, 2 s).
func satBus(degree int) modelSpec {
	return modelSpec{Bus: true, N: 3, FaultyNode: 1, FaultyHub: -1, Degree: degree, DeltaInit: 2}
}

// satClique is the section 5.2 design without big-bang; a faulty hub then
// drives the nodes into two cliques, which BMC finds at depth 13.
func satClique(ch, deltaInit int) modelSpec {
	return modelSpec{N: 3, FaultyNode: -1, FaultyHub: ch, DeltaInit: deltaInit, NoBigBang: true}
}

// satCliqueIC3Hub is the faulty hub of the IC3 clique check (hub 0 takes
// 17 s, hub 1 10 s).
const satCliqueIC3Hub = 1

const cliqueDepth = 13

func satModels() []modelSpec {
	return []modelSpec{satBus(1), satBus(3), satClique(0, 0), satClique(1, 0), satClique(satCliqueIC3Hub, 2), explicitBFSModel}
}

// satPass runs the SAT checks and the explicit BFS in an order the seed
// shuffles, then the mcfi campaign.
func satPass(p *pass) error {
	type job struct {
		name string
		want expect
		run  func() (outcome, error)
	}
	var jobs []job
	for _, degree := range []int{1, 3} {
		m := p.models[satBus(degree)]
		depth := 2 * m.spec.wsup()
		for _, lemma := range []string{"safety", "liveness"} {
			verdict := func(v string) expect {
				if degree == 3 {
					return expect{Verdict: violated}
				}
				return expect{Verdict: v}
			}
			name := m.spec.String() + "/" + lemma
			bmcVerdict := holds
			if lemma == "safety" {
				bmcVerdict = holdsBounded
			}
			jobs = append(jobs,
				job{name + "/bmc", verdict(bmcVerdict), func() (outcome, error) { return p.l.bmcCheck(m, lemma, depth) }},
				job{name + "/induction", verdict(holds), func() (outcome, error) { return p.l.inductionCheck(m, lemma, depth) }},
				job{name + "/ic3", verdict(holds), func() (outcome, error) { return p.l.ic3Check(m, lemma) }},
			)
		}
	}
	for _, ch := range []int{0, 1} {
		m := p.models[satClique(ch, 0)]
		jobs = append(jobs, job{m.spec.String() + "/safety/bmc", expect{Verdict: violated, Depth: cliqueDepth}, func() (outcome, error) {
			o, err := p.l.bmcCheck(m, "safety", cliqueDepth)
			p.stats.add(counters{"bmc.clique_depth": float64(o.Depth)})
			return o, err
		}})
	}
	m := p.models[satClique(satCliqueIC3Hub, 2)]
	jobs = append(jobs, job{m.spec.String() + "/safety/ic3", expect{Verdict: violated}, func() (outcome, error) { return p.l.ic3Check(m, "safety") }})
	bfs := p.models[explicitBFSModel]
	jobs = append(jobs, job{bfs.spec.String() + "/safety/explicit", expect{Verdict: violated, States: explicitBFSStates}, func() (outcome, error) {
		g, err := p.l.explore(bfs)
		if err != nil {
			return outcome{}, err
		}
		return p.l.scanInvariant(g, "safety")
	}})

	p.rng.Shuffle(len(jobs), func(i, k int) { jobs[i], jobs[k] = jobs[k], jobs[i] })
	for _, j := range jobs {
		p.check(j.name, j.want, j.run)
	}
	mcfiOp(p)
	return nil
}

// ---- concrete-state layers ----

// The explicit-state and Monte-Carlo checks are no workload of their own.
// On a shared 2-vCPU host whose speed drifts by 20-30% over minutes, runs
// of these layers alone spread by more than the end-to-end bounds, and
// runs three times as long spread as much. As a fifth of sat-engines, on
// one worker like the rest of it, they are still measured layer by layer.

// explicitBFSModel is the section 3 explicit-state baseline.
var explicitBFSModel = modelSpec{Bus: true, N: 5, FaultyNode: 0, FaultyHub: -1, Degree: 3}

const (
	explicitBFSStates = 427630
	mcfiN             = 4
	mcfiSamples       = 20000
	mcfiWorkers       = 1
)

// mcfiDigests pins the campaign report digest for the pinned seeds.
var mcfiDigests = map[int64]string{
	defaultSeed: "855b7cf882addfef040308fdbffd036b65f1c866a244068417782fc8ad482bbc",
	heldOutSeed: "5ee5fc88c5f5ccfd2902c3df0fcb0a515c30964cc54a56d604f1f3d2b061eef2",
}

// mcfiSeed derives the campaign seed from the benchmark seed (mcfi treats
// seed 0 as 1, so the derived seed is kept positive and distinct).
func mcfiSeed(seed int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z^(z>>31))>>1) | 1
}

// mcfiOp runs the Monte-Carlo campaign and replays its corpus through the
// gcl stepper.
func mcfiOp(p *pass) {
	const name = "mcfi"
	r := result{name: name, ops: mcfiSamples}
	var c *mcfiCampaign
	var replayFailed int
	r.err = p.op(name, func() error {
		start := time.Now()
		var err error
		if c, err = p.l.mcfiRun(mcfiN, mcfiSamples, mcfiSeed(p.seed), mcfiWorkers); err != nil {
			return err
		}
		p.stats.add(counters{"mcfi.runs": float64(c.Runs()), "mcfi.run_s": time.Since(start).Seconds()})
		replayFailed, err = p.l.mcfiReplay(c, mcfiWorkers)
		return err
	})
	if r.err == nil {
		// Every in-hypothesis violation and every corpus entry whose
		// replay disagrees is a failed run.
		r.failed = c.Violations() + replayFailed
		digest, err := c.Digest()
		p.note(name, "mcfi.digest", digest)
		if want, ok := mcfiDigests[p.seed]; ok && digest != want {
			err = fmt.Errorf("report digest %s, want %s", digest, want)
		}
		r.err = err
		p.stats.add(counters{"mcfi.slots": float64(c.Slots()), "mcfi.corpus_size": float64(c.CorpusSize()), "mcfi.replay_entries": float64(c.CorpusSize())})
	}
	p.results = append(p.results, r)
}

// ---- serve-sweep ----

// serveSweep is the served campaign: hub n=3,4, every lemma over degrees
// 1..6 (38 units), with the daemon's default static optimisation.
var serveSweep = sweepSpec{Ns: []int{3, 4}, Degrees: []int{1, 2, 3, 4, 5, 6}, DeltaInit: 5}

const (
	serveWorkers = 2
	// warmSubmits gives the two passes of a run together enough warm
	// samples that at least ten lie beyond their 90th percentile.
	warmSubmits = 50
)

func servePass(p *pass) error {
	spec := serveSweep
	spec.Degrees = append([]int(nil), spec.Degrees...)
	p.rng.Shuffle(len(spec.Degrees), func(i, k int) { spec.Degrees[i], spec.Degrees[k] = spec.Degrees[k], spec.Degrees[i] })

	units, err := spec.units()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(p.dir, "daemon-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	child0 := childCPU()
	d, err := p.l.serveStart(dir, serveWorkers)
	if err != nil {
		return err
	}
	err = submitSweep(p, d, spec, units)
	if cerr := p.l.serveClose(d); err == nil {
		err = cerr
	}
	p.childCPU += childCPU() - child0
	return err
}

// submitSweep submits the sweep to a fresh daemon once, cold, then
// warmSubmits times more, warm, one submission after the other.
func submitSweep(p *pass, d *daemon, spec sweepSpec, units int) error {
	var cold *submission
	var coldS float64
	r := result{name: "cold", ops: units}
	r.err = p.op("cold", func() error {
		start := time.Now()
		var err error
		cold, err = p.l.serveSubmit(d, spec)
		coldS = time.Since(start).Seconds()
		return err
	})
	if r.err != nil {
		// Without a cold report there is nothing to compare warm ones to.
		p.results = append(p.results, r)
		return nil
	}
	r.failed = cold.Total - cold.Verdicts[holds]
	if cold.Cached != 0 || cold.Executed != cold.Total {
		r.err = fmt.Errorf("cold submission: %d cached, %d of %d executed", cold.Cached, cold.Executed, cold.Total)
	}
	p.results = append(p.results, r)
	p.note("cold", "serve.report_sha", shortHash(cold.Report))
	p.childRSS = 0
	for _, kib := range cold.WorkerRSSKiB {
		p.childRSS += kib
	}
	p.stats.add(counters{
		"serve.cold_s": coldS, "serve.cold_units": float64(cold.Total),
		"serve.unit_exec_s":        cold.ExecS,
		"serve.worker_max_rss_mib": float64(maxValue(cold.WorkerRSSKiB)) / 1024,
	})

	for i := 0; i < warmSubmits; i++ {
		name := fmt.Sprintf("warm-%03d", i)
		var warm *submission
		r := result{name: name, ops: units}
		r.err = p.op(name, func() error {
			start := time.Now()
			var err error
			warm, err = p.l.serveSubmit(d, spec)
			p.warmMS = append(p.warmMS, float64(time.Since(start).Microseconds())/1e3)
			return err
		})
		if r.err == nil {
			r.failed = warm.Failed
			p.stats.add(counters{"serve.warm_cached": float64(warm.Cached), "serve.warm_units": float64(warm.Total)})
			switch {
			case warm.Executed != 0 || warm.Cached != warm.Total:
				r.err = fmt.Errorf("warm submission: %d cached, %d executed of %d", warm.Cached, warm.Executed, warm.Total)
			case warm.Report != cold.Report:
				r.err = fmt.Errorf("warm report differs from the cold one")
			}
		}
		p.results = append(p.results, r)
	}
	return nil
}

func maxValue(m map[int]int64) int64 {
	var out int64
	for _, v := range m {
		out = max(out, v)
	}
	return out
}
