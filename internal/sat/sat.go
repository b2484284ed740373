// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver with two-literal watching, VSIDS-style branching, phase saving,
// first-UIP conflict analysis with backjumping, Luby restarts, and
// activity-based deletion of learnt clauses. It is the backend of the
// bounded model checker (package mc/bmc) and of IC3 (package mc/ic3).
//
// All clauses live in one []Lit arena and per-variable state in one dense
// slice per field; binary clauses propagate from their watchers alone.
// The layout is tuned for memory traffic only: the search (decisions,
// propagation order, learnt clauses, restarts) is pinned step for step by
// the trajectory tests.
package sat

import (
	"fmt"
	"math"
	"sort"
)

// Lit is a literal: variable index (1-based) shifted left once, with the
// LSB set for negative polarity.
type Lit int32

// Pos returns the positive literal of variable v.
func Pos(v int) Lit { return Lit(v << 1) }

// Neg returns the negative literal of variable v.
func Neg(v int) Lit { return Lit(v<<1 | 1) }

// Not returns the complement of l.
func (l Lit) Not() Lit { return l ^ 1 }

// Var returns the variable of l.
func (l Lit) Var() int { return int(l >> 1) }

// Sign reports whether l is negative.
func (l Lit) Sign() bool { return l&1 == 1 }

func (l Lit) String() string {
	if l.Sign() {
		return fmt.Sprintf("-%d", l.Var())
	}
	return fmt.Sprintf("%d", l.Var())
}

// lbool is a three-valued truth value. The encoding makes value(l) one
// byte load plus an XOR with the literal's sign bit: a variable assigned
// lTrue reads lTrue through its positive literal and lFalse through its
// negative one. lUndef XOR 1 is 3, so an unassigned literal reads 2 or 3;
// test it as "neither lTrue nor lFalse", never with == lUndef.
type lbool uint8

const (
	lTrue  lbool = 0
	lFalse lbool = 1
	lUndef lbool = 2
)

// Clause arena. Every clause lives in one []Lit slab, addressed by the
// int32 offset of its header word (a clause reference):
//
//	arena[cr]                header: size<<hdrShift | hdrDeleted | hdrLearnt
//	arena[cr+1 : cr+1+size]  the literals
//	arena[cr+1+size : +2]    learnt clauses only: activity, float64 bits,
//	                         low word first
//
// Watchers and reasons hold clause references; reduceDB and Simplify
// compact the slab in place, keeping clause order.
const (
	hdrLearnt  = 1 << 0
	hdrDeleted = 1 << 1 // reduceDB's removal mark, gone after compaction
	hdrShift   = 2
)

// binFlag marks a binary clause in watcher.clause (the sign bit, so the
// test is w.clause < 0). A binary watcher's blocker is always the clause's
// other literal, so propagating it never reads the arena.
const binFlag = math.MinInt32

type watcher struct {
	clause  int32 // clause reference, | binFlag for a binary clause
	blocker Lit   // quick-check literal
}

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	arena    []Lit       // all clauses, see the layout above
	watches  [][]watcher // indexed by literal
	trail    []Lit
	trailLim []int
	qhead    int

	// Per-variable state, index 1..n (slot 0 unused), one dense slice per
	// field so the hot loops touch only the field they read.
	assigns  []lbool
	level    []int32
	reason   []int32 // clause reference, or -1 for decisions and units
	activity []float64
	phase    []bool  // saved phase
	seen     []uint8 // scratch marks for analysis and AddClause

	varInc   float64
	claInc   float64
	order    []heapEntry // variables sorted lazily by activity (binary heap)
	heapPos  []int32     // position in order, -1 when absent
	unsat    bool        // conflict at level 0 during AddClause
	restarts int
	conflTot int

	// Search statistics: plain fields, not atomics — the solver is
	// single-threaded and these sit in the innermost loops. Engines
	// flush deltas to an obs registry per Solve call.
	decisions    int // decision levels opened (assumptions included)
	propagations int // literals dequeued by unit propagation
	learntTot    int // learnt clauses ever recorded (units included)

	// learnt clause bookkeeping
	learntCount int
	maxLearnt   float64

	model []lbool // assigns snapshot of the last satisfying assignment

	finalConflict []Lit // assumption core of the last UNSAT Solve

	// Reused scratch buffers.
	addBuf    []Lit   // AddClause's normalized clause
	learntBuf []Lit   // analyze's learnt clause
	coreBuf   []Lit   // analyzeFinal's core
	toClear   []int32 // variables marked seen during analysis

	stop    func() bool // optional cancellation probe (see SetStop)
	stopped bool        // last Solve call was interrupted by stop
}

// SetStop installs a cancellation probe polled periodically during Solve
// (between restarts and every few thousand search steps). When the probe
// returns true, Solve gives up and returns false without an UNSAT verdict;
// callers distinguish interruption from unsatisfiability via Stopped. Pass
// nil to remove the probe. The solver remains usable after an interrupt.
func (s *Solver) SetStop(fn func() bool) { s.stop = fn }

// Stopped reports whether the most recent Solve call was interrupted by
// the stop probe rather than reaching a verdict.
func (s *Solver) Stopped() bool { return s.stopped }

// New returns an empty solver.
func New() *Solver {
	return &Solver{
		assigns:   []lbool{lUndef}, // slot 0 unused
		level:     make([]int32, 1),
		reason:    []int32{-1},
		activity:  make([]float64, 1),
		phase:     make([]bool, 1),
		seen:      make([]uint8, 1),
		watches:   make([][]watcher, 2),
		varInc:    1,
		claInc:    1,
		heapPos:   []int32{-1},
		maxLearnt: 4000,
	}
}

// NewVar allocates a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.assigns)
	s.assigns = append(s.assigns, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, -1)
	s.activity = append(s.activity, 0)
	s.phase = append(s.phase, false)
	s.seen = append(s.seen, 0)
	s.watches = append(s.watches, nil, nil)
	s.heapPos = append(s.heapPos, -1)
	s.heapInsert(v)
	return v
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.assigns) - 1 }

// NumClauses returns the number of problem (non-learnt) clauses.
func (s *Solver) NumClauses() int {
	n := 0
	for cr := int32(0); cr < int32(len(s.arena)); cr = s.clauseEnd(cr) {
		if s.arena[cr]&hdrLearnt == 0 {
			n++
		}
	}
	return n
}

// Conflicts returns the total number of conflicts encountered.
func (s *Solver) Conflicts() int { return s.conflTot }

// Decisions returns the total number of decision levels opened across
// all Solve calls, assumption levels included (MiniSat's convention).
func (s *Solver) Decisions() int { return s.decisions }

// Propagations returns the total number of literals dequeued by unit
// propagation across all Solve calls.
func (s *Solver) Propagations() int { return s.propagations }

// Restarts returns the total number of Luby restarts taken.
func (s *Solver) Restarts() int { return s.restarts }

// LearntTotal returns the number of clauses ever learnt from conflicts,
// counting unit clauses and clauses since evicted by reduceDB.
func (s *Solver) LearntTotal() int { return s.learntTot }

// LearntCurrent returns the number of learnt clauses currently kept in
// the clause database.
func (s *Solver) LearntCurrent() int { return s.learntCount }

func (s *Solver) value(l Lit) lbool { return s.assigns[l>>1] ^ lbool(l&1) }

// clauseLits returns the literals of clause cr, aliasing the arena.
func (s *Solver) clauseLits(cr int32) []Lit {
	return s.arena[cr+1 : cr+1+int32(s.arena[cr]>>hdrShift)]
}

// clauseEnd returns the offset just past clause cr (its trailing activity
// words included), which is where the next clause starts.
func (s *Solver) clauseEnd(cr int32) int32 {
	h := s.arena[cr]
	return cr + 1 + int32(h>>hdrShift) + 2*int32(h&hdrLearnt)
}

// claActivity reads the activity of learnt clause cr.
func (s *Solver) claActivity(cr int32) float64 {
	at := cr + 1 + int32(s.arena[cr]>>hdrShift)
	return math.Float64frombits(uint64(uint32(s.arena[at])) | uint64(uint32(s.arena[at+1]))<<32)
}

// setClaActivity writes the activity of learnt clause cr.
func (s *Solver) setClaActivity(cr int32, a float64) {
	at := cr + 1 + int32(s.arena[cr]>>hdrShift)
	bits := math.Float64bits(a)
	s.arena[at] = Lit(uint32(bits))
	s.arena[at+1] = Lit(uint32(bits >> 32))
}

// AddClause adds a problem clause. It returns false if the formula became
// trivially unsatisfiable. Must be called at decision level 0 (before or
// between Solve calls).
func (s *Solver) AddClause(lits ...Lit) bool {
	if s.unsat {
		return false
	}
	if len(s.trailLim) != 0 {
		panic("sat: AddClause above decision level 0")
	}
	// Normalize: drop duplicate/false literals, detect tautologies. The
	// seen mark of a kept literal's variable is 1 for a positive literal
	// and 2 for a negative one, so mark^3 is its complement's mark.
	out := s.addBuf[:0]
	defer func() {
		for _, l := range out {
			s.seen[l.Var()] = 0
		}
		s.addBuf = out
	}()
	for _, l := range lits {
		v := l.Var()
		if v <= 0 || v >= len(s.assigns) {
			panic(fmt.Sprintf("sat: literal %v references unallocated variable", l))
		}
		mark := uint8(l&1) + 1
		switch {
		case s.seen[v] == mark^3:
			return true // tautology
		case s.seen[v] == mark, s.value(l) == lFalse:
			continue
		case s.value(l) == lTrue:
			return true // already satisfied
		}
		s.seen[v] = mark
		out = append(out, l)
	}
	switch len(out) {
	case 0:
		s.unsat = true
		return false
	case 1:
		s.uncheckedEnqueue(out[0], -1)
		if s.propagate() != -1 {
			s.unsat = true
			return false
		}
		return true
	}
	s.attachClause(out, false)
	return true
}

// attachClause copies lits into the arena as a new clause and watches its
// first two literals.
func (s *Solver) attachClause(lits []Lit, learnt bool) int32 {
	words := 1 + len(lits)
	hdr := Lit(len(lits) << hdrShift)
	if learnt {
		words += 2
		hdr |= hdrLearnt
	}
	if len(s.arena)+words > math.MaxInt32 {
		panic("sat: clause arena exceeds 2^31 words")
	}
	cr := int32(len(s.arena))
	s.arena = append(s.arena, hdr)
	s.arena = append(s.arena, lits...)
	if learnt {
		s.arena = append(s.arena, 0, 0)
		s.setClaActivity(cr, s.claInc)
	}
	s.watchClause(cr, lits)
	return cr
}

func (s *Solver) watchClause(cr int32, lits []Lit) {
	w := cr
	if len(lits) == 2 {
		w |= binFlag
	}
	s.watches[lits[0].Not()] = append(s.watches[lits[0].Not()], watcher{clause: w, blocker: lits[1]})
	s.watches[lits[1].Not()] = append(s.watches[lits[1].Not()], watcher{clause: w, blocker: lits[0]})
}

// rebuildWatches clears every watch list and re-watches all clauses in
// arena order, which is the order a freshly built database would have.
func (s *Solver) rebuildWatches() {
	for li := range s.watches {
		s.watches[li] = s.watches[li][:0]
	}
	for cr := int32(0); cr < int32(len(s.arena)); cr = s.clauseEnd(cr) {
		s.watchClause(cr, s.clauseLits(cr))
	}
}

func (s *Solver) uncheckedEnqueue(l Lit, reason int32) {
	v := l.Var()
	s.assigns[v] = lbool(l & 1)
	s.level[v] = int32(len(s.trailLim))
	s.reason[v] = reason
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; it returns the reference of a
// conflicting clause, or -1.
func (s *Solver) propagate() int32 {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.propagations++
		falseLit := p.Not()
		// Watchers that stay are compacted to ws[:j] in place. A moved
		// watch goes to the list of a literal that is not false, never
		// to ws itself, so ws's backing array is stable in the loop.
		ws := s.watches[p]
		j := 0
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			bv := s.value(w.blocker)
			if bv == lTrue {
				ws[j] = w
				j++
				continue
			}
			if w.clause < 0 {
				// Binary clause: the blocker is the other literal, so it is
				// unit or conflicting. Its reason keeps the stored literal
				// order; analysis picks the literal that is not implied.
				ws[j] = w
				j++
				cr := w.clause &^ binFlag
				if bv == lFalse {
					// Store the pair as [other, ¬p], the order analyze
					// walks a conflicting clause in.
					s.arena[cr+1], s.arena[cr+2] = w.blocker, falseLit
					j += copy(ws[j:], ws[i+1:])
					s.watches[p] = ws[:j]
					s.qhead = len(s.trail)
					return cr
				}
				s.uncheckedEnqueue(w.blocker, cr)
				continue
			}
			cr := w.clause
			lits := s.clauseLits(cr)
			// Ensure the false literal is lits[1].
			if lits[0] == falseLit {
				lits[0], lits[1] = lits[1], lits[0]
			}
			if s.value(lits[0]) == lTrue {
				ws[j] = watcher{clause: cr, blocker: lits[0]}
				j++
				continue
			}
			// Find a new watch.
			found := false
			for k := 2; k < len(lits); k++ {
				if s.value(lits[k]) != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					s.watches[lits[1].Not()] = append(s.watches[lits[1].Not()], watcher{clause: cr, blocker: lits[0]})
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Unit or conflict.
			ws[j] = w
			j++
			if s.value(lits[0]) == lFalse {
				// Conflict: keep remaining watchers and report.
				j += copy(ws[j:], ws[i+1:])
				s.watches[p] = ws[:j]
				s.qhead = len(s.trail)
				return cr
			}
			s.uncheckedEnqueue(lits[0], cr)
		}
		s.watches[p] = ws[:j]
	}
	return -1
}

// reasonLits returns the literals of reason clause cr other than the
// literal p it implied. A long reason keeps p at lits[0]; a binary reason
// keeps its stored order, so p may be either literal.
func (s *Solver) reasonLits(cr int32, p Lit) []Lit {
	lits := s.clauseLits(cr)
	if len(lits) == 2 && lits[1] == p {
		return lits[:1]
	}
	return lits[1:]
}

// analyze performs first-UIP conflict analysis; it returns the learnt
// clause (asserting literal first) and the backjump level. The clause
// aliases a scratch buffer that is valid until the next conflict.
func (s *Solver) analyze(confl int32) ([]Lit, int) {
	learnt := append(s.learntBuf[:0], 0) // placeholder for the asserting literal
	counter := 0
	p := Lit(-1)
	idx := len(s.trail) - 1
	toClear := s.toClear[:0]

	for {
		if s.arena[confl]&hdrLearnt != 0 {
			s.bumpClause(confl)
		}
		var lits []Lit
		if p == Lit(-1) {
			lits = s.clauseLits(confl)
		} else {
			lits = s.reasonLits(confl, p)
		}
		for _, q := range lits {
			v := q.Var()
			if s.seen[v] != 0 || s.level[v] == 0 {
				continue
			}
			s.seen[v] = 1
			toClear = append(toClear, int32(v))
			s.bumpVar(v)
			if int(s.level[v]) == len(s.trailLim) {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Find the next marked literal on the trail.
		for s.seen[s.trail[idx].Var()] == 0 {
			idx--
		}
		p = s.trail[idx]
		confl = s.reason[p.Var()]
		s.seen[p.Var()] = 0
		counter--
		idx--
		if counter == 0 {
			break
		}
	}
	learnt[0] = p.Not()

	// Compute backjump level: second-highest level in the clause.
	back := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		back = int(s.level[learnt[1].Var()])
	}
	for _, v := range toClear {
		s.seen[v] = 0
	}
	s.toClear = toClear
	s.learntBuf = learnt
	return learnt, back
}

func (s *Solver) cancelUntil(level int) {
	if len(s.trailLim) <= level {
		return
	}
	for i := len(s.trail) - 1; i >= s.trailLim[level]; i-- {
		v := s.trail[i].Var()
		s.phase[v] = s.assigns[v] == lTrue
		s.assigns[v] = lUndef
		s.reason[v] = -1
		if s.heapPos[v] == -1 {
			s.heapInsert(v)
		}
	}
	s.trail = s.trail[:s.trailLim[level]]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := 1; i < len(s.activity); i++ {
			s.activity[i] *= 1e-100
		}
		for i := range s.order {
			s.order[i].act *= 1e-100
		}
		s.varInc *= 1e-100
	}
	if p := s.heapPos[v]; p != -1 {
		s.order[p].act = s.activity[v]
		s.heapUp(int(p))
	}
}

func (s *Solver) bumpClause(cr int32) {
	a := s.claActivity(cr) + s.claInc
	s.setClaActivity(cr, a)
	if a > 1e20 {
		for c := int32(0); c < int32(len(s.arena)); c = s.clauseEnd(c) {
			if s.arena[c]&hdrLearnt != 0 {
				s.setClaActivity(c, s.claActivity(c)*1e-20)
			}
		}
		s.claInc *= 1e-20
	}
}

// Solve searches for a satisfying assignment consistent with the given
// assumption literals. It returns true if one exists; the model is then
// available via Value. The solver remains usable (incrementally) after
// either outcome.
func (s *Solver) Solve(assumptions ...Lit) bool {
	s.stopped = false
	s.finalConflict = nil
	if s.unsat {
		return false
	}
	s.cancelUntil(0)
	lubyIdx := 0
	for {
		if s.stop != nil && s.stop() {
			s.stopped = true
			s.cancelUntil(0)
			return false
		}
		lubyIdx++
		budget := 100 * luby(lubyIdx)
		switch s.search(budget, assumptions) {
		case lTrue:
			// Snapshot the model, then restore level 0 for future calls.
			s.model = append(s.model[:0], s.assigns...)
			s.cancelUntil(0)
			return true
		case lFalse:
			s.cancelUntil(0)
			return false
		}
		s.restarts++
		s.cancelUntil(0)
	}
}

// search runs CDCL until a result or conflict budget exhaustion (lUndef).
func (s *Solver) search(budget int, assumptions []Lit) lbool {
	conflicts := 0
	steps := 0
	for {
		// A conflict-free run of decisions can stay inside search for a long
		// time on large instances; poll the stop probe on a coarse stride so
		// cancellation latency stays bounded without measurable overhead.
		if steps++; steps&0xfff == 0 && s.stop != nil && s.stop() {
			return lUndef
		}
		confl := s.propagate()
		if confl != -1 {
			conflicts++
			s.conflTot++
			if len(s.trailLim) == 0 {
				s.unsat = true
				return lFalse
			}
			learnt, back := s.analyze(confl)
			s.learntTot++
			s.cancelUntil(back)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], -1)
			} else {
				cr := s.attachClause(learnt, true)
				s.learntCount++
				s.uncheckedEnqueue(learnt[0], cr)
			}
			s.varInc /= 0.95
			s.claInc /= 0.999
			if float64(s.learntCount) > s.maxLearnt {
				s.reduceDB()
			}
			if conflicts >= budget {
				return lUndef
			}
			continue
		}

		// Apply assumptions, then decide.
		var next Lit
		for len(s.trailLim) < len(assumptions) {
			a := assumptions[len(s.trailLim)]
			switch s.value(a) {
			case lTrue:
				s.trailLim = append(s.trailLim, len(s.trail))
				continue
			case lFalse:
				s.finalConflict = s.analyzeFinal(a)
				return lFalse // conflict with assumptions
			}
			next = a
			break
		}
		if next == 0 {
			next = s.pickBranch()
			if next == 0 {
				return lTrue // all variables assigned
			}
		}
		s.decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(next, -1)
	}
}

// FinalConflict returns the assumption core of the most recent Solve call:
// a subset of its assumption literals under which the formula is already
// unsatisfiable (MiniSat's analyzeFinal). An empty core means the formula
// is unsatisfiable without any assumptions. The result is meaningful only
// when Solve returned false and Stopped reports false; the slice is owned
// by the solver and valid until the next Solve call.
func (s *Solver) FinalConflict() []Lit { return s.finalConflict }

// analyzeFinal computes the subset of the current assumptions responsible
// for falsifying assumption a. Called from search at the moment the
// assumption-application loop finds value(a) == lFalse: every decision
// level on the trail is then an assumption level, so walking ¬a's
// implication graph backwards and collecting the decisions it reaches
// yields exactly the conflicting assumptions.
func (s *Solver) analyzeFinal(a Lit) []Lit {
	core := append(s.coreBuf[:0], a)
	if len(s.trailLim) == 0 || s.level[a.Var()] == 0 {
		// a is refuted by level-0 facts alone; no other assumption is
		// involved (a itself stays in the core: the formula plus a is
		// unsatisfiable, the formula alone need not be).
		s.coreBuf = core
		return core
	}
	toClear := append(s.toClear[:0], int32(a.Var()))
	s.seen[a.Var()] = 1
	for i := len(s.trail) - 1; i >= s.trailLim[0]; i-- {
		p := s.trail[i]
		v := p.Var()
		if s.seen[v] == 0 {
			continue
		}
		if r := s.reason[v]; r == -1 {
			// A decision below the assumption-application point is itself
			// an assumption; record it as applied on the trail. (When the
			// assumptions contain both a and ¬a, p is a.Not() here and
			// the two-literal core is the honest answer.)
			core = append(core, p)
		} else {
			for _, q := range s.reasonLits(r, p) {
				if u := q.Var(); s.seen[u] == 0 && s.level[u] > 0 {
					s.seen[u] = 1
					toClear = append(toClear, int32(u))
				}
			}
		}
	}
	for _, v := range toClear {
		s.seen[v] = 0
	}
	s.toClear = toClear
	s.coreBuf = core
	return core
}

func (s *Solver) pickBranch() Lit {
	for {
		v := s.heapPop()
		if v == 0 {
			return 0
		}
		if s.assigns[v] == lUndef {
			if s.phase[v] {
				return Pos(v)
			}
			return Neg(v)
		}
	}
}

// reduceDB removes the lower-activity half of learnt clauses that are not
// reasons for current assignments. Watches are rebuilt.
func (s *Solver) reduceDB() {
	type scored struct {
		cr  int32
		act float64
	}
	var learnts []scored
	for cr := int32(0); cr < int32(len(s.arena)); cr = s.clauseEnd(cr) {
		h := s.arena[cr]
		if h&hdrLearnt == 0 || h>>hdrShift <= 2 {
			continue
		}
		// A long clause is a reason only for its first literal.
		if s.reason[s.arena[cr+1].Var()] == cr {
			continue
		}
		learnts = append(learnts, scored{cr, s.claActivity(cr)})
	}
	if len(learnts) < 2 {
		s.maxLearnt *= 1.5
		return
	}
	// Remove the half with lowest activity, ties in clause order.
	sort.SliceStable(learnts, func(i, j int) bool { return learnts[i].act < learnts[j].act })
	for _, sc := range learnts[:len(learnts)/2] {
		s.arena[sc.cr] |= hdrDeleted
	}
	s.learntCount -= len(learnts) / 2

	// Compact the arena in place, relocating reasons: a kept clause moves
	// down from cr to w <= cr, and every reason still pointing at an
	// unvisited clause is larger than any w handed out so far.
	w := int32(0)
	for cr := int32(0); cr < int32(len(s.arena)); {
		end := s.clauseEnd(cr)
		if s.arena[cr]&hdrDeleted == 0 {
			if v := s.arena[cr+1].Var(); s.reason[v] == cr {
				s.reason[v] = w
			} else if s.arena[cr]>>hdrShift == 2 {
				if v := s.arena[cr+2].Var(); s.reason[v] == cr {
					s.reason[v] = w
				}
			}
			w += int32(copy(s.arena[w:], s.arena[cr:end]))
		}
		cr = end
	}
	s.arena = s.arena[:w]
	s.rebuildWatches()
	s.maxLearnt *= 1.1
}

// Simplify removes clauses satisfied at decision level 0 and strips
// level-0-false literals from the rest, compacting the clause database and
// rebuilding the watch lists. Callers that retire activation-guarded
// clauses by pinning the activation literal (e.g. IC3 consecution queries)
// call this periodically so dead clauses stop burdening propagation. Must
// be called between Solve calls; the solver stays equivalent.
func (s *Solver) Simplify() {
	if s.unsat {
		return
	}
	if len(s.trailLim) != 0 {
		panic("sat: Simplify above decision level 0")
	}
	if s.propagate() != -1 {
		s.unsat = true
		return
	}
	// Level-0 assignments are permanent, so their reason clauses are never
	// walked again; drop the references before the clauses move. Every
	// assigned variable is on the level-0 trail, so no reason survives.
	for _, l := range s.trail {
		s.reason[l.Var()] = -1
	}
	w := int32(0)
	removedLearnt := 0
outer:
	for cr := int32(0); cr < int32(len(s.arena)); {
		h := s.arena[cr]
		lits := s.clauseLits(cr)
		end := s.clauseEnd(cr)
		for _, l := range lits {
			if s.value(l) == lTrue {
				if h&hdrLearnt != 0 {
					removedLearnt++
				}
				cr = end
				continue outer
			}
		}
		var act float64
		if h&hdrLearnt != 0 {
			act = s.claActivity(cr)
		}
		// Write the unassigned literals down from w+1. The write position
		// never passes the literal being read, since w <= cr. Not
		// satisfied, so at least two literals survive: a unit would have
		// propagated above and an empty clause conflicted.
		n := w + 1
		for _, l := range lits {
			if s.value(l) != lFalse {
				s.arena[n] = l
				n++
			}
		}
		s.arena[w] = Lit((n-w-1)<<hdrShift) | h&hdrLearnt
		if h&hdrLearnt != 0 {
			n += 2
			s.setClaActivity(w, act)
		}
		w = n
		cr = end
	}
	s.arena = s.arena[:w]
	s.learntCount -= removedLearnt
	s.rebuildWatches()
}

// Value returns the model value of variable v after a successful Solve.
func (s *Solver) Value(v int) bool {
	if v >= len(s.model) {
		return false
	}
	return s.model[v] == lTrue
}

// luby computes the Luby restart sequence (1,1,2,1,1,2,4,...).
func luby(i int) int {
	for k := 1; ; k++ {
		if i == (1<<k)-1 {
			return 1 << (k - 1)
		}
		if i < (1<<k)-1 {
			return luby(i - (1 << (k - 1)) + 1)
		}
	}
}

// ---------------------------------------------------------------------------
// Activity-ordered binary heap over variables.

// heapEntry is one decision-heap slot. It carries a copy of the
// variable's activity so a sift compares adjacent slots instead of loading
// activity[] at random; bumpVar and its rescale keep the copy equal to
// activity[v], so the heap orders exactly as if it read activity[].
type heapEntry struct {
	act float64
	v   int32
}

func (s *Solver) heapInsert(v int) {
	s.order = append(s.order, heapEntry{s.activity[v], int32(v)})
	s.heapPos[v] = int32(len(s.order) - 1)
	s.heapUp(len(s.order) - 1)
}

func (s *Solver) heapPop() int {
	if len(s.order) == 0 {
		return 0
	}
	top := s.order[0].v
	last := s.order[len(s.order)-1]
	s.order = s.order[:len(s.order)-1]
	s.heapPos[top] = -1
	if len(s.order) > 0 {
		s.order[0] = last
		s.heapPos[last.v] = 0
		s.heapDown(0)
	}
	return int(top)
}

func (s *Solver) heapUp(i int) {
	order := s.order
	e := order[i]
	for i > 0 {
		p := (i - 1) / 2
		if !(e.act > order[p].act) {
			break
		}
		order[i] = order[p]
		s.heapPos[order[i].v] = int32(i)
		i = p
	}
	order[i] = e
	s.heapPos[e.v] = int32(i)
}

func (s *Solver) heapDown(i int) {
	order := s.order
	e := order[i]
	for {
		c := 2*i + 1
		if c >= len(order) {
			break
		}
		if c+1 < len(order) && order[c+1].act > order[c].act {
			c++
		}
		if !(order[c].act > e.act) {
			break
		}
		order[i] = order[c]
		s.heapPos[order[i].v] = int32(i)
		i = c
	}
	order[i] = e
	s.heapPos[e.v] = int32(i)
}
