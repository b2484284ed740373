package sat

import (
	"slices"
	"testing"
)

// FuzzSolver is a differential harness against brute-force enumeration.
// The input is a small program over at most 12 variables: interleaved
// AddClause, Solve-under-assumptions and Simplify calls on one incremental
// solver whose learnt-clause limit is tiny, so reduceDB compacts the
// clause arena while reasons are live. Every answer is checked:
//
//   - AddClause returning false means the clauses so far are UNSAT;
//   - Solve's verdict matches enumeration over clauses ∧ assumptions;
//   - a model satisfies every clause added and every assumption;
//   - an UNSAT core is a subset of the assumptions, and clauses ∧ core is
//     UNSAT;
//   - the solver's internal structure is intact (checkInvariants).
//
// Program encoding: byte 0 picks the variable count (1..12), byte 1 the
// learnt-clause limit (1..8); each following opcode byte selects, by its
// value mod 8, AddClause (0-3: one to four literal bytes follow),
// Solve (4-6: zero to three assumption bytes follow) or Simplify (7). A
// literal byte b names variable 1+b%nvars, negated when b&0x80 is set.
func FuzzSolver(f *testing.F) {
	f.Add([]byte{2, 0, 1, 0x00, 0x81, 1, 0x80, 0x01, 4, 5, 0x80, 7, 6, 0x00, 0x81})
	f.Add([]byte{5, 1, 2, 0, 1, 2, 2, 0x80, 0x81, 0x82, 1, 3, 0x84, 5, 3, 7, 4, 2, 0x83, 0x84, 0x00})
	f.Add([]byte{11, 2, 2, 1, 2, 3, 2, 4, 5, 6, 2, 0x81, 0x85, 0x87, 2, 0x82, 0x84, 0x86, 6, 0, 1, 2, 7, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		nvars := 1 + int(data[0])%12
		s := New()
		s.maxLearnt = float64(1 + int(data[1])%8)
		for range nvars {
			s.NewVar()
		}
		lit := func(b byte) Lit {
			v := 1 + int(b)%nvars
			if b&0x80 != 0 {
				return Neg(v)
			}
			return Pos(v)
		}
		var cnf [][]Lit
		with := func(units []Lit) [][]Lit {
			out := slices.Clone(cnf)
			for _, u := range units {
				out = append(out, []Lit{u})
			}
			return out
		}
		for pc := 2; pc < len(data); checkInvariants(t, s) {
			op := data[pc] % 8
			pc++
			switch {
			case op < 4: // AddClause
				n := min(1+int(op), len(data)-pc)
				if n == 0 {
					return
				}
				cl := make([]Lit, n)
				for i := range cl {
					cl[i] = lit(data[pc+i])
				}
				pc += n
				cnf = append(cnf, cl)
				if !s.AddClause(cl...) && brute(nvars, cnf) {
					t.Fatalf("AddClause(%v) reported UNSAT on satisfiable %v", cl, cnf)
				}
			case op < 7: // Solve
				n := min(int(op)-4, len(data)-pc)
				assumps := make([]Lit, n)
				for i := range assumps {
					assumps[i] = lit(data[pc+i])
				}
				pc += n
				got := s.Solve(assumps...)
				if want := brute(nvars, with(assumps)); got != want {
					t.Fatalf("Solve(%v) = %v, enumeration says %v on %v", assumps, got, want, cnf)
				}
				if got {
					for _, cl := range with(assumps) {
						if !slices.ContainsFunc(cl, func(l Lit) bool { return s.Value(l.Var()) != l.Sign() }) {
							t.Fatalf("model violates %v under %v", cl, assumps)
						}
					}
					continue
				}
				core := s.FinalConflict()
				for _, l := range core {
					if !slices.Contains(assumps, l) {
						t.Fatalf("core %v has %v outside assumptions %v", core, l, assumps)
					}
				}
				if brute(nvars, with(core)) {
					t.Fatalf("core %v of %v is satisfiable with %v", core, assumps, cnf)
				}
			default:
				s.Simplify()
			}
		}
	})
}

// checkInvariants verifies the solver's structure between calls: the
// arena parses into live clauses and its learnt count matches; every
// clause is watched exactly once through each of its first two literals,
// with the binary flag set exactly on binary clauses and a blocker from
// the clause; every trail reason is a clause whose other literals are
// false, with a long clause's implied literal first (the invariant
// reduceDB's locked test relies on); scratch marks are clear; and the
// decision heap is ordered on keys equal to the activities.
func checkInvariants(t *testing.T, s *Solver) {
	t.Helper()
	if s.unsat {
		return
	}
	if len(s.trailLim) != 0 {
		t.Fatalf("decision level %d between calls", len(s.trailLim))
	}
	live := map[int32]bool{}
	learnt := 0
	for cr := int32(0); cr < int32(len(s.arena)); cr = s.clauseEnd(cr) {
		h := s.arena[cr]
		if h&hdrDeleted != 0 || h>>hdrShift < 2 {
			t.Fatalf("clause %d: bad header %#x", cr, h)
		}
		live[cr] = true
		learnt += int(h & hdrLearnt)
	}
	if learnt != s.learntCount {
		t.Fatalf("arena holds %d learnt clauses, learntCount %d", learnt, s.learntCount)
	}
	type watch struct {
		cr  int32
		lit Lit
	}
	watched := map[watch]int{}
	for li, ws := range s.watches {
		lit := Lit(li).Not()
		for _, w := range ws {
			cr := w.clause &^ binFlag
			if !live[cr] {
				t.Fatalf("watcher of %v points at %d, not a clause", lit, cr)
			}
			lits := s.clauseLits(cr)
			if (w.clause < 0) != (len(lits) == 2) {
				t.Fatalf("clause %v: binary flag %v", lits, w.clause < 0)
			}
			if lit != lits[0] && lit != lits[1] {
				t.Fatalf("clause %v watched through %v", lits, lit)
			}
			if !slices.Contains(lits, w.blocker) {
				t.Fatalf("clause %v has foreign blocker %v", lits, w.blocker)
			}
			watched[watch{cr, lit}]++
		}
	}
	for cr := range live {
		lits := s.clauseLits(cr)
		if watched[watch{cr, lits[0]}] != 1 || watched[watch{cr, lits[1]}] != 1 {
			t.Fatalf("clause %v watched %d/%d times", lits, watched[watch{cr, lits[0]}], watched[watch{cr, lits[1]}])
		}
	}
	for _, l := range s.trail {
		r := s.reason[l.Var()]
		if r == -1 {
			continue
		}
		if !live[r] {
			t.Fatalf("reason of %v is %d, not a clause", l, r)
		}
		lits := s.clauseLits(r)
		if !slices.Contains(lits, l) || len(lits) > 2 && lits[0] != l {
			t.Fatalf("reason %v of %v does not imply it first", lits, l)
		}
		for _, q := range lits {
			if q != l && s.value(q) != lFalse {
				t.Fatalf("reason %v of %v has non-false %v", lits, l, q)
			}
		}
	}
	for v, m := range s.seen {
		if m != 0 {
			t.Fatalf("seen mark %d left on variable %d", m, v)
		}
	}
	for i, e := range s.order {
		if s.heapPos[e.v] != int32(i) || e.act != s.activity[e.v] {
			t.Fatalf("heap slot %d holds %+v; heapPos %d, activity %v", i, e, s.heapPos[e.v], s.activity[e.v])
		}
		if i > 0 && e.act > s.order[(i-1)/2].act {
			t.Fatalf("heap slot %d outranks its parent", i)
		}
	}
}
