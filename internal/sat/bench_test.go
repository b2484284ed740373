package sat

import (
	"math/rand"
	"testing"
)

// BenchmarkPigeonholeUnsat measures CDCL on the classic hard family.
func BenchmarkPigeonholeUnsat(b *testing.B) {
	for b.Loop() {
		s := New()
		pigeonhole(s, 8, 7)
		if s.Solve() {
			b.Fatal("PHP(8,7) must be unsat")
		}
	}
}

// BenchmarkRandom3SAT measures solving near the phase transition
// (clause/variable ratio ~4.3).
func BenchmarkRandom3SAT(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	for b.Loop() {
		s := New()
		const nvars = 120
		vars := make([]int, nvars)
		for i := range vars {
			vars[i] = s.NewVar()
		}
		for range 516 {
			var cl [3]Lit
			for k := range 3 {
				v := vars[rng.Intn(nvars)]
				if rng.Intn(2) == 0 {
					cl[k] = Pos(v)
				} else {
					cl[k] = Neg(v)
				}
			}
			s.AddClause(cl[:]...)
		}
		_ = s.Solve()
	}
}

// BenchmarkIncrementalAssumptions measures repeated solving under varying
// assumptions, the BMC usage pattern.
func BenchmarkIncrementalAssumptions(b *testing.B) {
	s := New()
	const n = 60
	vars := make([]int, n)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	for i := 0; i+2 < n; i++ {
		s.AddClause(Neg(vars[i]), Pos(vars[i+1]), Pos(vars[i+2]))
	}
	b.ResetTimer()
	for b.Loop() {
		for i := range 16 {
			_ = s.Solve(Pos(vars[i]), Neg(vars[n-1-i]))
		}
	}
}

// andChains adds a Tseitin-encoded circuit over fresh input variables:
// chains of AND gates, each gate conjoining the previous gate with a
// random input literal. It returns the inputs and every gate output.
func andChains(s *Solver, rng *rand.Rand, inputs, chains, length int) (in, gates []Lit) {
	in = make([]Lit, inputs)
	for i := range in {
		in[i] = Pos(s.NewVar())
	}
	for range chains {
		g := randFrom(rng, in)
		for range length {
			x, o := randFrom(rng, in), Pos(s.NewVar())
			s.AddClause(o.Not(), g) // o = g ∧ x
			s.AddClause(o.Not(), x)
			s.AddClause(o, g.Not(), x.Not())
			g = o
			gates = append(gates, o)
		}
	}
	return in, gates
}

// randFrom picks a literal of lits and negates it with probability ½.
func randFrom(rng *rand.Rand, lits []Lit) Lit {
	l := lits[rng.Intn(len(lits))]
	if rng.Intn(2) == 0 {
		return l.Not()
	}
	return l
}

// activationQuery issues one IC3-style query: a fresh activation literal
// guards a temporary blocking clause over gate outputs and an input, the
// solver runs under that literal, one gate, two negated gates and an
// input, and the literal is then pinned false, retiring the clause.
func activationQuery(s *Solver, rng *rand.Rand, in, gates []Lit) bool {
	act := Pos(s.NewVar())
	s.AddClause(act.Not(), gates[rng.Intn(len(gates))].Not(), gates[rng.Intn(len(gates))].Not(), randFrom(rng, in))
	ok := s.Solve(act, gates[rng.Intn(len(gates))], gates[rng.Intn(len(gates))].Not(),
		gates[rng.Intn(len(gates))].Not(), randFrom(rng, in))
	s.AddClause(act.Not())
	return ok
}

// BenchmarkActivationQueries measures IC3's usage pattern on a
// long-lived solver: a fixed AND-chain circuit and a stream of activation
// queries (see activationQuery). Simplify drops the retired clauses every
// 2048 queries. The solver is rebuilt every 8192 queries so the cost per
// query does not depend on b.N.
func BenchmarkActivationQueries(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	var (
		s         *Solver
		in, gates []Lit
	)
	queries := 0
	for b.Loop() {
		if queries%8192 == 0 {
			s = New()
			in, gates = andChains(s, rng, 64, 32, 16)
		}
		activationQuery(s, rng, in, gates)
		if queries++; queries%2048 == 0 {
			s.Simplify()
		}
	}
}
