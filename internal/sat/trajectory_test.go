package sat

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"
)

// The golden search-path test: seeded incremental call sequences whose
// search counters, assumption cores and model digests are pinned after
// every call. Any change to the solver's data layout must leave these
// byte-identical — they fail on the first decision, propagation order,
// learnt clause or restart that differs. A change that is meant to alter
// the search (heap tie-breaking, restart policy, ...) re-records them and
// says so.

// trajectory records one row per solver call.
type trajectory struct {
	s    *Solver
	rows []string
}

func (tr *trajectory) record(op string, ok bool) {
	s := tr.s
	model := uint32(0)
	core := ""
	if op == "solve" {
		if ok {
			h := fnv.New32a()
			for v := 1; v <= s.NumVars(); v++ {
				if s.Value(v) {
					h.Write([]byte{1})
				} else {
					h.Write([]byte{0})
				}
			}
			model = h.Sum32()
		} else {
			core = fmt.Sprint(s.FinalConflict())
		}
	}
	tr.rows = append(tr.rows, fmt.Sprintf("%s ok=%t d=%d p=%d c=%d r=%d lt=%d lc=%d core=%s model=%08x",
		op, ok, s.Decisions(), s.Propagations(), s.Conflicts(), s.Restarts(),
		s.LearntTotal(), s.LearntCurrent(), core, model))
}

func (tr *trajectory) solve(assumps ...Lit) {
	tr.record("solve", tr.s.Solve(assumps...))
}

func (tr *trajectory) simplify() {
	tr.s.Simplify()
	tr.record("simplify", true)
}

// add adds a batch of clauses and records one row for the batch: ok is
// the conjunction of the AddClause results.
func (tr *trajectory) add(cls [][]Lit) {
	ok := true
	for _, cl := range cls {
		ok = tr.s.AddClause(cl...) && ok
	}
	tr.record("add", ok)
}

func randLit(rng *rand.Rand, nvars int) Lit {
	v := 1 + rng.Intn(nvars)
	if rng.Intn(2) == 0 {
		return Pos(v)
	}
	return Neg(v)
}

// randomTrajectory grows a random 3-SAT formula up to the phase
// transition (clause/variable ratio ~4.26) in batches, solving under
// random assumptions after each batch and simplifying after pinning a
// literal every other batch. Clauses may repeat a variable, so
// AddClause's duplicate and tautology handling is on the path too. With
// binPct > 0 that percentage of the clauses is binary instead, so
// conflicts and reasons run through the binary watchers.
func randomTrajectory(seed int64, binPct int) []string {
	const nvars = 150
	rng := rand.New(rand.NewSource(seed))
	s := New()
	s.maxLearnt = 25 // reduceDB runs many times
	for range nvars {
		s.NewVar()
	}
	tr := &trajectory{s: s}
	for batch := range 8 {
		n := 14
		if batch == 0 {
			n = 540 * (100 - binPct) / 100
		}
		cls := make([][]Lit, n)
		for i := range cls {
			cls[i] = []Lit{randLit(rng, nvars), randLit(rng, nvars)}
			if binPct == 0 || rng.Intn(100) >= binPct {
				cls[i] = append(cls[i], randLit(rng, nvars))
			}
		}
		tr.add(cls)
		for range 3 {
			assumps := make([]Lit, 1+rng.Intn(5))
			for i := range assumps {
				assumps[i] = randLit(rng, nvars)
			}
			tr.solve(assumps...)
		}
		tr.solve()
		if batch%2 == 1 {
			tr.add([][]Lit{{randLit(rng, nvars)}})
			tr.simplify()
			tr.solve()
		}
	}
	return tr.rows
}

// pigeonholeTrajectory runs guarded pigeonhole instances IC3-style: each
// is UNSAT only under its activation literal, is retired by pinning that
// literal false, and Simplify then drops its clauses.
func pigeonholeTrajectory() []string {
	s := New()
	s.maxLearnt = 40
	tr := &trajectory{s: s}
	free := s.NewVar()
	a1 := guardedPigeonhole(s, 7, 6)
	tr.record("add", true)
	tr.solve(Pos(free), a1)
	tr.solve(a1, Neg(free))
	tr.solve()
	tr.add([][]Lit{{a1.Not()}})
	tr.simplify()
	a2 := guardedPigeonhole(s, 6, 5)
	tr.record("add", true)
	tr.solve(a2)
	tr.solve(Neg(free), a1)
	tr.add([][]Lit{{a2.Not(), Pos(free)}, {a2.Not(), Neg(free), a1}})
	tr.solve(a2)
	tr.solve(Neg(free))
	tr.add([][]Lit{{a2.Not()}})
	tr.simplify()
	tr.solve()
	return tr.rows
}

// activationTrajectory runs IC3-shaped activation queries over an
// AND-chain circuit, whose Tseitin encoding is two-thirds binary clauses,
// simplifying every 16 queries.
func activationTrajectory() []string {
	rng := rand.New(rand.NewSource(5))
	s := New()
	s.maxLearnt = 30
	in, gates := andChains(s, rng, 24, 12, 10)
	tr := &trajectory{s: s}
	tr.record("add", true)
	for q := 1; q <= 64; q++ {
		tr.record("solve", activationQuery(s, rng, in, gates))
		if q%16 == 0 {
			tr.simplify()
		}
	}
	return tr.rows
}

func checkTrajectory(t *testing.T, got, want []string) {
	t.Helper()
	for i := range max(len(got), len(want)) {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Errorf("call %d diverges from the pinned search path:\n got  %s\n want %s", i, g, w)
			var b strings.Builder
			for _, row := range got {
				fmt.Fprintf(&b, "\t%q,\n", row)
			}
			t.Logf("full trajectory:\n%s", b.String())
			return
		}
	}
}

func TestTrajectoryRandom3SAT(t *testing.T) {
	for _, tc := range []struct {
		seed   int64
		binPct int
		want   []string
	}{
		{1, 0, trajectoryRandomSeed1},
		{42, 0, trajectoryRandomSeed42},
		{7, 10, trajectoryMixedSeed7},
	} {
		t.Run(fmt.Sprintf("seed%d-bin%d", tc.seed, tc.binPct), func(t *testing.T) {
			checkTrajectory(t, randomTrajectory(tc.seed, tc.binPct), tc.want)
		})
	}
}

func TestTrajectoryPigeonhole(t *testing.T) {
	checkTrajectory(t, pigeonholeTrajectory(), trajectoryPigeonhole)
}

func TestTrajectoryActivation(t *testing.T) {
	checkTrajectory(t, activationTrajectory(), trajectoryActivation)
}

// The pinned trajectories below were recorded with the clause-per-slice
// solver that preceded the clause arena.

var trajectoryRandomSeed1 = []string{
	"add ok=true d=0 p=0 c=0 r=0 lt=0 lc=0 core= model=00000000",
	"solve ok=true d=138 p=2665 c=81 r=0 lt=81 lc=33 core= model=88684fe8",
	"solve ok=true d=212 p=3871 c=117 r=0 lt=117 lc=34 core= model=61e4d959",
	"solve ok=true d=281 p=4844 c=142 r=0 lt=142 lc=40 core= model=4e52f38b",
	"solve ok=true d=325 p=4994 c=142 r=0 lt=142 lc=40 core= model=4e52f38b",
	"add ok=true d=325 p=4994 c=142 r=0 lt=142 lc=40 core= model=00000000",
	"solve ok=true d=410 p=6360 c=181 r=0 lt=181 lc=31 core= model=97fadfcd",
	"solve ok=true d=441 p=6510 c=181 r=0 lt=181 lc=31 core= model=97fadfcd",
	"solve ok=true d=470 p=6660 c=181 r=0 lt=181 lc=31 core= model=4f203fff",
	"solve ok=true d=500 p=6810 c=181 r=0 lt=181 lc=31 core= model=4f203fff",
	"add ok=true d=500 p=6811 c=181 r=0 lt=181 lc=31 core= model=00000000",
	"simplify ok=true d=500 p=6811 c=181 r=0 lt=181 lc=31 core= model=00000000",
	"solve ok=true d=530 p=6960 c=181 r=0 lt=181 lc=31 core= model=4f203fff",
	"add ok=true d=530 p=6960 c=181 r=0 lt=181 lc=31 core= model=00000000",
	"solve ok=true d=724 p=10541 c=290 r=1 lt=290 lc=53 core= model=fb5cf9c4",
	"solve ok=true d=801 p=11801 c=330 r=1 lt=330 lc=54 core= model=887ccec6",
	"solve ok=true d=906 p=14161 c=395 r=1 lt=395 lc=79 core= model=a8f6ebe8",
	"solve ok=true d=939 p=14310 c=395 r=1 lt=395 lc=79 core= model=a8f6ebe8",
	"add ok=true d=939 p=14310 c=395 r=1 lt=395 lc=79 core= model=00000000",
	"solve ok=true d=1005 p=14946 c=416 r=1 lt=416 lc=55 core= model=fabe0e90",
	"solve ok=false d=1408 p=25563 c=737 r=3 lt=737 lc=147 core=[-138 14 -84 -57] model=00000000",
	"solve ok=true d=1486 p=26317 c=757 r=3 lt=757 lc=93 core= model=97032858",
	"solve ok=true d=1535 p=26466 c=757 r=3 lt=757 lc=93 core= model=97032858",
	"add ok=true d=1535 p=26467 c=757 r=3 lt=757 lc=93 core= model=00000000",
	"simplify ok=true d=1535 p=26467 c=757 r=3 lt=757 lc=90 core= model=00000000",
	"solve ok=true d=1583 p=26615 c=757 r=3 lt=757 lc=90 core= model=97032858",
	"add ok=true d=1583 p=26615 c=757 r=3 lt=757 lc=90 core= model=00000000",
	"solve ok=false d=3233 p=71438 c=2065 r=11 lt=2065 lc=294 core=[-111 -95 -85] model=00000000",
	"solve ok=true d=4554 p=105704 c=3110 r=17 lt=3110 lc=433 core= model=214b5cd0",
	"solve ok=false d=4661 p=108173 c=3187 r=17 lt=3187 lc=510 core=[116 -149 -127 -62 100] model=00000000",
	"solve ok=true d=5910 p=141628 c=4207 r=23 lt=4207 lc=582 core= model=1a35da8a",
	"add ok=true d=5910 p=141628 c=4207 r=23 lt=4207 lc=582 core= model=00000000",
	"solve ok=false d=5994 p=144030 c=4276 r=23 lt=4276 lc=651 core=[50 112 -52 68] model=00000000",
	"solve ok=false d=6120 p=147312 c=4381 r=24 lt=4381 lc=756 core=[40 -54] model=00000000",
	"solve ok=false d=6120 p=147312 c=4381 r=24 lt=4381 lc=756 core=[-53] model=00000000",
	"solve ok=true d=6148 p=147846 c=4391 r=24 lt=4391 lc=766 core= model=7292deca",
	"add ok=true d=6148 p=147847 c=4391 r=24 lt=4391 lc=766 core= model=00000000",
	"simplify ok=true d=6148 p=147847 c=4391 r=24 lt=4391 lc=761 core= model=00000000",
	"solve ok=true d=6166 p=147994 c=4391 r=24 lt=4391 lc=761 core= model=7292deca",
	"add ok=true d=6166 p=147994 c=4391 r=24 lt=4391 lc=761 core= model=00000000",
	"solve ok=false d=6315 p=151547 c=4506 r=25 lt=4506 lc=494 core=[32 -140 -46] model=00000000",
	"solve ok=false d=6603 p=158724 c=4738 r=27 lt=4738 lc=726 core=[120 -78] model=00000000",
	"solve ok=true d=6623 p=158871 c=4738 r=27 lt=4738 lc=726 core= model=49f8ccdd",
	"solve ok=true d=6647 p=159018 c=4738 r=27 lt=4738 lc=726 core= model=49f8ccdd",
	"add ok=true d=6647 p=159018 c=4738 r=27 lt=4738 lc=726 core= model=00000000",
	"solve ok=false d=6726 p=161194 c=4805 r=27 lt=4805 lc=792 core=[33] model=00000000",
	"solve ok=false d=6726 p=161194 c=4805 r=27 lt=4805 lc=792 core=[51] model=00000000",
	"solve ok=false d=6849 p=164419 c=4907 r=28 lt=4907 lc=476 core=[114] model=00000000",
	"solve ok=false d=6906 p=165893 c=4953 r=28 lt=4952 lc=516 core=[] model=00000000",
	"add ok=false d=6906 p=165893 c=4953 r=28 lt=4952 lc=516 core= model=00000000",
	"simplify ok=true d=6906 p=165893 c=4953 r=28 lt=4952 lc=516 core= model=00000000",
	"solve ok=false d=6906 p=165893 c=4953 r=28 lt=4952 lc=516 core=[] model=00000000",
}

var trajectoryRandomSeed42 = []string{
	"add ok=true d=0 p=0 c=0 r=0 lt=0 lc=0 core= model=00000000",
	"solve ok=true d=32 p=150 c=0 r=0 lt=0 lc=0 core= model=64236a68",
	"solve ok=true d=117 p=668 c=10 r=0 lt=10 lc=10 core= model=8eefc827",
	"solve ok=true d=164 p=818 c=10 r=0 lt=10 lc=10 core= model=8eefc827",
	"solve ok=true d=215 p=968 c=10 r=0 lt=10 lc=10 core= model=8eefc827",
	"add ok=true d=215 p=968 c=10 r=0 lt=10 lc=10 core= model=00000000",
	"solve ok=true d=423 p=6455 c=159 r=1 lt=159 lc=35 core= model=988a5c03",
	"solve ok=true d=537 p=9175 c=234 r=1 lt=234 lc=61 core= model=f8722cb7",
	"solve ok=true d=573 p=9524 c=241 r=1 lt=241 lc=37 core= model=619735cb",
	"solve ok=true d=607 p=9674 c=241 r=1 lt=241 lc=37 core= model=619735cb",
	"add ok=true d=607 p=9675 c=241 r=1 lt=241 lc=37 core= model=00000000",
	"simplify ok=true d=607 p=9675 c=241 r=1 lt=241 lc=35 core= model=00000000",
	"solve ok=true d=639 p=9824 c=241 r=1 lt=241 lc=35 core= model=619735cb",
	"add ok=true d=639 p=9824 c=241 r=1 lt=241 lc=35 core= model=00000000",
	"solve ok=true d=719 p=11938 c=291 r=1 lt=291 lc=51 core= model=3c9d6ea5",
	"solve ok=true d=843 p=14797 c=370 r=1 lt=370 lc=55 core= model=c8096aab",
	"solve ok=true d=874 p=14946 c=370 r=1 lt=370 lc=55 core= model=db9e735e",
	"solve ok=true d=905 p=15095 c=370 r=1 lt=370 lc=55 core= model=db9e735e",
	"add ok=true d=905 p=15095 c=370 r=1 lt=370 lc=55 core= model=00000000",
	"solve ok=true d=999 p=17301 c=430 r=1 lt=430 lc=70 core= model=4c984cb4",
	"solve ok=true d=1921 p=43367 c=1151 r=6 lt=1151 lc=215 core= model=389ff266",
	"solve ok=true d=2311 p=53303 c=1427 r=8 lt=1427 lc=262 core= model=75c2de8a",
	"solve ok=true d=2339 p=53452 c=1427 r=8 lt=1427 lc=262 core= model=75c2de8a",
	"add ok=true d=2339 p=53453 c=1427 r=8 lt=1427 lc=262 core= model=00000000",
	"simplify ok=true d=2339 p=53453 c=1427 r=8 lt=1427 lc=260 core= model=00000000",
	"solve ok=true d=2366 p=53601 c=1427 r=8 lt=1427 lc=260 core= model=4dc454c9",
	"add ok=true d=2366 p=53601 c=1427 r=8 lt=1427 lc=260 core= model=00000000",
	"solve ok=true d=2801 p=65216 c=1753 r=10 lt=1753 lc=309 core= model=156039f9",
	"solve ok=true d=2884 p=66781 c=1793 r=10 lt=1793 lc=189 core= model=8ebd461f",
	"solve ok=true d=2927 p=66929 c=1793 r=10 lt=1793 lc=189 core= model=8ebd461f",
	"solve ok=true d=2969 p=67077 c=1793 r=10 lt=1793 lc=189 core= model=8ebd461f",
	"add ok=true d=2969 p=67077 c=1793 r=10 lt=1793 lc=189 core= model=00000000",
	"solve ok=true d=3053 p=68095 c=1824 r=10 lt=1824 lc=220 core= model=c20f32a6",
	"solve ok=true d=3095 p=68243 c=1824 r=10 lt=1824 lc=220 core= model=db0edaf6",
	"solve ok=false d=3096 p=68244 c=1824 r=10 lt=1824 lc=220 core=[-4] model=00000000",
	"solve ok=true d=3140 p=68392 c=1824 r=10 lt=1824 lc=220 core= model=db0edaf6",
	"add ok=true d=3140 p=68393 c=1824 r=10 lt=1824 lc=220 core= model=00000000",
	"simplify ok=true d=3140 p=68393 c=1824 r=10 lt=1824 lc=219 core= model=00000000",
	"solve ok=true d=3183 p=68540 c=1824 r=10 lt=1824 lc=219 core= model=db0edaf6",
	"add ok=true d=3183 p=68540 c=1824 r=10 lt=1824 lc=219 core= model=00000000",
	"solve ok=true d=3659 p=79666 c=2183 r=12 lt=2183 lc=209 core= model=4160697b",
	"solve ok=false d=3679 p=80003 c=2197 r=12 lt=2197 lc=223 core=[73 35 31 133 21] model=00000000",
	"solve ok=true d=3981 p=87372 c=2427 r=14 lt=2427 lc=240 core= model=b214da86",
	"solve ok=true d=4007 p=87519 c=2427 r=14 lt=2427 lc=240 core= model=b214da86",
	"add ok=true d=4007 p=87519 c=2427 r=14 lt=2427 lc=240 core= model=00000000",
	"solve ok=false d=4291 p=94748 c=2658 r=16 lt=2658 lc=471 core=[-145 85] model=00000000",
	"solve ok=true d=4354 p=95997 c=2694 r=16 lt=2694 lc=269 core= model=c3cab54f",
	"solve ok=false d=4545 p=100676 c=2850 r=17 lt=2850 lc=425 core=[-56 72] model=00000000",
	"solve ok=true d=4749 p=105765 c=3000 r=18 lt=3000 lc=317 core= model=76996681",
	"add ok=true d=4749 p=105766 c=3000 r=18 lt=3000 lc=317 core= model=00000000",
	"simplify ok=true d=4749 p=105766 c=3000 r=18 lt=3000 lc=298 core= model=00000000",
	"solve ok=true d=4767 p=105912 c=3000 r=18 lt=3000 lc=298 core= model=76996681",
}

var trajectoryPigeonhole = []string{
	"add ok=true d=0 p=0 c=0 r=0 lt=0 lc=0 core= model=00000000",
	"solve ok=false d=1304 p=14298 c=1022 r=6 lt=1022 lc=144 core=[2] model=00000000",
	"solve ok=false d=1304 p=14298 c=1022 r=6 lt=1022 lc=144 core=[2] model=00000000",
	"solve ok=true d=1347 p=14341 c=1022 r=6 lt=1022 lc=144 core= model=acd76327",
	"add ok=true d=1347 p=14341 c=1022 r=6 lt=1022 lc=144 core= model=00000000",
	"simplify ok=true d=1347 p=14341 c=1022 r=6 lt=1022 lc=0 core= model=00000000",
	"add ok=true d=1347 p=14341 c=1022 r=6 lt=1022 lc=0 core= model=00000000",
	"solve ok=false d=1576 p=16110 c=1174 r=7 lt=1174 lc=151 core=[45] model=00000000",
	"solve ok=false d=1577 p=16111 c=1174 r=7 lt=1174 lc=151 core=[2] model=00000000",
	"add ok=true d=1577 p=16111 c=1174 r=7 lt=1174 lc=151 core= model=00000000",
	"solve ok=false d=1577 p=16111 c=1174 r=7 lt=1174 lc=151 core=[45] model=00000000",
	"solve ok=true d=1650 p=16184 c=1174 r=7 lt=1174 lc=151 core= model=db958c11",
	"add ok=true d=1650 p=16184 c=1174 r=7 lt=1174 lc=151 core= model=00000000",
	"simplify ok=true d=1650 p=16184 c=1174 r=7 lt=1174 lc=0 core= model=00000000",
	"solve ok=true d=1723 p=16257 c=1174 r=7 lt=1174 lc=0 core= model=db958c11",
}

var trajectoryActivation = []string{
	"add ok=true d=0 p=0 c=0 r=0 lt=0 lc=0 core= model=00000000",
	"solve ok=false d=3 p=35 c=1 r=0 lt=1 lc=0 core=[143] model=00000000",
	"solve ok=true d=53 p=176 c=1 r=0 lt=1 lc=0 core= model=1de87cce",
	"solve ok=true d=75 p=317 c=1 r=0 lt=1 lc=0 core= model=30c6db9e",
	"solve ok=false d=78 p=372 c=2 r=0 lt=2 lc=0 core=[124] model=00000000",
	"solve ok=false d=82 p=481 c=2 r=0 lt=2 lc=0 core=[-23 73] model=00000000",
	"solve ok=true d=102 p=615 c=2 r=0 lt=2 lc=0 core= model=3cab2ff9",
	"solve ok=false d=103 p=617 c=2 r=0 lt=2 lc=0 core=[124] model=00000000",
	"solve ok=false d=104 p=619 c=2 r=0 lt=2 lc=0 core=[140] model=00000000",
	"solve ok=false d=107 p=661 c=3 r=0 lt=3 lc=0 core=[104] model=00000000",
	"solve ok=true d=128 p=793 c=3 r=0 lt=3 lc=0 core= model=201116a9",
	"solve ok=true d=150 p=925 c=3 r=0 lt=3 lc=0 core= model=68307bbc",
	"solve ok=true d=172 p=1057 c=3 r=0 lt=3 lc=0 core= model=d51a128d",
	"solve ok=false d=175 p=1072 c=4 r=0 lt=4 lc=0 core=[78] model=00000000",
	"solve ok=false d=178 p=1087 c=5 r=0 lt=5 lc=0 core=[33] model=00000000",
	"solve ok=true d=196 p=1208 c=5 r=0 lt=5 lc=0 core= model=71a0737a",
	"solve ok=false d=197 p=1210 c=5 r=0 lt=5 lc=0 core=[80] model=00000000",
	"simplify ok=true d=197 p=1210 c=5 r=0 lt=5 lc=0 core= model=00000000",
	"solve ok=true d=226 p=1331 c=5 r=0 lt=5 lc=0 core= model=0fa42ca1",
	"solve ok=true d=251 p=1452 c=5 r=0 lt=5 lc=0 core= model=bf242ef3",
	"solve ok=true d=279 p=1573 c=5 r=0 lt=5 lc=0 core= model=2bd6fd0e",
	"solve ok=false d=280 p=1575 c=5 r=0 lt=5 lc=0 core=[34] model=00000000",
	"solve ok=false d=281 p=1577 c=5 r=0 lt=5 lc=0 core=[83] model=00000000",
	"solve ok=true d=308 p=1698 c=5 r=0 lt=5 lc=0 core= model=56dec344",
	"solve ok=false d=309 p=1700 c=5 r=0 lt=5 lc=0 core=[143] model=00000000",
	"solve ok=true d=335 p=1821 c=5 r=0 lt=5 lc=0 core= model=495894fc",
	"solve ok=false d=336 p=1823 c=5 r=0 lt=5 lc=0 core=[120] model=00000000",
	"solve ok=true d=360 p=1944 c=5 r=0 lt=5 lc=0 core= model=ea9587d2",
	"solve ok=true d=395 p=2065 c=5 r=0 lt=5 lc=0 core= model=3f214b14",
	"solve ok=false d=398 p=2089 c=6 r=0 lt=6 lc=0 core=[64] model=00000000",
	"solve ok=false d=402 p=2141 c=6 r=0 lt=6 lc=0 core=[6 70] model=00000000",
	"solve ok=false d=403 p=2143 c=6 r=0 lt=6 lc=0 core=[120] model=00000000",
	"solve ok=false d=404 p=2145 c=6 r=0 lt=6 lc=0 core=[63] model=00000000",
	"solve ok=true d=423 p=2262 c=6 r=0 lt=6 lc=0 core= model=7737185a",
	"simplify ok=true d=423 p=2262 c=6 r=0 lt=6 lc=0 core= model=00000000",
	"solve ok=false d=424 p=2264 c=6 r=0 lt=6 lc=0 core=[61] model=00000000",
	"solve ok=true d=443 p=2381 c=6 r=0 lt=6 lc=0 core= model=12eecc9d",
	"solve ok=true d=463 p=2498 c=6 r=0 lt=6 lc=0 core= model=ba0defce",
	"solve ok=false d=464 p=2500 c=6 r=0 lt=6 lc=0 core=[34] model=00000000",
	"solve ok=true d=498 p=2617 c=6 r=0 lt=6 lc=0 core= model=5c1917e5",
	"solve ok=true d=519 p=2734 c=6 r=0 lt=6 lc=0 core= model=f97ee598",
	"solve ok=true d=543 p=2851 c=6 r=0 lt=6 lc=0 core= model=801725da",
	"solve ok=true d=569 p=2968 c=6 r=0 lt=6 lc=0 core= model=9582ed41",
	"solve ok=false d=572 p=3008 c=7 r=0 lt=7 lc=0 core=[132] model=00000000",
	"solve ok=false d=575 p=3016 c=8 r=0 lt=8 lc=0 core=[74] model=00000000",
	"solve ok=false d=578 p=3025 c=9 r=0 lt=9 lc=0 core=[52] model=00000000",
	"solve ok=false d=579 p=3027 c=9 r=0 lt=9 lc=0 core=[82] model=00000000",
	"solve ok=false d=580 p=3029 c=9 r=0 lt=9 lc=0 core=[77] model=00000000",
	"solve ok=false d=581 p=3031 c=9 r=0 lt=9 lc=0 core=[140] model=00000000",
	"solve ok=false d=582 p=3033 c=9 r=0 lt=9 lc=0 core=[144] model=00000000",
	"solve ok=false d=583 p=3035 c=9 r=0 lt=9 lc=0 core=[63] model=00000000",
	"simplify ok=true d=583 p=3035 c=9 r=0 lt=9 lc=0 core= model=00000000",
	"solve ok=true d=600 p=3139 c=9 r=0 lt=9 lc=0 core= model=455bdb2d",
	"solve ok=false d=602 p=3206 c=9 r=0 lt=9 lc=0 core=[-98 102] model=00000000",
	"solve ok=false d=603 p=3208 c=9 r=0 lt=9 lc=0 core=[131] model=00000000",
	"solve ok=false d=604 p=3210 c=9 r=0 lt=9 lc=0 core=[78] model=00000000",
	"solve ok=true d=626 p=3314 c=9 r=0 lt=9 lc=0 core= model=f5feb0aa",
	"solve ok=true d=652 p=3418 c=9 r=0 lt=9 lc=0 core= model=e33e829a",
	"solve ok=false d=653 p=3420 c=9 r=0 lt=9 lc=0 core=[32] model=00000000",
	"solve ok=false d=654 p=3422 c=9 r=0 lt=9 lc=0 core=[61] model=00000000",
	"solve ok=false d=655 p=3424 c=9 r=0 lt=9 lc=0 core=[62] model=00000000",
	"solve ok=false d=656 p=3426 c=9 r=0 lt=9 lc=0 core=[33] model=00000000",
	"solve ok=false d=658 p=3478 c=9 r=0 lt=9 lc=0 core=[-47 50] model=00000000",
	"solve ok=false d=659 p=3480 c=9 r=0 lt=9 lc=0 core=[54] model=00000000",
	"solve ok=false d=660 p=3482 c=9 r=0 lt=9 lc=0 core=[124] model=00000000",
	"solve ok=false d=663 p=3511 c=9 r=0 lt=9 lc=0 core=[-26 27] model=00000000",
	"solve ok=false d=664 p=3513 c=9 r=0 lt=9 lc=0 core=[103] model=00000000",
	"solve ok=false d=665 p=3515 c=9 r=0 lt=9 lc=0 core=[53] model=00000000",
	"simplify ok=true d=665 p=3515 c=9 r=0 lt=9 lc=0 core= model=00000000",
}

var trajectoryMixedSeed7 = []string{
	"add ok=true d=0 p=0 c=0 r=0 lt=0 lc=0 core= model=00000000",
	"solve ok=true d=97 p=973 c=23 r=0 lt=23 lc=23 core= model=5e43268c",
	"solve ok=true d=153 p=1123 c=23 r=0 lt=23 lc=23 core= model=f38f4c04",
	"solve ok=true d=207 p=1273 c=23 r=0 lt=23 lc=23 core= model=2ab56ad7",
	"solve ok=true d=261 p=1423 c=23 r=0 lt=23 lc=23 core= model=2ab56ad7",
	"add ok=true d=261 p=1423 c=23 r=0 lt=23 lc=23 core= model=00000000",
	"solve ok=true d=290 p=1693 c=26 r=0 lt=26 lc=14 core= model=158c8784",
	"solve ok=true d=328 p=1843 c=26 r=0 lt=26 lc=14 core= model=158c8784",
	"solve ok=false d=340 p=2048 c=33 r=0 lt=33 lc=20 core=[74] model=00000000",
	"solve ok=true d=382 p=2473 c=41 r=0 lt=41 lc=15 core= model=194a9d79",
	"add ok=true d=382 p=2475 c=41 r=0 lt=41 lc=15 core= model=00000000",
	"simplify ok=true d=382 p=2475 c=41 r=0 lt=41 lc=13 core= model=00000000",
	"solve ok=true d=416 p=2622 c=41 r=0 lt=41 lc=13 core= model=194a9d79",
	"add ok=true d=416 p=2622 c=41 r=0 lt=41 lc=13 core= model=00000000",
	"solve ok=true d=454 p=2798 c=42 r=0 lt=42 lc=14 core= model=761a8aee",
	"solve ok=true d=502 p=2945 c=42 r=0 lt=42 lc=14 core= model=7171425a",
	"solve ok=false d=509 p=3037 c=45 r=0 lt=45 lc=17 core=[-69 137 48] model=00000000",
	"solve ok=true d=584 p=3614 c=60 r=0 lt=60 lc=18 core= model=c7f0b114",
	"add ok=true d=584 p=3614 c=60 r=0 lt=60 lc=18 core= model=00000000",
	"solve ok=true d=622 p=3759 c=60 r=0 lt=60 lc=18 core= model=af5cce02",
	"solve ok=false d=637 p=4010 c=71 r=0 lt=71 lc=29 core=[-83 -65 -122] model=00000000",
	"solve ok=true d=672 p=4192 c=73 r=0 lt=73 lc=31 core= model=2f8799eb",
	"solve ok=true d=705 p=4337 c=73 r=0 lt=73 lc=31 core= model=2f8799eb",
	"add ok=true d=705 p=4338 c=73 r=0 lt=73 lc=31 core= model=00000000",
	"simplify ok=true d=705 p=4338 c=73 r=0 lt=73 lc=23 core= model=00000000",
	"solve ok=true d=736 p=4482 c=73 r=0 lt=73 lc=23 core= model=2f8799eb",
	"add ok=true d=736 p=4482 c=73 r=0 lt=73 lc=23 core= model=00000000",
	"solve ok=false d=738 p=4486 c=73 r=0 lt=73 lc=23 core=[99] model=00000000",
	"solve ok=false d=743 p=4574 c=76 r=0 lt=76 lc=26 core=[-80 -108] model=00000000",
	"solve ok=true d=805 p=5289 c=96 r=0 lt=96 lc=33 core= model=8a182521",
	"solve ok=true d=836 p=5433 c=96 r=0 lt=96 lc=33 core= model=8a182521",
	"add ok=true d=836 p=5433 c=96 r=0 lt=96 lc=33 core= model=00000000",
	"solve ok=false d=853 p=5871 c=109 r=0 lt=109 lc=28 core=[16] model=00000000",
	"solve ok=false d=853 p=5871 c=109 r=0 lt=109 lc=28 core=[74] model=00000000",
	"solve ok=false d=868 p=6343 c=120 r=0 lt=120 lc=37 core=[64] model=00000000",
	"solve ok=false d=875 p=6531 c=126 r=0 lt=125 lc=39 core=[] model=00000000",
	"add ok=false d=875 p=6531 c=126 r=0 lt=125 lc=39 core= model=00000000",
	"simplify ok=true d=875 p=6531 c=126 r=0 lt=125 lc=39 core= model=00000000",
	"solve ok=false d=875 p=6531 c=126 r=0 lt=125 lc=39 core=[] model=00000000",
	"add ok=false d=875 p=6531 c=126 r=0 lt=125 lc=39 core= model=00000000",
	"solve ok=false d=875 p=6531 c=126 r=0 lt=125 lc=39 core=[] model=00000000",
	"solve ok=false d=875 p=6531 c=126 r=0 lt=125 lc=39 core=[] model=00000000",
	"solve ok=false d=875 p=6531 c=126 r=0 lt=125 lc=39 core=[] model=00000000",
	"solve ok=false d=875 p=6531 c=126 r=0 lt=125 lc=39 core=[] model=00000000",
	"add ok=false d=875 p=6531 c=126 r=0 lt=125 lc=39 core= model=00000000",
	"solve ok=false d=875 p=6531 c=126 r=0 lt=125 lc=39 core=[] model=00000000",
	"solve ok=false d=875 p=6531 c=126 r=0 lt=125 lc=39 core=[] model=00000000",
	"solve ok=false d=875 p=6531 c=126 r=0 lt=125 lc=39 core=[] model=00000000",
	"solve ok=false d=875 p=6531 c=126 r=0 lt=125 lc=39 core=[] model=00000000",
	"add ok=false d=875 p=6531 c=126 r=0 lt=125 lc=39 core= model=00000000",
	"simplify ok=true d=875 p=6531 c=126 r=0 lt=125 lc=39 core= model=00000000",
	"solve ok=false d=875 p=6531 c=126 r=0 lt=125 lc=39 core=[] model=00000000",
}
