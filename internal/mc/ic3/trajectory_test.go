package ic3

import (
	"testing"

	"ttastartup/internal/mc"
	"ttastartup/internal/tta/original"
)

// TestSearchPathPinned pins IC3's SAT work on the bus model (n=3,
// δ_init=2, faulty node 1, fault degree 1): the safety lemma directly and
// the liveness lemma through the l2s product. IC3 is deterministic, so
// any solver change that is meant to keep the search identical (data
// layout, allocation, bookkeeping) must reproduce these counters exactly;
// a change that moves them alters the search and must say so. The values
// were recorded with the clause-per-slice solver that preceded the clause
// arena.
func TestSearchPathPinned(t *testing.T) {
	m, err := original.Build(original.Config{N: 3, FaultyNode: 1, FaultDegree: 1, DeltaInit: 2})
	if err != nil {
		t.Fatal(err)
	}
	type pin struct {
		SATQueries, Propagations, Decisions, Conflicts, Iterations int
	}
	for _, tc := range []struct {
		name string
		run  func() (*mc.Result, error)
		want pin
	}{
		{"safety", func() (*mc.Result, error) {
			return CheckInvariant(m.Sys.Compile(), m.Safety(), Options{})
		}, pin{SATQueries: 1464, Propagations: 817060, Decisions: 24090, Conflicts: 657, Iterations: 9}},
		{"liveness-l2s", func() (*mc.Result, error) {
			return CheckEventually(m.Sys, m.Liveness(), Options{})
		}, pin{SATQueries: 11337, Propagations: 10639621, Decisions: 333109, Conflicts: 3202, Iterations: 18}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Verdict != mc.Holds {
				t.Fatalf("verdict %v, want holds", res.Verdict)
			}
			st := res.Stats
			got := pin{st.SATQueries, st.Propagations, st.Decisions, st.Conflicts, st.Iterations}
			if got != tc.want {
				t.Errorf("search path moved:\n got  %+v\n want %+v", got, tc.want)
			}
		})
	}
}
