package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// busSafetyBMC builds the degree-3 bus model, whose safety lemma BMC
// refutes in a few milliseconds.
func busSafetyBMC(t *testing.T, l *layers) (*model, func() (outcome, error)) {
	t.Helper()
	m, err := l.build(satBus(3))
	if err != nil {
		t.Fatal(err)
	}
	return m, func() (outcome, error) { return l.bmcCheck(m, "safety", 2*m.spec.wsup()) }
}

func verifyOne(t *testing.T, l *layers, m *model, want expect, run func() (outcome, error)) (attempted, failed int) {
	t.Helper()
	p := newPass(l, defaultSeed, map[modelSpec]*model{m.spec: m}, t.TempDir())
	p.check("bus/safety/bmc", want, run)
	return p.verify(func(msg string) { t.Log(msg) })
}

// A wrong pinned expectation, or a counterexample that does not replay,
// fails the check and so raises fail_ratio.
func TestOutputChecksRaiseFailRatio(t *testing.T) {
	l := &layers{ctx: context.Background(), rec: newRecorder(false)}
	m, run := busSafetyBMC(t, l)

	if a, f := verifyOne(t, l, m, expect{Verdict: violated}, run); a != 1 || f != 0 {
		t.Fatalf("right expectation: %d of %d failed, want 0 of 1", f, a)
	}
	if a, f := verifyOne(t, l, m, expect{Verdict: holds}, run); a != 1 || f != 1 {
		t.Fatalf("wrong expectation: %d of %d failed, want 1 of 1", f, a)
	}
	broken := func() (outcome, error) {
		o, err := run()
		if err == nil {
			// Dropping the initial state leaves a path that starts
			// mid-run, which the replay must reject.
			o.Cex.trace.States = o.Cex.trace.States[1:]
		}
		return o, err
	}
	if a, f := verifyOne(t, l, m, expect{Verdict: violated}, broken); a != 1 || f != 1 {
		t.Fatalf("broken counterexample: %d of %d failed, want 1 of 1", f, a)
	}
}

func TestSelfTimesAndCoverage(t *testing.T) {
	r := newRecorder(true)
	s := func(id, parent, root int, name string, start, end time.Duration) span {
		return span{id: id, parent: parent, root: root, name: name, start: start, end: end}
	}
	r.spans = []span{
		s(0, -1, 0, "bench.pass", 0, 10*time.Second),
		s(1, 0, 0, "bench.op", time.Second, 9*time.Second),
		s(2, 1, 0, "symbolic.reach", 2*time.Second, 5*time.Second),
		s(3, 1, 0, "symbolic.reach", 5*time.Second, 8*time.Second),
	}
	self := r.selfTimes(0)
	if self["bench.pass"] != 2 || self["bench.op"] != 2 || self["symbolic.reach"] != 6 {
		t.Fatalf("self times %v", self)
	}
	if got := r.coverage(0); got != 0.6 {
		t.Fatalf("coverage %v, want 0.6", got)
	}
}

// The traced run's Chrome trace passes the repository's trace validator.
func TestTraceValidates(t *testing.T) {
	rec := newRecorder(true)
	l := &layers{ctx: context.Background(), rec: rec}
	if _, err := rec.group("bench.pass", func() error {
		_, run := busSafetyBMC(t, l)
		_, err := rec.operation("bus/safety/bmc", func() error {
			_, err := run()
			return err
		})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChrome(path, rec.spans); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command("go", "run", "ttastartup/cmd/ttatrace", "-min-cats", "4", path).CombinedOutput()
	if err != nil {
		t.Fatalf("ttatrace: %v\n%s", err, out)
	}
}

// BENCHMARK.json lists exactly the workloads and metrics the code reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Why, Unit, Better string }
	var doc struct {
		Command   []string
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, code has %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
	}
	e2e := endToEnd([]*pass{{}}, []float64{1})
	if len(doc.EndToEnd) != len(e2e) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d reported", len(doc.EndToEnd), len(e2e))
	}
	for _, e := range doc.EndToEnd {
		if m, ok := e2e[e.Name]; !ok || m.Unit != e.Unit || e.Better != "lower" {
			t.Errorf("end-to-end %+v does not match the reported %+v", e, m)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the code", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		e := doc.PerLayer[i]
		if e.Name != m.name || e.Unit != m.unit || e.Better != m.better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, code has %s %s %s", i, e, m.name, m.unit, m.better)
		}
	}
	// Every per-layer metric names a metric it should move and where.
	known := make(map[string]bool)
	for _, e := range append(doc.EndToEnd, doc.PerLayer...) {
		known[e.Name] = true
	}
	for _, m := range perLayer {
		if m.moves == "" {
			continue
		}
		target, where, ok := strings.Cut(m.moves, " on ")
		target, _, _ = strings.Cut(target, ",")
		if !ok || !known[target] {
			t.Errorf("%s moves %q: no known metric", m.name, m.moves)
		}
		if where != "every workload" && findWorkload(strings.TrimRight(strings.Fields(where)[0], ";")) == nil {
			t.Errorf("%s moves %q: no known workload", m.name, m.moves)
		}
	}
	if strings.Join(doc.Command, " ") != "bash perfbench/run.sh" {
		t.Errorf("command %q", doc.Command)
	}
}
