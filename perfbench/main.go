// Command perfbench is the repository's benchmark. It runs one of three
// workloads drawn from the paper — the Fig. 6 BDD cell; the SAT engines on
// the bus lemmas and the section 5.2 clique, with the explicit-state
// baseline and a Monte-Carlo fault-injection campaign; and a served
// sweep — checks every result against pinned values, and prints its
// metrics as the last line of standard output:
//
//	bash perfbench/run.sh --workload fig6-bdd --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (wall_s, cpu_s,
// peak_rss_mib, setup_s). With --trace 1 the run adds one traced pass and
// prints per-layer metrics: self times and work counters of every layer
// call, read from outside the stack, plus the tracing overhead.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// Set-up runs at least minSetups times and until setupWindow has passed,
// at most maxSetups times; setup_s is the median. Repeating a set-up that
// takes a millisecond a hundred times keeps its median steady.
const (
	minSetups   = 5
	maxSetups   = 200
	setupWindow = 300 * time.Millisecond
)

// buildDir holds everything the benchmark writes, relative to the
// repository root it runs from.
const buildDir = ".bench_build"

func main() {
	if len(os.Args) == 2 && os.Args[1] == serveWorkerFlag {
		if err := runServeWorker(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench worker:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fig6-bdd, sat-engines or serve-sweep")
	seed := fs.Int64("seed", defaultSeed, "seed for the workload's inputs")
	seconds := fs.Int("seconds", 10, "measurement window: passes repeat until it has passed")
	trace := fs.Int("trace", 0, "1: add a traced pass and print per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w := findWorkload(*name)
	switch {
	case fs.NArg() > 0:
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	case w == nil:
		return fmt.Errorf("unknown workload %q", *name)
	case *seconds < 1:
		return fmt.Errorf("--seconds must be at least 1")
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("--trace must be 0 or 1")
	}
	sum, err := measure(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, stderr)
	if err != nil {
		return err
	}
	line, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// measure sets the workload up repeatedly, runs untraced passes until the
// window has passed and the workload's least number of passes is reached
// (a pass is never cut, so a long one may run alone), and with tracing
// adds one traced pass.
func measure(w *workload, seed int64, window time.Duration, tracing bool, log io.Writer) (*summary, error) {
	scratch := filepath.Join(buildDir, "run", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	if w.gcPercent != 0 {
		debug.SetGCPercent(w.gcPercent)
	}
	rec := newRecorder(tracing)
	l := &layers{ctx: context.Background(), rec: rec}

	var setupS []float64
	var setupRoots []int
	var models map[modelSpec]*model
	for setupStart := time.Now(); len(setupS) < minSetups || len(setupS) < maxSetups && time.Since(setupStart) < setupWindow; {
		rec.total = counters{}
		// A clean heap makes every repeat pay for its own allocations only.
		runtime.GC()
		t0 := time.Now()
		root, err := rec.group("bench.setup", func() error {
			var err error
			models, err = setup(l, w, scratch)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		setupRoots = append(setupRoots, root)
	}
	setupC := rec.total

	sum := &summary{Metrics: make(map[string]metric)}
	problem := func(msg string) {
		fmt.Fprintf(log, "FAILED %s\n", msg)
	}
	runPass := func(traced bool) (*pass, int, error) {
		rec.tracing = traced
		p := newPass(l, seed, models, scratch)
		rec.total = counters{}
		root, err := rec.group("bench.pass", func() error { return w.run(p) })
		p.total = rec.total
		if err != nil {
			return nil, root, err
		}
		_, _ = rec.group("bench.verify", func() error {
			a, f := p.verify(problem)
			sum.Attempted += a
			sum.Failed += f
			return nil
		})
		return p, root, nil
	}

	var passes []*pass
	start := time.Now()
	for {
		p, _, err := runPass(false)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		fmt.Fprintf(log, "pass %d: wall %.3f s, cpu %.3f s\n", len(passes), p.wall.Seconds(), (p.cpu + p.childCPU).Seconds())
		if len(passes) >= w.passes && time.Since(start) >= window {
			break
		}
	}
	var traced *pass
	tracedRoot := -1
	if tracing {
		var err error
		if traced, tracedRoot, err = runPass(true); err != nil {
			return nil, err
		}
	}

	checked := passes
	if traced != nil {
		checked = append(checked, traced)
	}
	nondet, err := checkDeterminism(w.name, seed, checked, log)
	if err != nil {
		return nil, err
	}
	// An operation whose work counters did not repeat counts as failed.
	sum.Failed = min(sum.Attempted, sum.Failed+nondet)

	if tracing {
		for k, v := range layerMetrics(rec, passes, traced, tracedRoot, setupRoots, setupC, sum) {
			sum.Metrics[k] = v
		}
		path := filepath.Join(buildDir, "traces", fmt.Sprintf("%s-seed%d.json", w.name, seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return nil, err
		}
		if err := writeChrome(path, rec.spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "trace written to %s\n", path)
	} else {
		for k, v := range endToEnd(passes, setupS) {
			sum.Metrics[k] = v
		}
	}
	sum.Correct = sum.Failed == 0
	return sum, nil
}

// setup builds and compiles the workload's models and, for the served
// workload, starts and stops a daemon.
func setup(l *layers, w *workload, scratch string) (map[modelSpec]*model, error) {
	specs, err := w.models()
	if err != nil {
		return nil, err
	}
	models := make(map[modelSpec]*model, len(specs))
	for _, s := range specs {
		m, err := l.build(s)
		if err != nil {
			return nil, err
		}
		models[s] = m
	}
	if w.daemon {
		dir, err := os.MkdirTemp(scratch, "setup-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		d, err := l.serveStart(dir, serveWorkers)
		if err != nil {
			return nil, err
		}
		if err := l.serveClose(d); err != nil {
			return nil, err
		}
	}
	return models, nil
}

// endToEnd reports the medians over the untraced passes.
func endToEnd(passes []*pass, setupS []float64) map[string]metric {
	var wall, cpu []float64
	for _, p := range passes {
		wall = append(wall, p.wall.Seconds())
		cpu = append(cpu, (p.cpu + p.childCPU).Seconds())
	}
	peak := float64(selfMaxRSS())
	for _, p := range passes {
		peak = max(peak, float64(selfMaxRSS()+p.childRSS))
	}
	return map[string]metric{
		"wall_s":       {median(wall), "s"},
		"cpu_s":        {median(cpu), "s"},
		"peak_rss_mib": {peak / 1024, "MiB"},
		"setup_s":      {median(setupS), "s"},
	}
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// childCPU is the CPU time of the reaped child processes.
func childCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// selfMaxRSS is this process's peak resident set in KiB.
func selfMaxRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss
}
