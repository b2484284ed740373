// Command ttacampaign runs verification campaigns: it expands a sweep
// specification (cluster sizes × topologies × big-bang variants × fault
// degrees × lemmas × engines) into a deterministic job list and executes
// it on a bounded worker pool, appending one fsynced JSONL record per
// finished job to the result store. An interrupted campaign (Ctrl-C,
// kill, crash, -cancel-after) resumes with -resume: recorded jobs are
// skipped and the final report is identical to an uninterrupted run.
//
// Examples:
//
//	ttacampaign -n 3 -out results.jsonl -j 8
//	ttacampaign -n 3,4 -topologies hub,bus -bigbang both -engines symbolic,bmc
//	ttacampaign -n 3 -out results.jsonl -resume          (continue after a kill)
//	ttacampaign -n 3 -timeout 30s -fallback-bmc          (rescue slow jobs)
//	ttacampaign -n 3 -progress json | jq .               (machine-readable feed)
//	ttacampaign -n 3 -trace out.json -metrics            (worker-pool trace)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ttastartup/internal/bdd"
	"ttastartup/internal/campaign"
	"ttastartup/internal/core"
	"ttastartup/internal/mc/symbolic"
	"ttastartup/internal/obs"
)

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ttacampaign:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func run() (int, error) {
	var (
		ns          = flag.String("n", "3", "comma-separated cluster sizes")
		topologies  = flag.String("topologies", "hub", "comma-separated topologies: hub, bus")
		bigbang     = flag.String("bigbang", "on", "hub big-bang variants: on, off, both")
		degrees     = flag.String("degrees", "1,2,3,4,5,6", "comma-separated fault degrees")
		lemmas      = flag.String("lemmas", "safety,liveness,timeliness,safety_2", "comma-separated lemmas")
		engines     = flag.String("engines", "symbolic", "comma-separated engines: symbolic, explicit, bmc, induction, ic3")
		deltaInit   = flag.Int("delta-init", 0, "power-on window in slots (0: each model's default)")
		workers     = flag.Int("j", 0, "worker goroutines (0: GOMAXPROCS)")
		timeout     = flag.Duration("timeout", 0, "per-job budget; exceeded jobs record 'inconclusive (deadline)' (0: none)")
		fallbackBMC = flag.Bool("fallback-bmc", false, "retry deadline-exceeded jobs with the bounded engine")
		out         = flag.String("out", "", "JSONL result store path (empty: in-memory only)")
		resume      = flag.Bool("resume", false, "keep records already in -out and skip their jobs")
		progress    = flag.String("progress", "text", "progress sink: text, json, none")
		heartbeat   = flag.Duration("heartbeat", 5*time.Second, "interval between progress heartbeats (0: off)")
		quiet       = flag.Bool("quiet", false, "suppress per-job progress lines")
		listOnly    = flag.Bool("list", false, "print the expanded job list and exit")
		noReport    = flag.Bool("no-report", false, "suppress the final per-job report table")
		cancelAfter = flag.Int("cancel-after", 0, "cancel the campaign gracefully after this many jobs finish (testing hook; 0: off)")
		nodeLimit   = flag.Int("bdd-nodes", 0, "BDD node limit per job (0: default)")
		reorder     = flag.Bool("reorder", false, "enable dynamic BDD variable reordering in symbolic jobs")
		optimize    = flag.Bool("opt", true, "run the static model-optimization pipeline per job (COI slicing, constant propagation, range narrowing); counterexamples are inflated back to the full model")
		bmcDepth    = flag.Int("depth", 0, "bmc unrolling depth (0: 2·w_sup)")
		tracePath   = flag.String("trace", "", "write a Chrome trace_event JSON file here (one lane per worker)")
		spanlog     = flag.String("spanlog", "", "append one JSON line per finished span to this file")
		metrics     = flag.Bool("metrics", false, "dump the metrics registry after the campaign")
		pprofAddr   = flag.String("pprof", "", "serve /debug/pprof and /metricsz on this address (e.g. :6060)")
	)
	flag.Parse()

	scope, obsDone, err := obs.Setup(obs.SetupOptions{
		TracePath: *tracePath,
		SpanLog:   *spanlog,
		Metrics:   *metrics,
		PprofAddr: *pprofAddr,
		MetricsW:  os.Stderr, // stdout may carry the JSON progress feed
	})
	if err != nil {
		return 1, err
	}
	defer func() {
		if derr := obsDone(); derr != nil {
			fmt.Fprintln(os.Stderr, "ttacampaign: obs:", derr)
		}
	}()

	if *nodeLimit > bdd.MaxNodeLimit {
		return 2, fmt.Errorf("-bdd-nodes %d above the BDD kernel's maximum %d", *nodeLimit, bdd.MaxNodeLimit)
	}
	spec := campaign.Spec{DeltaInit: *deltaInit}
	if spec.Ns, err = parseInts(*ns); err != nil {
		return 2, fmt.Errorf("-n: %w", err)
	}
	if spec.Degrees, err = parseInts(*degrees); err != nil {
		return 2, fmt.Errorf("-degrees: %w", err)
	}
	spec.Topologies = splitList(*topologies)
	spec.Lemmas = splitList(*lemmas)
	spec.Engines = splitList(*engines)
	switch *bigbang {
	case "on":
		spec.BigBang = []bool{true}
	case "off":
		spec.BigBang = []bool{false}
	case "both":
		spec.BigBang = []bool{true, false}
	default:
		return 2, fmt.Errorf("-bigbang: want on, off or both, got %q", *bigbang)
	}

	jobs, err := spec.Jobs()
	if err != nil {
		return 2, err
	}
	if *listOnly {
		for _, j := range jobs {
			fmt.Println(j.ID())
		}
		fmt.Printf("%d jobs\n", len(jobs))
		return 0, nil
	}

	opts := campaign.RunOptions{
		Workers:     *workers,
		Timeout:     *timeout,
		FallbackBMC: *fallbackBMC,
		Heartbeat:   *heartbeat,
		Options: core.Options{
			Symbolic: symbolic.Options{BDD: bdd.Config{NodeLimit: *nodeLimit, AutoReorder: *reorder}},
			BMCDepth: *bmcDepth,
			Opt:      *optimize,
			Obs:      scope,
		},
	}
	if *out != "" {
		store, err := campaign.OpenStore(*out, *resume)
		if err != nil {
			return 1, err
		}
		defer store.Close()
		opts.Store = store
	} else if *resume {
		return 2, errors.New("-resume requires -out")
	}

	switch *progress {
	case "text":
		opts.Progress = &campaign.TextProgress{W: os.Stderr, Quiet: *quiet}
	case "json":
		opts.Progress = &campaign.JSONProgress{W: os.Stdout}
	case "none":
	default:
		return 2, fmt.Errorf("-progress: want text, json or none, got %q", *progress)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var cancel context.CancelFunc
	ctx, cancel = context.WithCancel(ctx)
	defer cancel()
	if *cancelAfter > 0 {
		opts.Progress = &cancelAfterN{Progress: progressOrNop(opts.Progress), n: *cancelAfter, cancel: cancel}
	}

	rep, err := campaign.RunJobs(ctx, jobs, opts)
	cancelled := errors.Is(err, context.Canceled)
	if err != nil && !cancelled {
		return 1, err
	}

	if !*noReport && *progress != "json" {
		fmt.Print(rep.Format())
	} else if *progress != "json" {
		fmt.Println(rep.Summary())
	}

	switch {
	case cancelled && *cancelAfter > 0:
		// The testing hook cancelled on purpose; partial progress is the
		// expected outcome and the store holds it.
		return 0, nil
	case cancelled:
		return 1, errors.New("campaign interrupted (resume with -resume)")
	case rep.Counts().Errors > 0:
		return 1, fmt.Errorf("%d job(s) errored", rep.Counts().Errors)
	default:
		return 0, nil
	}
}

// cancelAfterN wraps a progress sink and cancels the campaign context once
// n jobs have finished — a deterministic stand-in for Ctrl-C used by the
// campaign-smoke target and the resume tests.
type cancelAfterN struct {
	campaign.Progress
	n      int
	seen   int
	cancel context.CancelFunc
}

func (c *cancelAfterN) JobFinished(worker int, rec campaign.Record) {
	c.Progress.JobFinished(worker, rec)
	c.seen++
	if c.seen == c.n {
		c.cancel()
	}
}

func progressOrNop(p campaign.Progress) campaign.Progress {
	if p == nil {
		return campaign.NopProgress{}
	}
	return p
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range splitList(s) {
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
