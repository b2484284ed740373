package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// work maps an operation name to its deterministic work counters.
type work map[string]map[string]string

// recordedWork holds the work counters of every workload for the default
// and the held-out seed at the commit that added the benchmark:
// workload -> seed -> operation -> counter -> value. A run on one of those
// seeds lists the counters that now differ. That is no failure, since a
// change to an engine may move them; it shows where the work changed.
//
//go:embed counters.json
var recordedWorkJSON []byte

// checkDeterminism compares the passes' work counters with each other and
// with those an earlier run of the same binary and seed stored under
// buildDir, and stores them if no such run exists. Counters of the same
// code and seed must repeat exactly; it returns the number of operations
// whose counters did not.
func checkDeterminism(workload string, seed int64, passes []*pass, log io.Writer) (int, error) {
	ref := passes[0].work
	differ := 0
	for _, p := range passes[1:] {
		differ += diffWork(ref, p.work, log, "FAILED nondeterministic: between passes of this run")
	}

	exe, err := exeHash()
	if err != nil {
		return 0, err
	}
	path := filepath.Join(buildDir, "counters", exe, fmt.Sprintf("%s-seed%d.json", workload, seed))
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		var stored work
		if err := json.Unmarshal(data, &stored); err != nil {
			return 0, fmt.Errorf("%s: %w", path, err)
		}
		differ += diffWork(stored, ref, log, "FAILED nondeterministic: against an earlier run of this binary")
	case errors.Is(err, fs.ErrNotExist):
		if err := writeJSON(path, ref); err != nil {
			return 0, err
		}
	default:
		return 0, err
	}

	var recorded map[string]map[string]work
	if err := json.Unmarshal(recordedWorkJSON, &recorded); err != nil {
		return 0, fmt.Errorf("counters.json: %w", err)
	}
	if base, ok := recorded[workload][strconv.FormatInt(seed, 10)]; ok {
		if n := diffWork(base, ref, log, "work differs from counters.json"); n > 0 {
			fmt.Fprintf(log, "%d operations do different work than at the recorded baseline\n", n)
		}
	}
	return differ, nil
}

// diffWork logs every operation whose counters differ between want and got
// and returns how many there are.
func diffWork(want, got work, log io.Writer, prefix string) int {
	names := make(map[string]bool)
	for op := range want {
		names[op] = true
	}
	for op := range got {
		names[op] = true
	}
	var ops []string
	for op := range names {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	differ := 0
	for _, op := range ops {
		w, g := want[op], got[op]
		diff := len(w) != len(g)
		for k, v := range w {
			if g[k] != v {
				diff = true
			}
		}
		if diff {
			differ++
			fmt.Fprintf(log, "%s: %s: %v, was %v\n", prefix, op, g, w)
		}
	}
	return differ
}

// exeHash identifies the code under test by the running binary's content.
func exeHash() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8]), nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// shortHash is a short content hash of a report for the work record.
func shortHash(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}
