package obs

import (
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// waitGoroutines polls until the goroutine count drops back to the
// baseline (the runtime reaps asynchronously) or the deadline passes.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	for i := 0; ; i++ {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if i > 200 {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after\n%s", baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSetupCtxCancelStopsSinks: cancelling the context must stop the
// heartbeat goroutine and close the debug HTTP listener without anyone
// calling the teardown function — the daemon-crash path.
func TestSetupCtxCancelStopsSinks(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var log strings.Builder
	scope, done, err := SetupCtx(ctx, SetupOptions{
		Heartbeat: time.Millisecond,
		PprofAddr: "127.0.0.1:0",
		LogW:      &log,
		MetricsW:  io.Discard,
	})
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if scope.Reg == nil {
		t.Fatal("scope has no registry")
	}

	// The debug endpoint is live before cancellation.
	addr := strings.TrimSpace(strings.TrimPrefix(lastLine(log.String()), "obs: serving /debug/pprof and /metricsz on http://"))
	if addr == "" {
		t.Fatalf("no pprof banner in log: %q", log.String())
	}
	resp, err := http.Get("http://" + addr + "/metricsz")
	if err != nil {
		t.Fatalf("debug endpoint not serving before cancel: %v", err)
	}
	resp.Body.Close()

	cancel()
	// After cancel, the listener must refuse connections and the heartbeat
	// goroutine must exit — without done() ever being called.
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/metricsz")
		if err != nil {
			break
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatal("debug endpoint still serving after context cancel")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := done(); err != nil {
		t.Fatalf("teardown after cancel: %v", err)
	}
	waitGoroutines(t, before)
}

// TestSetupTeardownIdempotent: calling teardown repeatedly (and from a
// racing context watcher) performs the shutdown once and returns a stable
// result; the trace file is written exactly once.
func TestSetupTeardownIdempotent(t *testing.T) {
	before := runtime.NumGoroutine()
	tracePath := filepath.Join(t.TempDir(), "out.trace.json")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	scope, done, err := SetupCtx(ctx, SetupOptions{
		TracePath: tracePath,
		Heartbeat: time.Millisecond,
		LogW:      io.Discard,
		MetricsW:  io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	sp := scope.Trace.StartOn(0, CatEngine, "probe")
	sp.End()

	if err := done(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(tracePath)
	if err != nil {
		t.Fatalf("trace not written at teardown: %v", err)
	}
	stamp := st.ModTime()

	// Second teardown and a context cancellation racing in: no rewrite,
	// no error, no panic.
	cancel()
	for i := 0; i < 3; i++ {
		if err := done(); err != nil {
			t.Fatalf("repeat teardown %d: %v", i, err)
		}
	}
	st2, err := os.Stat(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.ModTime().Equal(stamp) || st2.Size() != st.Size() {
		t.Fatal("repeat teardown rewrote the trace file")
	}
	waitGoroutines(t, before)
}

// TestSetupCtxDisabled: with nothing enabled, SetupCtx spawns nothing and
// teardown is a no-op even under cancellation.
func TestSetupCtxDisabled(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	scope, done, err := SetupCtx(ctx, SetupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if scope.Enabled() {
		t.Fatal("zero options produced an enabled scope")
	}
	cancel()
	if err := done(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, before)
}

func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return lines[len(lines)-1]
}
