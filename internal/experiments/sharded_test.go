package experiments

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/experiments/shard"
	"repro/internal/records"
	"repro/internal/rl"
)

// Worker daemons are OS processes. Re-exec this test binary: with
// REPRO_SHARD_DAEMON=1 it becomes a worker daemon on an ephemeral
// loopback port, announcing its address on stdout — the test-side twin
// of `experiments -serve 127.0.0.1:0`, and what Sharded spawns here.
// With REPRO_SHARD_COORDINATOR=1 it runs a slow Sharded order on such
// daemons instead, for the lifetime tests to kill.
func TestMain(m *testing.M) {
	switch {
	case os.Getenv("REPRO_SHARD_DAEMON") == "1":
		if err := ShardServer(0, nil).ListenAndServe(context.Background(), "127.0.0.1:0"); err != nil {
			fmt.Fprintln(os.Stderr, "shard daemon:", err)
			os.Exit(1)
		}
		os.Exit(0)
	case os.Getenv("REPRO_SHARD_COORDINATOR") == "1":
		runSlowCoordinator()
	}
	os.Exit(m.Run())
}

// daemonCmd re-execs the test binary as a worker daemon (see TestMain).
func daemonCmd(ctx context.Context, extraEnv ...string) *exec.Cmd {
	exe, err := os.Executable()
	if err != nil {
		exe = os.Args[0]
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), append([]string{"REPRO_SHARD_DAEMON=1"}, extraEnv...)...)
	return cmd
}

func selfWorker(t *testing.T, extraEnv ...string) func(context.Context) *exec.Cmd {
	t.Helper()
	return func(ctx context.Context) *exec.Cmd { return daemonCmd(ctx, extraEnv...) }
}

// inProcess runs a matrix on a fresh 30-job small case through the
// given in-process executor and returns the normalized manifest — the
// reference an out-of-process run must match.
func inProcess(t *testing.T, exec Executor, m TaskMatrix) []byte {
	t.Helper()
	cs := smallCase()
	cs.Workload.N = 30
	mf, err := exec.Execute(context.Background(), cs, m)
	if err != nil {
		t.Fatal(err)
	}
	return normalizedJSON(t, mf)
}

// normalizedJSON renders a manifest with the fields that legitimately
// differ between execution strategies — wall-clock times, worker
// accounting and remote provenance — zeroed, so equality is a byte
// comparison of everything that must be deterministic.
func normalizedJSON(t *testing.T, m *records.RunManifest) []byte {
	t.Helper()
	c := *m
	c.Label = ""
	c.Workers = 0
	c.Runs = append([]records.RunSummary(nil), m.Runs...)
	for i := range c.Runs {
		c.Runs[i].WallMS = 0
		c.Runs[i].Host = ""
		c.Runs[i].Attempt = 0
	}
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShardedReplicateMatchesInProcess is the executor's core
// guarantee on the cheap path: for fixed seeds the merged sharded
// manifest is byte-identical (wall times aside) to the in-process
// parallel manifest and to the sequential one, for 1, 2 and 4 shards.
func TestShardedReplicateMatchesInProcess(t *testing.T) {
	matrix := TaskMatrix{Kind: "replicate", Mode: "speed", Seeds: []int64{1, 2, 3, 4, 5, 6}}
	seq := inProcess(t, Sequential{}, matrix)
	if par := inProcess(t, Parallel{Options: ExecOptions{Workers: 4}}, matrix); !bytes.Equal(seq, par) {
		t.Fatalf("parallel manifest diverges from sequential:\n%s\n%s", seq, par)
	}
	for _, shards := range []int{1, 2, 4} {
		cs := smallCase()
		cs.Workload.N = 30
		m, err := Sharded{Options: ShardOptions{Shards: shards, Command: selfWorker(t)}}.Execute(context.Background(), cs, matrix)
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		if got := normalizedJSON(t, m); !bytes.Equal(seq, got) {
			t.Fatalf("%d-shard manifest diverges from sequential:\n%s\n%s", shards, got, seq)
		}
	}
}

// TestShardedRunAllMatchesInProcess proves the four-strategy Table 2
// fan-out — including the rlbase task, whose PPO policy every worker
// process retrains independently from the spec's seeds — is
// bit-identical across sequential, parallel and 1/2/4-shard execution.
func TestShardedRunAllMatchesInProcess(t *testing.T) {
	matrix := TaskMatrix{Kind: "modes"}
	seq := inProcess(t, Sequential{}, matrix)
	if par := inProcess(t, Parallel{Options: ExecOptions{Workers: 4}}, matrix); !bytes.Equal(seq, par) {
		t.Fatalf("parallel manifest diverges from sequential:\n%s\n%s", seq, par)
	}
	for _, shards := range []int{1, 2, 4} {
		cs := smallCase()
		cs.Workload.N = 30
		m, err := Sharded{Options: ShardOptions{Shards: shards, Command: selfWorker(t)}}.Execute(context.Background(), cs, matrix)
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		if m.Label != "modes" || len(m.Runs) != len(Modes) {
			t.Fatalf("%d shards: manifest %q with %d rows", shards, m.Label, len(m.Runs))
		}
		if got := normalizedJSON(t, m); !bytes.Equal(seq, got) {
			t.Fatalf("%d-shard manifest diverges from sequential (cross-process rlbase training not deterministic?):\n%s\n%s", shards, got, seq)
		}
	}
}

// TestShardedSweepMatchesInProcess covers the sweep mutate path: the
// swept parameter must survive the spec round-trip into each worker.
func TestShardedSweepMatchesInProcess(t *testing.T) {
	matrix := TaskMatrix{Kind: "phi-sweep", Mode: "speed", Values: []float64{0.9, 0.95, 1.0}}
	want := inProcess(t, Parallel{Options: ExecOptions{Workers: 3}}, matrix)
	cs := smallCase()
	cs.Workload.N = 30
	m, err := Sharded{Options: ShardOptions{Shards: 2, Command: selfWorker(t)}}.Execute(context.Background(), cs, matrix)
	if err != nil {
		t.Fatal(err)
	}
	if got := normalizedJSON(t, m); !bytes.Equal(want, got) {
		t.Fatalf("sharded sweep diverges:\n%s\n%s", got, want)
	}
}

// TestShardedWorkerCrashIsRetried injects the env-var-triggered
// self-kill: one worker dies after streaming a single result, the
// coordinator requeues the unfinished remainder on a fresh process, and
// the merged manifest ends up with every task exactly once.
func TestShardedWorkerCrashIsRetried(t *testing.T) {
	flag := filepath.Join(t.TempDir(), "crash-once")
	seeds := []int64{1, 2, 3, 4, 5, 6}
	cs := smallCase()
	cs.Workload.N = 30
	var mu sync.Mutex
	retries := 0
	opt := ShardOptions{
		ExecOptions: ExecOptions{Retries: 2},
		Shards:      2,
		Command:     selfWorker(t, "EXPERIMENTS_SHARD_CRASH_ONCE="+flag),
		OnEvent: func(p shard.Progress) {
			mu.Lock()
			if p.Event == "retry" {
				retries++
			}
			mu.Unlock()
		},
	}
	matrix := TaskMatrix{Kind: "replicate", Mode: "speed", Seeds: seeds}
	m, err := Sharded{Options: opt}.Execute(context.Background(), cs, matrix)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(flag); err != nil {
		t.Fatalf("crash flag never created — the fault was not injected: %v", err)
	}
	if retries != 1 {
		t.Fatalf("%d retries observed, want exactly 1", retries)
	}
	if len(m.Runs) != len(seeds) {
		t.Fatalf("%d manifest rows, want %d", len(m.Runs), len(seeds))
	}
	for i, r := range m.Runs {
		want := fmt.Sprintf("replicate/speed/seed%d", seeds[i])
		if r.ID != want {
			t.Fatalf("row %d = %q, want %q: duplicate or misordered artifact after retry", i, r.ID, want)
		}
	}
	// The crashed-and-retried manifest must still equal the in-process
	// run: fault recovery may not change results.
	if want := inProcess(t, Parallel{Options: ExecOptions{Workers: 2}}, matrix); !bytes.Equal(want, normalizedJSON(t, m)) {
		t.Fatal("manifest after crash+retry diverges from in-process run")
	}
}

// TestShardedWorkerCrashExhaustsRetries: when every spawned worker
// dies, the bounded retry budget runs out and the root cause — a
// mid-shard crash — surfaces in the error.
func TestShardedWorkerCrashExhaustsRetries(t *testing.T) {
	cs := smallCase()
	cs.Workload.N = 30
	opt := ShardOptions{
		ExecOptions: ExecOptions{Retries: 1},
		Shards:      2,
		Command:     selfWorker(t, "EXPERIMENTS_SHARD_CRASH_ALWAYS=1"),
	}
	_, err := Sharded{Options: opt}.Execute(context.Background(), cs, TaskMatrix{Kind: "replicate", Mode: "speed", Seeds: []int64{1, 2, 3, 4, 5, 6}})
	if err == nil {
		t.Fatal("run with permanently crashing workers succeeded")
	}
	msg := err.Error()
	if !strings.Contains(msg, "died mid-shard") || !strings.Contains(msg, "attempt") {
		t.Fatalf("err = %v, want the crash root cause and attempt count", err)
	}
}

// TestShardedRejectsBadMatrix: planning errors surface before any
// worker process is spawned.
func TestShardedRejectsBadMatrix(t *testing.T) {
	cs := smallCase()
	spawned := false
	unspawned := Sharded{Options: ShardOptions{Command: func(ctx context.Context) *exec.Cmd {
		spawned = true
		return exec.CommandContext(ctx, os.Args[0])
	}}}
	ctx := context.Background()
	if _, err := unspawned.Execute(ctx, cs, TaskMatrix{Kind: "replicate", Mode: "warp", Seeds: []int64{1}}); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if _, err := unspawned.Execute(ctx, cs, TaskMatrix{Kind: "replicate", Mode: "speed"}); err == nil {
		t.Fatal("empty seed list accepted")
	}
	// Duplicate seeds produce duplicate task IDs, which the merge would
	// only reject after all the compute is spent — they must fail here.
	if _, err := unspawned.Execute(ctx, cs, TaskMatrix{Kind: "replicate", Mode: "speed", Seeds: []int64{1, 1}}); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("duplicate seeds: err = %v, want pre-spawn rejection", err)
	}
	// An injected policy never reaches worker processes; rlbase matrices
	// must be rejected rather than silently retrained.
	injected := smallCase()
	injected.UseTrainedPolicy(rl.NewGaussianPolicy(rand.New(rand.NewSource(1)), 4, 2, 8))
	if _, err := unspawned.Execute(ctx, injected, TaskMatrix{Kind: "modes"}); err == nil || !strings.Contains(err.Error(), "UseTrainedPolicy") {
		t.Fatalf("injected policy: err = %v, want rejection naming UseTrainedPolicy", err)
	}
	injected.Workload.N = 30
	spawning := Sharded{Options: ShardOptions{Shards: 2, Command: selfWorker(t)}}
	if _, err := spawning.Execute(ctx, injected, TaskMatrix{Kind: "replicate", Mode: "speed", Seeds: []int64{1, 2}}); err != nil {
		t.Fatalf("injected policy must not block rlbase-free matrices: %v", err)
	}
	if spawned {
		t.Fatal("worker spawned for an invalid matrix")
	}
}
