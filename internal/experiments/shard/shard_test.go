package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/records"
)

// ProcessTransport needs real worker daemon subprocesses. Re-exec the
// test binary: when SHARD_TEST_DAEMON=1, TestMain serves scriptedRun as
// a loopback daemon instead of running tests — the same main loop the
// experiments binary runs for `-serve 127.0.0.1:0`.
func TestMain(m *testing.M) {
	if os.Getenv("SHARD_TEST_DAEMON") == "1" {
		if err := (&Server{Run: scriptedRun}).ListenAndServe(context.Background(), "127.0.0.1:0"); err != nil {
			fmt.Fprintln(os.Stderr, "shard test daemon:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// testSpec scripts the re-exec'd worker: which task fails, when the
// process self-kills, and how results are derived from indices.
type testSpec struct {
	// FailAt makes the task with this global index return an error
	// (-1: none) — the deliberate, non-retryable failure class.
	FailAt int `json:"fail_at"`
	// CrashAt self-kills the process after emitting this many results
	// (-1: never) — the retryable failure class.
	CrashAt int `json:"crash_at"`
	// CrashFlag, when set, arms CrashAt only for the process that
	// creates this file first, so a respawned worker runs clean.
	CrashFlag string `json:"crash_flag,omitempty"`
	// SleepMS stalls each task, for cancellation tests.
	SleepMS int `json:"sleep_ms"`
	// Scale derives each task's TsimS as index*Scale, so the
	// coordinator can verify rows came from the right tasks.
	Scale float64 `json:"scale"`
}

func scriptedRun(ctx context.Context, raw []byte, indices []int, labels []string, emit func(int, records.RunSummary) error) error {
	var spec testSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return err
	}
	armed := spec.CrashAt >= 0
	if armed && spec.CrashFlag != "" {
		f, err := os.OpenFile(spec.CrashFlag, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err != nil {
			armed = false // another process crashed already; run clean
		} else {
			f.Close()
		}
	}
	if armed && spec.CrashAt == 0 {
		os.Exit(3)
	}
	for j, idx := range indices {
		if spec.SleepMS > 0 {
			select {
			case <-time.After(time.Duration(spec.SleepMS) * time.Millisecond):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		if idx == spec.FailAt {
			return fmt.Errorf("task %s exploded", labels[j])
		}
		if err := emit(idx, records.RunSummary{ID: labels[j], Kind: "shard-test", Mode: "test", TsimS: float64(idx) * spec.Scale}); err != nil {
			return err
		}
		if armed && j+1 >= spec.CrashAt {
			os.Exit(3)
		}
	}
	return nil
}

func specJSON(t *testing.T, s testSpec) json.RawMessage {
	t.Helper()
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// procTransport spawns one re-exec'd test daemon per shard attempt.
func procTransport(t *testing.T) *ProcessTransport {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return &ProcessTransport{Command: func(ctx context.Context) *exec.Cmd {
		cmd := exec.CommandContext(ctx, exe)
		cmd.Env = append(os.Environ(), "SHARD_TEST_DAEMON=1")
		return cmd
	}}
}

func taskLabels(n int) []string {
	labels := make([]string, n)
	for i := range labels {
		labels[i] = fmt.Sprintf("t/%d", i)
	}
	return labels
}

func TestCoordinatorHappyPath(t *testing.T) {
	var mu sync.Mutex
	events := map[string]int{}
	c := Coordinator{
		Shards:    3,
		Transport: procTransport(t),
		OnProgress: func(p Progress) {
			mu.Lock()
			events[p.Event]++
			mu.Unlock()
		},
	}
	spec := specJSON(t, testSpec{FailAt: -1, CrashAt: -1, Scale: 2})
	m, err := c.Run(context.Background(), "happy", spec, taskLabels(10))
	if err != nil {
		t.Fatal(err)
	}
	if m.Label != "happy" || len(m.Runs) != 10 {
		t.Fatalf("manifest = %q with %d rows, want happy/10", m.Label, len(m.Runs))
	}
	for i, r := range m.Runs {
		if r.ID != fmt.Sprintf("t/%d", i) || r.TsimS != float64(i)*2 {
			t.Fatalf("row %d = {%s %g}, want {t/%d %g}: global order not restored", i, r.ID, r.TsimS, i, float64(i)*2)
		}
	}
	if m.Workers != 3 {
		t.Fatalf("merged workers = %d, want 3 (one per shard)", m.Workers)
	}
	if events["spawn"] != 3 || events["done"] != 3 || events["result"] != 10 || events["retry"] != 0 {
		t.Fatalf("events = %v, want 3 spawns, 3 dones, 10 results, 0 retries", events)
	}
}

func TestCoordinatorSingleShardMatchesMany(t *testing.T) {
	spec := specJSON(t, testSpec{FailAt: -1, CrashAt: -1, Scale: 3})
	labels := taskLabels(7)
	one, err := (&Coordinator{Shards: 1, Transport: procTransport(t)}).Run(context.Background(), "x", spec, labels)
	if err != nil {
		t.Fatal(err)
	}
	many, err := (&Coordinator{Shards: 4, Transport: procTransport(t)}).Run(context.Background(), "x", spec, labels)
	if err != nil {
		t.Fatal(err)
	}
	one.Workers, many.Workers = 0, 0
	var a, b bytes.Buffer
	if err := one.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := many.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("1-shard and 4-shard manifests diverge:\n%s\n%s", a.String(), b.String())
	}
}

func TestCoordinatorTaskErrorFailsWithoutRetry(t *testing.T) {
	var mu sync.Mutex
	retries := 0
	quiet := procTransport(t)
	quiet.Stderr = io.Discard // the worker's own error report is expected noise
	c := Coordinator{
		Shards:    2,
		Transport: quiet,
		OnProgress: func(p Progress) {
			mu.Lock()
			if p.Event == "retry" {
				retries++
			}
			mu.Unlock()
		},
	}
	spec := specJSON(t, testSpec{FailAt: 4, CrashAt: -1})
	_, err := c.Run(context.Background(), "fail", spec, taskLabels(8))
	if err == nil || !strings.Contains(err.Error(), "t/4 exploded") {
		t.Fatalf("err = %v, want the worker's root cause surfaced", err)
	}
	if retries != 0 {
		t.Fatalf("%d retries for a deliberate task error; deterministic failures must not be retried", retries)
	}
}

func TestCoordinatorCrashIsRetriedOnRemainder(t *testing.T) {
	var mu sync.Mutex
	var retries int
	c := Coordinator{
		Shards:    2,
		Transport: procTransport(t),
		OnProgress: func(p Progress) {
			mu.Lock()
			if p.Event == "retry" {
				retries++
			}
			mu.Unlock()
		},
	}
	flag := filepath.Join(t.TempDir(), "crashed")
	// The first worker to grab the flag file dies after streaming two
	// results; its respawn (and the other shard) run clean.
	spec := specJSON(t, testSpec{FailAt: -1, CrashAt: 2, CrashFlag: flag, Scale: 1})
	m, err := c.Run(context.Background(), "crashy", spec, taskLabels(9))
	if err != nil {
		t.Fatal(err)
	}
	if retries != 1 {
		t.Fatalf("%d retries, want exactly 1", retries)
	}
	if _, err := os.Stat(flag); err != nil {
		t.Fatalf("crash flag missing — fault was never injected: %v", err)
	}
	if len(m.Runs) != 9 {
		t.Fatalf("%d rows after crash+retry, want 9", len(m.Runs))
	}
	for i, r := range m.Runs {
		if r.ID != fmt.Sprintf("t/%d", i) {
			t.Fatalf("row %d = %s: merge produced wrong order after retry", i, r.ID)
		}
	}
}

func TestCoordinatorCrashExhaustsRetries(t *testing.T) {
	c := Coordinator{
		Shards:    2,
		Retries:   1,
		Transport: procTransport(t),
	}
	// Every attempt dies before emitting anything: retries cannot help.
	spec := specJSON(t, testSpec{FailAt: -1, CrashAt: 0})
	_, err := c.Run(context.Background(), "doomed", spec, taskLabels(6))
	if err == nil {
		t.Fatal("endlessly crashing worker succeeded")
	}
	msg := err.Error()
	if !strings.Contains(msg, "2 worker attempt(s)") || !strings.Contains(msg, "died mid-shard") {
		t.Fatalf("err = %v, want attempts count and crash root cause", err)
	}
}

func TestCoordinatorCancellationKillsWorkers(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c := Coordinator{Shards: 2, Transport: procTransport(t)}
	spec := specJSON(t, testSpec{FailAt: -1, CrashAt: -1, SleepMS: 5000})
	done := make(chan error, 1)
	go func() {
		_, err := c.Run(ctx, "cancelled", spec, taskLabels(4))
		done <- err
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation did not reach the worker processes")
	}
}

func TestCoordinatorRequiresTransport(t *testing.T) {
	if _, err := (&Coordinator{}).Run(context.Background(), "x", nil, taskLabels(1)); err == nil || !strings.Contains(err.Error(), "Transport") {
		t.Fatalf("missing Transport: err = %v, want rejection naming Transport", err)
	}
}

func TestCoordinatorEmptyTaskList(t *testing.T) {
	m, err := (&Coordinator{Transport: procTransport(t)}).Run(context.Background(), "empty", nil, nil)
	if err != nil || len(m.Runs) != 0 {
		t.Fatalf("empty run = %v, %v", m, err)
	}
}

func TestPlan(t *testing.T) {
	cases := []struct{ n, k, shards int }{
		{10, 3, 3}, {10, 1, 1}, {3, 8, 3}, {1, 1, 1}, {5, 0, 1}, {4, -2, 1},
	}
	for _, c := range cases {
		plan := Plan(c.n, c.k)
		if len(plan) != c.shards {
			t.Fatalf("Plan(%d,%d) = %d shards, want %d", c.n, c.k, len(plan), c.shards)
		}
		next, min, max := 0, c.n, 0
		for _, shard := range plan {
			if len(shard) < min {
				min = len(shard)
			}
			if len(shard) > max {
				max = len(shard)
			}
			for _, i := range shard {
				if i != next {
					t.Fatalf("Plan(%d,%d) not contiguous at %d", c.n, c.k, i)
				}
				next++
			}
		}
		if next != c.n {
			t.Fatalf("Plan(%d,%d) covered %d tasks", c.n, c.k, next)
		}
		if max-min > 1 {
			t.Fatalf("Plan(%d,%d) unbalanced: sizes in [%d,%d]", c.n, c.k, min, max)
		}
	}
	if Plan(0, 4) != nil {
		t.Fatal("Plan(0,4) != nil")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := order{Spec: json.RawMessage(`{"a":1}`), Indices: []int{3, 1}, Labels: []string{"x", "y"}}
	if err := writeFrame(&buf, want); err != nil {
		t.Fatal(err)
	}
	var got order
	if err := readFrame(&buf, &got); err != nil {
		t.Fatal(err)
	}
	if string(got.Spec) != `{"a":1}` || len(got.Indices) != 2 || got.Indices[0] != 3 || got.Labels[1] != "y" {
		t.Fatalf("round trip = %+v", got)
	}
	if err := readFrame(&buf, &got); err != io.EOF {
		t.Fatalf("empty stream read = %v, want io.EOF", err)
	}
}

func TestFrameTruncationIsUnexpectedEOF(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, reply{Type: msgDone}); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-2]
	var rep reply
	if err := readFrame(bytes.NewReader(cut), &rep); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated frame read = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestFrameLengthLimit(t *testing.T) {
	var hdr bytes.Buffer
	if err := writeFrame(&hdr, reply{Type: msgDone}); err != nil {
		t.Fatal(err)
	}
	raw := hdr.Bytes()
	raw[0], raw[1], raw[2], raw[3] = 0xff, 0xff, 0xff, 0xff
	var rep reply
	if err := readFrame(bytes.NewReader(raw), &rep); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized frame read = %v, want limit error", err)
	}
}
