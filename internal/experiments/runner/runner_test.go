package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func squares(n int) []Task[int] {
	tasks := make([]Task[int], n)
	for i := range tasks {
		tasks[i] = Task[int]{
			Label: fmt.Sprintf("sq/%d", i),
			Run: func(context.Context) (int, error) {
				return i * i, nil
			},
		}
	}
	return tasks
}

func TestPoolPreservesTaskOrder(t *testing.T) {
	p := Pool[int]{Workers: 4}
	got, err := p.Run(context.Background(), squares(37))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result %d = %d, want %d", i, v, i*i)
		}
	}
}

func TestPoolSingleWorkerMatchesParallel(t *testing.T) {
	seq, err := (&Pool[int]{Workers: 1}).Run(context.Background(), squares(20))
	if err != nil {
		t.Fatal(err)
	}
	par, err := (&Pool[int]{Workers: 8}).Run(context.Background(), squares(20))
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("result %d: sequential %d != parallel %d", i, seq[i], par[i])
		}
	}
}

func TestPoolEmptyTasks(t *testing.T) {
	got, err := (&Pool[int]{}).Run(context.Background(), nil)
	if err != nil || got != nil {
		t.Fatalf("empty run: %v, %v", got, err)
	}
}

func TestPoolErrorPropagatesAndCancels(t *testing.T) {
	boom := errors.New("boom")
	var ran int32
	tasks := make([]Task[int], 50)
	for i := range tasks {
		tasks[i] = Task[int]{
			Label: fmt.Sprintf("t/%d", i),
			Run: func(context.Context) (int, error) {
				atomic.AddInt32(&ran, 1)
				if i == 3 {
					return 0, boom
				}
				return i, nil
			},
		}
	}
	// One worker makes the cut deterministic: tasks 0–3 run, task 3
	// fails, and the cancelled context stops dispatch before task 4.
	p := Pool[int]{Workers: 1}
	_, err := p.Run(context.Background(), tasks)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if n := atomic.LoadInt32(&ran); n != 4 {
		t.Fatalf("%d tasks ran, want exactly 4 (failure cancels remaining dispatch)", n)
	}
}

func TestPoolErrorNamesFailedTask(t *testing.T) {
	tasks := []Task[int]{
		{Label: "ok", Run: func(context.Context) (int, error) { return 1, nil }},
		{Label: "bad", Run: func(context.Context) (int, error) { return 0, errors.New("nope") }},
	}
	_, err := (&Pool[int]{Workers: 1}).Run(context.Background(), tasks)
	if err == nil || !strings.Contains(err.Error(), `"bad"`) {
		t.Fatalf("err = %v, want label %q mentioned", err, "bad")
	}
}

func TestPoolErrorUnblocksCtxAwareTasks(t *testing.T) {
	rootCause := errors.New("fail fast")
	// The blocker sits at a LOWER index than the failer: when the
	// failure cancels it, its context.Canceled must not mask the root
	// cause despite winning on index order.
	tasks := []Task[int]{
		{Label: "blocker", Run: func(ctx context.Context) (int, error) {
			<-ctx.Done() // released by the sibling's failure
			return 0, ctx.Err()
		}},
		{Label: "failer", Run: func(context.Context) (int, error) {
			return 0, rootCause
		}},
	}
	done := make(chan error, 1)
	go func() {
		_, err := (&Pool[int]{Workers: 2}).Run(context.Background(), tasks)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, rootCause) {
			t.Fatalf("err = %v, want the root cause %v", err, rootCause)
		}
		if !strings.Contains(err.Error(), `"failer"`) {
			t.Fatalf("err = %v, want the failing task named", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pool deadlocked: failure did not cancel the blocked task")
	}
}

// TestPoolTaskInternalDeadlineKeepsIdentity: a task failing with its
// own context error (parent ctx alive) must surface labeled and with
// its true identity, not as the pool's internal context.Canceled.
func TestPoolTaskInternalDeadlineKeepsIdentity(t *testing.T) {
	tasks := []Task[int]{
		{Label: "timeouter", Run: func(context.Context) (int, error) {
			return 0, fmt.Errorf("inner op: %w", context.DeadlineExceeded)
		}},
	}
	_, err := (&Pool[int]{Workers: 1}).Run(context.Background(), tasks)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded identity preserved", err)
	}
	if !strings.Contains(err.Error(), `"timeouter"`) {
		t.Fatalf("err = %v, want the failing task named", err)
	}
}

func TestPoolExternalCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := (&Pool[int]{Workers: 2}).Run(ctx, squares(8))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestPoolProgressReports(t *testing.T) {
	var mu sync.Mutex
	var events []Progress
	p := Pool[int]{
		Workers: 3,
		OnProgress: func(pr Progress) {
			mu.Lock()
			events = append(events, pr)
			mu.Unlock()
		},
	}
	if _, err := p.Run(context.Background(), squares(9)); err != nil {
		t.Fatal(err)
	}
	if len(events) != 9 {
		t.Fatalf("%d progress events, want 9", len(events))
	}
	seen := map[int]bool{}
	for _, e := range events {
		if e.Total != 9 {
			t.Fatalf("Total = %d, want 9", e.Total)
		}
		if e.Done < 1 || e.Done > 9 {
			t.Fatalf("Done = %d out of range", e.Done)
		}
		seen[e.Index] = true
	}
	if len(seen) != 9 {
		t.Fatalf("progress covered %d distinct tasks, want 9", len(seen))
	}
}

// TestPoolCancelRacingLastTask drives the race where the final task
// finishes exactly as the caller's context is cancelled. The outcome
// must be binary: either the complete result set with a nil error, or
// nil results with the bare context.Canceled identity — never partial
// results, never a wrapped or masked error.
func TestPoolCancelRacingLastTask(t *testing.T) {
	for iter := 0; iter < 200; iter++ {
		ctx, cancel := context.WithCancel(context.Background())
		finishing := make(chan struct{})
		tasks := make([]Task[int], 8)
		for i := range tasks {
			tasks[i] = Task[int]{
				Label: fmt.Sprintf("race/%d", i),
				Run: func(context.Context) (int, error) {
					if i == len(tasks)-1 {
						close(finishing) // signal: last task is returning now
					}
					return i * i, nil
				},
			}
		}
		go func() {
			<-finishing
			cancel() // races the last task's result bookkeeping
		}()
		got, err := (&Pool[int]{Workers: 2}).Run(ctx, tasks)
		switch {
		case err == nil:
			for i, v := range got {
				if v != i*i {
					t.Fatalf("iter %d: result %d = %d, want %d (partial write)", iter, i, v, i*i)
				}
			}
		case err == context.Canceled: // identity, not just errors.Is
			if got != nil {
				t.Fatalf("iter %d: results %v alongside error %v", iter, got, err)
			}
		default:
			t.Fatalf("iter %d: err = %#v, want nil or bare context.Canceled", iter, err)
		}
		cancel()
	}
}

// TestPoolCancelAfterAllTasksDone pins the deterministic side of the
// race: when every task has already succeeded, a subsequent cancel must
// not void the run.
func TestPoolCancelAfterAllTasksDone(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ran := make(chan struct{}, 1)
	tasks := []Task[int]{{Label: "only", Run: func(context.Context) (int, error) {
		ran <- struct{}{}
		return 42, nil
	}}}
	p := Pool[int]{Workers: 1, OnProgress: func(Progress) {
		<-ran
		cancel() // by now the task's result is recorded
	}}
	got, err := p.Run(ctx, tasks)
	if err != nil || len(got) != 1 || got[0] != 42 {
		t.Fatalf("Run = %v, %v; want complete results despite late cancel", got, err)
	}
}

// TestPoolTasksOverlap proves tasks genuinely run concurrently (valid
// even on one CPU): four 100ms sleeps across 4 workers must finish in
// well under the 400ms a serial pass needs. The 300ms bound leaves
// 200ms of scheduler slack for loaded CI runners while still ruling
// out serial execution.
func TestPoolTasksOverlap(t *testing.T) {
	tasks := make([]Task[int], 4)
	for i := range tasks {
		tasks[i] = Task[int]{
			Label: fmt.Sprintf("sleep/%d", i),
			Run: func(context.Context) (int, error) {
				time.Sleep(100 * time.Millisecond)
				return i, nil
			},
		}
	}
	start := time.Now()
	if _, err := (&Pool[int]{Workers: 4}).Run(context.Background(), tasks); err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(start); wall > 300*time.Millisecond {
		t.Fatalf("4×100ms tasks took %s; pool is not overlapping work", wall)
	}
}
