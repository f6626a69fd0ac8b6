// Package runner is the parallel execution substrate for the experiment
// harness: a generic worker pool that fans independent simulation tasks
// out across CPUs while keeping results in submission order, so a
// parallel sweep is bit-identical to its sequential counterpart.
//
// The pool is deliberately ignorant of simulations: tasks are closures.
// Determinism therefore lives entirely with the caller — each task must
// derive every random stream from seeds captured in the task itself,
// never from shared mutable state. internal/experiments builds its
// tasks from per-task CaseStudy snapshots for exactly this reason.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Task is one independent unit of work producing a T.
type Task[T any] struct {
	// Label identifies the task in progress reports and errors,
	// e.g. "mode/speed" or "phi/0.95".
	Label string
	// Run executes the task. It should honor ctx cancellation where
	// practical; the pool also stops dispatching queued tasks as soon
	// as any task fails or ctx is cancelled.
	Run func(ctx context.Context) (T, error)
}

// Progress describes one finished task. Done counts completed tasks
// including this one. On a fully successful run the last report has
// Done == Total; after a failure or cancellation the pool stops
// dispatching, so Done may never reach Total — don't use it to detect
// completion, use Pool.Run returning.
type Progress struct {
	Index int // position in the submitted task slice
	Label string
	Err   error
	Wall  time.Duration
	Done  int
	Total int
}

// Pool executes tasks across a fixed number of workers.
type Pool[T any] struct {
	// Workers caps concurrent tasks; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// OnProgress, if set, is called once per finished task. Calls are
	// serialized; the callback must not block for long and must not
	// re-enter the pool.
	OnProgress func(Progress)
}

// Run executes every task and returns the results in task order. On the
// first failure it cancels the shared context, stops handing out queued
// tasks, waits for in-flight tasks, and returns the error of the
// lowest-indexed observed failure wrapped with its label. Cancellation
// errors from sibling tasks unblocked by that cancel never mask the
// root cause: a non-cancellation failure always wins. When every
// failure is cancellation fallout (e.g. the caller's ctx was cancelled
// externally), Run returns ctx.Err(). A cancellation that arrives only
// after every task has already succeeded is ignored: Run returns the
// complete results.
func (p *Pool[T]) Run(ctx context.Context, tasks []Task[T]) ([]T, error) {
	if len(tasks) == 0 {
		return nil, nil
	}
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]T, len(tasks))
	var (
		mu        sync.Mutex
		done      int
		failIdx   = -1 // lowest-indexed real (non-cancellation) failure
		failErr   error
		cancelIdx = -1 // lowest-indexed cancellation-fallout failure
		cancelErr error
	)

	idxCh := make(chan int)
	go func() {
		defer close(idxCh)
		for i := range tasks {
			//lint:allow detlint work handout vs. cancellation: each index reaches exactly one worker, and result order is fixed by index afterward
			select {
			case idxCh <- i:
			case <-ctx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				if ctx.Err() != nil {
					return
				}
				//lint:allow detlint wall-clock task timing is manifest metadata about the host, not simulation state
				start := time.Now()
				v, err := tasks[i].Run(ctx)
				wall := time.Since(start)
				mu.Lock()
				if err != nil {
					// Sibling tasks unblocked by cancel() report
					// context errors; track them apart so fallout
					// never masks the root-cause failure.
					if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
						if cancelIdx == -1 || i < cancelIdx {
							cancelIdx, cancelErr = i, err
						}
					} else if failIdx == -1 || i < failIdx {
						failIdx, failErr = i, err
					}
					cancel()
				} else {
					results[i] = v
				}
				done++
				if p.OnProgress != nil {
					p.OnProgress(Progress{
						Index: i, Label: tasks[i].Label, Err: err,
						Wall: wall, Done: done, Total: len(tasks),
					})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	if failErr != nil {
		return nil, fmt.Errorf("runner: task %q: %w", tasks[failIdx].Label, failErr)
	}
	// A cancellation that loses the photo finish — every task already
	// completed successfully — does not void the run: the results are
	// whole, so return them. This makes the finish-vs-cancel race
	// deterministic in outcome (either full results or a bare context
	// error, never a mix) instead of depending on which side the
	// parent.Err() check below lands.
	if done == len(tasks) && cancelErr == nil {
		return results, nil
	}
	// The caller's own cancellation surfaces bare; checking the parent
	// (not the derived ctx, which every failure path cancels) keeps a
	// task's internal context error — e.g. its own deadline — labeled
	// with the task and its true identity.
	if err := parent.Err(); err != nil {
		return nil, err
	}
	if cancelErr != nil {
		return nil, fmt.Errorf("runner: task %q: %w", tasks[cancelIdx].Label, cancelErr)
	}
	return results, nil
}
