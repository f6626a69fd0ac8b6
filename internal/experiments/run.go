package experiments

import (
	"context"
	"fmt"
	"runtime"
	"strings"

	"repro/internal/experiments/runner"
	"repro/internal/records"
)

// ExecOptions carries the orchestration knobs of a run. The zero value
// runs on the default pool.
type ExecOptions struct {
	// Workers caps concurrent simulations; <= 0 uses GOMAXPROCS, and 1
	// runs the tasks one at a time.
	Workers int
	// OnProgress, if set, receives one callback per finished task.
	OnProgress func(runner.Progress)
}

// Run executes a declarative spec and returns the combined manifest,
// rows in spec order. This is the experiments API: it materializes the
// spec's case study and runs its matrices through ExecuteAll. Callers
// that already hold a configured (or trained) CaseStudy call
// ExecuteAll or Execute directly.
//
// For fixed seeds the manifest is identical whatever the pool size
// (wall times and worker accounting aside): every run expands the same
// matrices into the same task list, and every task derives its random
// streams from seeds the spec pins.
func Run(ctx context.Context, spec Spec, opt ExecOptions) (*records.RunManifest, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cs, err := spec.CaseStudy()
	if err != nil {
		return nil, err
	}
	return ExecuteAll(ctx, cs, spec.Label(), spec.runMatrices(), opt)
}

// ExecuteAll runs the matrices in order on one case study into one
// manifest labelled label.
func ExecuteAll(ctx context.Context, cs *CaseStudy, label string, matrices []TaskMatrix, opt ExecOptions) (*records.RunManifest, error) {
	out := &records.RunManifest{Label: label}
	for _, m := range matrices {
		mf, err := Execute(ctx, cs, m, opt)
		if err != nil {
			return nil, wrapError(err, "%s", m.Label())
		}
		// Every matrix resolves the same pool size; keep it rather
		// than summing repeats.
		out.Workers = mf.Workers
		out.Runs = append(out.Runs, mf.Runs...)
	}
	return out, nil
}

// Execute runs every task of one matrix and returns the manifest rows
// in task order: expand the matrix, train the rlbase policy up front
// when any task needs it (so worker snapshots share identical cloned
// weights), and run the tasks through the pool, each of which returns
// its manifest row.
func Execute(ctx context.Context, cs *CaseStudy, m TaskMatrix, opt ExecOptions) (*records.RunManifest, error) {
	specs, err := m.specs()
	if err != nil {
		return nil, err
	}
	if err := cs.ensureTrained(m.modes()...); err != nil {
		return nil, fmt.Errorf("experiments: training rlbase: %w", err)
	}
	tasks := make([]runner.Task[records.RunSummary], len(specs))
	for i, spec := range specs {
		tasks[i] = cs.task(spec)
	}
	pool := runner.Pool[records.RunSummary]{Workers: opt.Workers, OnProgress: opt.OnProgress}
	rows, err := pool.Run(ctx, tasks)
	if err != nil {
		return nil, err
	}
	workers := opt.Workers
	if workers <= 0 {
		// Record the resolved pool cap, not the 0 sentinel, so the
		// manifest states the run's actual concurrency budget.
		workers = runtime.GOMAXPROCS(0)
	}
	return &records.RunManifest{Label: m.Label(), Workers: workers, Runs: rows}, nil
}

// wrapError puts context after the package prefix of err: the message
// is "experiments: <context>: " and err's own, the prefix it carries
// when it comes from this package taken off, so the package is named
// once. errors.Is and errors.As see err.
func wrapError(err error, format string, args ...any) error {
	return &contextError{context: fmt.Sprintf(format, args...), err: err}
}

type contextError struct {
	context string
	err     error
}

func (e *contextError) Error() string {
	return "experiments: " + e.context + ": " + strings.TrimPrefix(e.err.Error(), "experiments: ")
}

func (e *contextError) Unwrap() error { return e.err }
