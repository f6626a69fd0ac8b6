package experiments

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/experiments/runner"
	"repro/internal/records"
)

// Executor is the pluggable execution backend behind Run, and the only
// way to run a task matrix: it receives a fully configured case study
// plus one task matrix and returns the manifest rows in global task
// order. Both built-ins — Sequential and Parallel — are bit-identical
// for fixed seeds (wall times aside), because they expand the same
// matrix through the same enumeration and every task runs on a private
// snapshot seeded only from the case study's configuration.
type Executor interface {
	// Name identifies the backend in logs and errors.
	Name() string
	// Execute runs every task of the matrix and returns the manifest.
	Execute(ctx context.Context, cs *CaseStudy, m TaskMatrix) (*records.RunManifest, error)
}

// Sequential executes the matrix one task at a time in-process — the
// reference backend Parallel is measured against.
type Sequential struct {
	// Options' Workers is ignored (forced to 1); OnProgress applies.
	Options ExecOptions
}

// Name implements Executor.
func (Sequential) Name() string { return "sequential" }

// Execute implements Executor.
func (e Sequential) Execute(ctx context.Context, cs *CaseStudy, m TaskMatrix) (*records.RunManifest, error) {
	opt := e.Options
	opt.Workers = 1
	return runMatrixManifest(ctx, cs, m, opt)
}

// Parallel executes the matrix across an in-process worker pool.
type Parallel struct {
	Options ExecOptions
}

// Name implements Executor.
func (Parallel) Name() string { return "parallel" }

// Execute implements Executor.
func (e Parallel) Execute(ctx context.Context, cs *CaseStudy, m TaskMatrix) (*records.RunManifest, error) {
	return runMatrixManifest(ctx, cs, m, e.Options)
}

// runMatrixManifest is the shared in-process backend: expand the
// matrix, train the rlbase policy up front when any task needs it (so
// worker snapshots share identical cloned weights), run the tasks
// through the pool, and flatten the artifacts to manifest rows.
func runMatrixManifest(ctx context.Context, cs *CaseStudy, m TaskMatrix, opt ExecOptions) (*records.RunManifest, error) {
	specs, err := m.specs()
	if err != nil {
		return nil, err
	}
	if err := cs.ensureTrained(m.modes()...); err != nil {
		return nil, fmt.Errorf("experiments: training rlbase: %w", err)
	}
	tasks := make([]runner.Task[RunArtifact], len(specs))
	for i, spec := range specs {
		tasks[i] = cs.task(spec)
	}
	pool := runner.Pool[RunArtifact]{Workers: opt.Workers, OnProgress: opt.OnProgress}
	arts, err := pool.Run(ctx, tasks)
	if err != nil {
		return nil, err
	}
	workers := opt.Workers
	if workers <= 0 {
		// Record the resolved pool cap, not the 0 sentinel, so the
		// manifest states the run's actual concurrency budget.
		workers = runtime.GOMAXPROCS(0)
	}
	out := &records.RunManifest{Label: m.Label(), Workers: workers, Runs: make([]records.RunSummary, 0, len(arts))}
	for i := range arts {
		out.Runs = append(out.Runs, arts[i].Summary())
	}
	return out, nil
}
