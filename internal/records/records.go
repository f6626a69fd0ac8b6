// Package records is the results layer of the reproduction, from
// per-job bookkeeping up to cross-run comparison.
//
// At the bottom sits one per-job lifecycle state machine: it tracks
// job lifecycle events (arrival, start, finish, fidelity — §3) for the
// live jobs and seals each job's row once every earlier admission is
// terminal. A Manager keeps the sealed rows of a batch run and derives
// the evaluation metrics reported in the paper's case study: total
// simulation time, fidelity mean and standard deviation, total
// communication time and wait times. An ExportRecorder writes the same
// per-job CSV as the rows seal, for a streaming broker's -export.
//
// Above it live the run artifacts the experiment harness trades in:
//
//   - RunManifest / RunSummary — one row per executed task (config
//     echo, metrics and wall time), with JSON and CSV writers
//     (WriteJSON, WriteCSV, ReadManifestJSON). RunSummary is also the
//     experiment worker pool's result type, so a row goes from task to
//     file unchanged; one column list (configCols, metricCols) serves
//     the CSV writer and the diff.
//   - DiffManifests — the exact comparison gate: task-by-task metric
//     deltas with optional absolute/relative tolerances (DiffOptions),
//     NaN-equals-NaN semantics, wall times ignored.
//   - AggregateManifests and the significance layer (DiffAggregated,
//     AggregatedDiff) — fold replicated rows into mean/std/stderr/CI
//     per base task and compare runs statistically (Welch's t) rather
//     than exactly.
package records

import (
	"math"
	"sort"
)

// JobStats is one job's row: its lifecycle times and outcome.
type JobStats struct {
	JobID    string
	Arrival  float64
	Start    float64
	Finish   float64
	Fidelity float64
	CommTime float64
	// Devices is the number of QPUs the job was split across.
	Devices int
	// DeviceNames lists the QPUs used, in allocation order.
	DeviceNames []string
	// Source, Remote, and ConnID are the broker's ingest provenance
	// ("stdin"/"tcp"/"http", peer address, connection or request
	// sequence number). Batch-loaded jobs leave them zero; batch-vs-serve
	// record diffs exclude the provenance columns explicitly.
	Source string
	Remote string
	ConnID int64
}

// WaitTime returns time from arrival to execution start.
func (s *JobStats) WaitTime() float64 { return s.Start - s.Arrival }

// Turnaround returns time from arrival to completion.
func (s *JobStats) Turnaround() float64 { return s.Finish - s.Arrival }

// ExecTime returns time from start to completion (processing + comm).
func (s *JobStats) ExecTime() float64 { return s.Finish - s.Start }

// Manager records a batch run: the package's lifecycle state machine
// (Arrival, Start, Finish and Drop, core.StreamRecorder's methods) and
// the finished rows it seals, kept in seal order. Seal order is
// first-admission order, so the CSV export and every aggregate below
// walk the finished jobs in arrival order. A row is reported once it is
// sealed, that is once every job admitted before it is terminal; after
// a completed run that is every finished job.
type Manager struct {
	lifecycle
	// rows holds the sealed finished rows in seal order. They come from
	// the lifecycle's slabs, their DeviceNames from its arena.
	rows []*JobStats
}

// NewManager creates an empty records manager.
func NewManager() *Manager {
	m := &Manager{}
	m.lifecycle = newLifecycle(m.keepRow)
	return m
}

// keepRow appends a sealed row; its entry is never reused.
func (m *Manager) keepRow(s *JobStats) bool {
	m.rows = append(m.rows, s)
	return true
}

// NumFinished returns the count of sealed finished rows.
func (m *Manager) NumFinished() int { return len(m.rows) }

// NumPending returns the live jobs: admitted, neither finished nor
// shed.
func (m *Manager) NumPending() int { return len(m.live) }

// Finished returns the sealed finished rows in first-arrival order, nil
// when there are none. The slice is the Manager's own; callers read it.
func (m *Manager) Finished() []*JobStats { return m.rows[:len(m.rows):len(m.rows)] }

// Fidelities returns final fidelities of all finished jobs, in arrival
// order, nil when none finished.
func (m *Manager) Fidelities() []float64 {
	if len(m.rows) == 0 {
		return nil
	}
	out := make([]float64, len(m.rows))
	for i, s := range m.rows {
		out[i] = s.Fidelity
	}
	return out
}

// FidelityMeanStd returns the mean and (population) standard deviation of
// finished-job fidelities — the paper's μF ± σF.
func (m *Manager) FidelityMeanStd() (mean, std float64) {
	if len(m.rows) == 0 {
		return 0, 0
	}
	for _, s := range m.rows {
		mean += s.Fidelity
	}
	mean /= float64(len(m.rows))
	for _, s := range m.rows {
		d := s.Fidelity - mean
		std += d * d
	}
	std = math.Sqrt(std / float64(len(m.rows)))
	return mean, std
}

// TotalCommTime sums inter-device communication delay across all
// finished jobs — the paper's T_comm.
func (m *Manager) TotalCommTime() float64 {
	total := 0.0
	for _, s := range m.rows {
		total += s.CommTime
	}
	return total
}

// Makespan returns the completion time of the last finished job — the
// paper's T_sim when all jobs complete.
func (m *Manager) Makespan() float64 {
	max := 0.0
	for _, s := range m.rows {
		if s.Finish > max {
			max = s.Finish
		}
	}
	return max
}

// MeanWaitTime averages arrival→start delay over finished jobs.
func (m *Manager) MeanWaitTime() float64 { return m.meanFinished((*JobStats).WaitTime) }

// MeanTurnaround averages arrival→finish over finished jobs.
func (m *Manager) MeanTurnaround() float64 { return m.meanFinished((*JobStats).Turnaround) }

// MeanDevicesPerJob returns the average partition count k across
// finished jobs.
func (m *Manager) MeanDevicesPerJob() float64 {
	return m.meanFinished(func(s *JobStats) float64 { return float64(s.Devices) })
}

// meanFinished averages f over finished jobs, 0 when none finished.
func (m *Manager) meanFinished(f func(*JobStats) float64) float64 {
	if len(m.rows) == 0 {
		return 0
	}
	total := 0.0
	for _, s := range m.rows {
		total += f(s)
	}
	return total / float64(len(m.rows))
}

// DeviceLoadShare returns, per device name, the fraction of finished
// sub-jobs that ran there, sorted by name for determinism.
func (m *Manager) DeviceLoadShare() []DeviceShare {
	counts := map[string]int{}
	total := 0
	for _, s := range m.rows {
		for _, name := range s.DeviceNames {
			counts[name]++
			total++
		}
	}
	var out []DeviceShare
	//lint:allow detlint collect-then-sort: the sort.Slice below fixes the order before anyone observes it
	for name, c := range counts {
		share := 0.0
		if total > 0 {
			share = float64(c) / float64(total)
		}
		out = append(out, DeviceShare{Name: name, SubJobs: c, Share: share})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// DeviceShare summarizes one device's share of executed sub-jobs.
type DeviceShare struct {
	Name    string
	SubJobs int
	Share   float64
}
