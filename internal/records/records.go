// Package records is the results layer of the reproduction, from
// per-job bookkeeping up to cross-run comparison.
//
// At the bottom sits the JobRecordsManager: it tracks job lifecycle
// events (arrival, start, finish, fidelity — §3) and derives the
// evaluation metrics reported in the paper's case study: total
// simulation time, fidelity mean and standard deviation, total
// communication time, wait times, and throughput. A streaming broker
// writes the same per-job CSV through an ExportRecorder instead, which
// writes each row as it seals and holds only the jobs still live.
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
	"fmt"
	"math"
	"sort"
)

// JobStats aggregates one job's lifecycle.
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
	// DropReason is set when admission control refused or shed the job.
	DropReason string

	arrived, started, finished, dropped bool
}

// Dropped reports whether admission control refused or shed the job.
func (s *JobStats) Dropped() bool { return s.dropped }

// WaitTime returns time from arrival to execution start.
func (s *JobStats) WaitTime() float64 { return s.Start - s.Arrival }

// Turnaround returns time from arrival to completion.
func (s *JobStats) Turnaround() float64 { return s.Finish - s.Arrival }

// ExecTime returns time from start to completion (processing + comm).
func (s *JobStats) ExecTime() float64 { return s.Finish - s.Start }

// Manager collects per-job statistics.
type Manager struct {
	jobs map[string]*JobStats
	// order holds every job in first-seen order: Finished and the
	// aggregates walk it without map lookups, in arrival order.
	order []*JobStats
	// finished counts the jobs in order that have finished.
	finished int
	// slab holds the JobStats not handed out yet, and names the unused
	// tail of the arena LogFinish copies device names into: a record
	// costs no allocation of its own.
	slab  []JobStats
	names []string
}

// Slab and arena chunks grow with the manager, from 16 up to 1024
// records and from 64 up to 4096 device names, so a small run stays
// small and a large one allocates once per chunk.
const (
	minStatsChunk, maxStatsChunk = 16, 1024
	minNamesChunk, maxNamesChunk = 64, 4096
)

// NewManager creates an empty records manager.
func NewManager() *Manager {
	return &Manager{jobs: make(map[string]*JobStats)}
}

func (m *Manager) job(id string) *JobStats {
	s, ok := m.jobs[id]
	if !ok {
		if len(m.slab) == 0 {
			m.slab = make([]JobStats, min(max(len(m.order), minStatsChunk), maxStatsChunk))
		}
		s, m.slab = &m.slab[0], m.slab[1:]
		s.JobID = id
		m.jobs[id] = s
		m.order = append(m.order, s)
	}
	return s
}

// copyNames copies the broker-owned names into the arena. The copy's
// capacity ends at its length, so appending to one record's
// DeviceNames reallocates instead of writing over the next record's.
func (m *Manager) copyNames(names []string) []string {
	if len(names) == 0 {
		return nil
	}
	if cap(m.names)-len(m.names) < len(names) {
		m.names = make([]string, 0, max(min(max(len(m.order), minNamesChunk), maxNamesChunk), len(names)))
	}
	i := len(m.names)
	m.names = append(m.names, names...)
	return m.names[i:len(m.names):len(m.names)]
}

// LogArrival records a job entering the cloud.
func (m *Manager) LogArrival(jobID string, t float64) {
	s := m.job(jobID)
	if s.arrived {
		panic(fmt.Sprintf("records: duplicate arrival for %s", jobID))
	}
	s.arrived = true
	s.Arrival = t
}

// LogStart records allocation + execution start.
func (m *Manager) LogStart(jobID string, t float64) {
	s := m.job(jobID)
	if !s.arrived {
		panic(fmt.Sprintf("records: start before arrival for %s", jobID))
	}
	if s.started {
		panic(fmt.Sprintf("records: duplicate start for %s", jobID))
	}
	s.started = true
	s.Start = t
}

// LogFinish records completion along with the job's final fidelity,
// communication time, and the devices used. deviceNames is copied,
// because the broker reuses the buffer it passes (core.StreamRecorder).
func (m *Manager) LogFinish(jobID string, t, fidelity, commTime float64, deviceNames []string) {
	s := m.job(jobID)
	if !s.started {
		panic(fmt.Sprintf("records: finish before start for %s", jobID))
	}
	if s.finished {
		panic(fmt.Sprintf("records: duplicate finish for %s", jobID))
	}
	if fidelity < 0 || fidelity > 1 || math.IsNaN(fidelity) {
		panic(fmt.Sprintf("records: fidelity %g outside [0,1] for %s", fidelity, jobID))
	}
	s.finished = true
	m.finished++
	s.Finish = t
	s.Fidelity = fidelity
	s.CommTime = commTime
	s.Devices = len(deviceNames)
	s.DeviceNames = m.copyNames(deviceNames)
}

// SetIngest attaches ingest provenance to a job's record. The broker
// calls it right after LogArrival for streamed jobs; batch runs never
// do, so their provenance columns stay blank.
func (m *Manager) SetIngest(jobID, source, remote string, connID int64) {
	s := m.job(jobID)
	s.Source = source
	s.Remote = remote
	s.ConnID = connID
}

// LogDrop records an admission-control refusal or shed. A refused job
// may be entirely new (no arrival was logged); a shed job has arrived
// but not started. Dropped jobs never count as pending or finished.
func (m *Manager) LogDrop(jobID string, t float64, reason string) {
	s := m.job(jobID)
	if s.started {
		panic(fmt.Sprintf("records: drop after start for %s", jobID))
	}
	if s.dropped {
		panic(fmt.Sprintf("records: duplicate drop for %s", jobID))
	}
	s.dropped = true
	s.Finish = t
	s.DropReason = reason
}

// NumFinished returns the count of completed jobs.
func (m *Manager) NumFinished() int { return m.finished }

// NumPending returns jobs that arrived but have not finished. Dropped
// jobs are excluded: admission control has already resolved them.
func (m *Manager) NumPending() int {
	n := 0
	for _, s := range m.order {
		if s.arrived && !s.finished && !s.dropped {
			n++
		}
	}
	return n
}

// NumDropped returns jobs refused or shed by admission control.
func (m *Manager) NumDropped() int {
	n := 0
	for _, s := range m.order {
		if s.dropped {
			n++
		}
	}
	return n
}

// Finished returns completed jobs in first-arrival order, nil when none
// finished.
func (m *Manager) Finished() []*JobStats {
	if m.finished == 0 {
		return nil
	}
	out := make([]*JobStats, 0, m.finished)
	for _, s := range m.order {
		if s.finished {
			out = append(out, s)
		}
	}
	return out
}

// Get returns stats for one job, or nil if unknown.
func (m *Manager) Get(jobID string) *JobStats { return m.jobs[jobID] }

// Fidelities returns final fidelities of all finished jobs, in arrival
// order, nil when none finished.
func (m *Manager) Fidelities() []float64 {
	if m.finished == 0 {
		return nil
	}
	out := make([]float64, 0, m.finished)
	for _, s := range m.order {
		if s.finished {
			out = append(out, s.Fidelity)
		}
	}
	return out
}

// The aggregates below walk order and skip unfinished jobs, so each sum
// runs over the finished jobs in arrival order without building the
// Finished list.

// FidelityMeanStd returns the mean and (population) standard deviation of
// finished-job fidelities — the paper's μF ± σF.
func (m *Manager) FidelityMeanStd() (mean, std float64) {
	if m.finished == 0 {
		return 0, 0
	}
	for _, s := range m.order {
		if s.finished {
			mean += s.Fidelity
		}
	}
	mean /= float64(m.finished)
	for _, s := range m.order {
		if s.finished {
			d := s.Fidelity - mean
			std += d * d
		}
	}
	std = math.Sqrt(std / float64(m.finished))
	return mean, std
}

// TotalCommTime sums inter-device communication delay across all
// finished jobs — the paper's T_comm.
func (m *Manager) TotalCommTime() float64 {
	total := 0.0
	for _, s := range m.order {
		if s.finished {
			total += s.CommTime
		}
	}
	return total
}

// Makespan returns the completion time of the last finished job — the
// paper's T_sim when all jobs complete.
func (m *Manager) Makespan() float64 {
	max := 0.0
	for _, s := range m.order {
		if s.finished && s.Finish > max {
			max = s.Finish
		}
	}
	return max
}

// MeanWaitTime averages arrival→start delay over finished jobs.
func (m *Manager) MeanWaitTime() float64 { return m.meanFinished((*JobStats).WaitTime) }

// MeanTurnaround averages arrival→finish over finished jobs.
func (m *Manager) MeanTurnaround() float64 { return m.meanFinished((*JobStats).Turnaround) }

// meanFinished averages f over finished jobs, 0 when none finished.
func (m *Manager) meanFinished(f func(*JobStats) float64) float64 {
	if m.finished == 0 {
		return 0
	}
	total := 0.0
	for _, s := range m.order {
		if s.finished {
			total += f(s)
		}
	}
	return total / float64(m.finished)
}

// Throughput returns finished jobs per unit time over the makespan.
func (m *Manager) Throughput() float64 {
	ms := m.Makespan()
	if ms <= 0 {
		return 0
	}
	return float64(m.finished) / ms
}

// MeanDevicesPerJob returns the average partition count k across
// finished jobs.
func (m *Manager) MeanDevicesPerJob() float64 {
	return m.meanFinished(func(s *JobStats) float64 { return float64(s.Devices) })
}

// DeviceLoadShare returns, per device name, the fraction of finished
// sub-jobs that ran there, sorted by name for determinism.
func (m *Manager) DeviceLoadShare() []DeviceShare {
	counts := map[string]int{}
	total := 0
	for _, s := range m.order {
		if !s.finished {
			continue
		}
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
