package records

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/job"
)

// refManager is the oracle both recorders are held to: the records
// manager as it stood before the lifecycle state machine. It keeps
// every job it ever saw in one map keyed by ID and in first-seen order,
// and its aggregates and export walk that order over the finished jobs.
// Over unique job IDs whose refusals are never admitted later it and
// the lifecycle agree: that is what the tests compare.
type refManager struct {
	jobs  map[string]*refJob
	order []*refJob
}

type refJob struct {
	JobStats
	arrived, started, finished, dropped bool
}

func newRefManager() *refManager { return &refManager{jobs: make(map[string]*refJob)} }

func (m *refManager) job(id string) *refJob {
	s, ok := m.jobs[id]
	if !ok {
		s = &refJob{JobStats: JobStats{JobID: id}}
		m.jobs[id] = s
		m.order = append(m.order, s)
	}
	return s
}

// Arrival, Start, Finish and Drop are the old LogArrival (with
// SetIngest), LogStart, LogFinish and LogDrop, under
// core.StreamRecorder's names.
func (m *refManager) Arrival(j *job.QJob, t float64) {
	s := m.job(j.ID)
	if s.arrived {
		panic(fmt.Sprintf("records: duplicate arrival for %s", j.ID))
	}
	s.arrived = true
	s.Arrival = t
	s.Source, s.Remote, s.ConnID = j.Ingest.Source, j.Ingest.Remote, j.Ingest.ConnID
}

func (m *refManager) Start(jobID string, t float64) {
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

func (m *refManager) Finish(jobID string, finish, fidelity, commTime float64, deviceNames []string) {
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
	s.Finish = finish
	s.Fidelity = fidelity
	s.CommTime = commTime
	s.Devices = len(deviceNames)
	s.DeviceNames = append([]string(nil), deviceNames...)
}

func (m *refManager) Drop(j *job.QJob, t float64, reason string) {
	s := m.job(j.ID)
	if s.started {
		panic(fmt.Sprintf("records: drop after start for %s", j.ID))
	}
	if s.dropped {
		panic(fmt.Sprintf("records: duplicate drop for %s", j.ID))
	}
	s.dropped = true
	s.Finish = t
}

// Finished returns the finished jobs in first-seen order.
func (m *refManager) Finished() []*JobStats {
	var out []*JobStats
	for _, s := range m.order {
		if s.finished {
			out = append(out, &s.JobStats)
		}
	}
	return out
}

// pending counts the jobs that arrived and are neither finished nor
// dropped.
func (m *refManager) pending() int {
	n := 0
	for _, s := range m.order {
		if s.arrived && !s.finished && !s.dropped {
			n++
		}
	}
	return n
}

// refCSV is the records CSV the reference writes over evs.
func refCSV(t *testing.T, evs []streamEvent) []byte {
	t.Helper()
	m := newRefManager()
	for _, e := range evs {
		e.feed(m)
	}
	var buf bytes.Buffer
	if err := writeStatsCSV(&buf, m.Finished()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
