package records

import (
	"bufio"
	"fmt"
	"math"

	"repro/internal/job"
)

// ExportRecorder writes a streaming broker's per-job records CSV as
// the rows seal, holding only the jobs that are still live. It has the
// lifecycle methods of core.StreamRecorder, and a broker records
// through it directly.
//
// Jobs are kept in admission order. Once every job admitted before a
// job is terminal, the job is sealed: a finished job's row is encoded
// (appendStatsRow) and written to the recorder's writer, and its
// JobStats is recycled; a shed job leaves no row. For unique job IDs
// the bytes written are exactly what Manager.WriteCSV writes over the
// same events.
//
// A quiescent point (no job live) is a row boundary: every job recorded
// so far is sealed. Cutting the written bytes back to such a point and
// continuing with a fresh recorder that writes no header, over the
// events after it, gives the same CSV as one recorder over all of
// them. A resumed serve run continues its export file that way.
//
// Two cases differ from a Manager, which keeps every job it ever saw:
//   - a refused job leaves no record, so a refused ID that is admitted
//     later gets its row at its admission position;
//   - an ID that is no longer live may be admitted again, and gets a
//     row of its own.
//
// A repeated ID whose first job is still live panics, as it does in a
// Manager: a Start or Finish by that ID would be ambiguous.
//
// The recorder is not synchronized; the broker's caller serializes it.
type ExportRecorder struct {
	// live maps the ID of every admitted, non-terminal job to its entry.
	live map[string]*streamJob
	// ring holds the unsealed jobs in admission order: n of them, from
	// head on, wrapping around.
	ring    []*streamJob
	head, n int
	// free holds sealed entries for reuse, DeviceNames capacity and all.
	free []*streamJob

	// w receives the header and the sealed rows. Its first write error
	// sticks (bufio.Writer's contract): the caller's Flush reports it.
	w   *bufio.Writer
	row []byte // one encoded row, reused
}

// streamJob is one unsealed job. j is the job the broker admitted: a
// Drop of that same job is a shed, and a Drop of any other is a
// refusal, even under a live job's ID.
type streamJob struct {
	JobStats
	j *job.QJob
}

// NewExportRecorder returns a recorder that writes sealed rows to w,
// after the CSV header if header is set. Nothing reaches w's own
// writer until w fills or its caller flushes it.
func NewExportRecorder(w *bufio.Writer, header bool) *ExportRecorder {
	r := &ExportRecorder{live: make(map[string]*streamJob), w: w}
	if header {
		r.w.WriteString(statsHeader) //lint:allow errlint a bufio.Writer keeps its first error for the caller's Flush
	}
	return r
}

// Arrival records an admitted job.
func (r *ExportRecorder) Arrival(j *job.QJob, t float64) {
	if _, ok := r.live[j.ID]; ok {
		panic(fmt.Sprintf("records: duplicate arrival for %s", j.ID))
	}
	var e *streamJob
	if k := len(r.free); k > 0 {
		e = r.free[k-1]
		r.free = r.free[:k-1]
	} else {
		e = new(streamJob)
	}
	e.JobStats = JobStats{
		JobID:       j.ID,
		Arrival:     t,
		DeviceNames: e.DeviceNames[:0],
		Source:      j.Ingest.Source,
		Remote:      j.Ingest.Remote,
		ConnID:      j.Ingest.ConnID,
		arrived:     true,
	}
	e.j = j
	r.live[j.ID] = e
	if r.n == len(r.ring) {
		r.grow()
	}
	k := r.head + r.n
	if k >= len(r.ring) {
		k -= len(r.ring)
	}
	r.ring[k] = e
	r.n++
}

// grow doubles the ring, unwrapping it to start at index 0.
func (r *ExportRecorder) grow() {
	ring := make([]*streamJob, max(2*len(r.ring), 64))
	k := copy(ring, r.ring[r.head:])
	copy(ring[k:], r.ring[:r.head])
	r.ring, r.head = ring, 0
}

// Start records a live job's execution start.
func (r *ExportRecorder) Start(jobID string, t float64) {
	e := r.live[jobID]
	if e == nil {
		panic(fmt.Sprintf("records: start before arrival for %s", jobID))
	}
	if e.started {
		panic(fmt.Sprintf("records: duplicate start for %s", jobID))
	}
	e.started = true
	e.Start = t
}

// Finish records a started job's completion; deviceNames is copied.
func (r *ExportRecorder) Finish(jobID string, finish, fidelity, commTime float64, deviceNames []string) {
	e := r.live[jobID]
	if e == nil || !e.started {
		panic(fmt.Sprintf("records: finish before start for %s", jobID))
	}
	if fidelity < 0 || fidelity > 1 || math.IsNaN(fidelity) {
		panic(fmt.Sprintf("records: fidelity %g outside [0,1] for %s", fidelity, jobID))
	}
	e.finished = true
	e.Finish = finish
	e.Fidelity = fidelity
	e.CommTime = commTime
	e.Devices = len(deviceNames)
	e.DeviceNames = append(e.DeviceNames, deviceNames...)
	r.retire(e)
}

// Drop records a shed of a live, unstarted job. A refusal (any job
// other than the one admitted under that ID) leaves no record.
func (r *ExportRecorder) Drop(j *job.QJob, t float64, reason string) {
	e := r.live[j.ID]
	if e == nil || e.j != j {
		return
	}
	if e.started {
		panic(fmt.Sprintf("records: drop after start for %s", j.ID))
	}
	e.dropped = true
	e.Finish = t
	e.DropReason = reason
	r.retire(e)
}

// retire takes a terminal job out of the live set and seals every job
// at the head of the admission order that is now terminal.
func (r *ExportRecorder) retire(e *streamJob) {
	delete(r.live, e.JobID)
	e.j = nil
	for r.n > 0 {
		h := r.ring[r.head]
		if !h.finished && !h.dropped {
			return
		}
		if h.finished {
			r.row = appendStatsRow(r.row[:0], &h.JobStats)
			r.w.Write(r.row) //lint:allow errlint a bufio.Writer keeps its first error for the caller's Flush
		}
		r.ring[r.head] = nil
		if r.head++; r.head == len(r.ring) {
			r.head = 0
		}
		r.n--
		r.free = append(r.free, h)
	}
}
