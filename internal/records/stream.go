package records

import (
	"bufio"
	"fmt"
	"math"

	"repro/internal/job"
)

// lifecycle is the package's one per-job state machine. Both recorders
// are a lifecycle plus a destination for its sealed rows: a Manager
// keeps them (batch runs), an ExportRecorder writes them (a serve run's
// -export). Its methods are those of core.StreamRecorder, so a broker
// records through either recorder directly.
//
// Jobs are kept in admission order. Once every job admitted before a
// job is terminal, the job is sealed: a finished job's row goes to the
// destination (sealRow), and a shed job leaves no row. Rows therefore
// seal in first-admission order, whatever order the jobs finish in.
//
// Only live jobs (admitted, not yet terminal) are keyed by ID:
//   - a refusal leaves no record, so a refused ID that is admitted
//     later gets its row at its admission position;
//   - an ID that is no longer live may be admitted again, and gets a
//     row of its own;
//   - a repeat of a live ID panics: a Start or Finish by that ID would
//     be ambiguous.
//
// A lifecycle is not synchronized; the broker's caller serializes it.
type lifecycle struct {
	// live maps the ID of every admitted, non-terminal job to its entry.
	live map[string]*streamJob
	// ring holds the unsealed jobs in admission order: n of them, from
	// head on, wrapping around.
	ring    []*streamJob
	head, n int
	// free holds sealed entries the destination did not keep, for reuse,
	// DeviceNames capacity and all.
	free []*streamJob
	// slab holds the entries not handed out yet, and names the unused
	// tail of the arena device names are copied into, so an entry costs
	// no allocation of its own; made counts the entries handed out.
	slab  []streamJob
	names []string
	made  int
	// sealRow takes a sealed, finished job's row and reports whether the
	// destination keeps it; an entry not kept is reused.
	sealRow func(*JobStats) (keep bool)
}

// streamJob is one job's entry. j is the job the broker admitted: a
// Drop of that same job is a shed, and a Drop of any other is a
// refusal, even under a live job's ID.
type streamJob struct {
	JobStats
	j                          *job.QJob
	started, finished, dropped bool
}

// Slab and arena chunks grow with the entries handed out, from 16 up to
// 1024 entries and from 64 up to 4096 device names, so a small run
// stays small and a large one allocates once per chunk.
const (
	minStatsChunk, maxStatsChunk = 16, 1024
	minNamesChunk, maxNamesChunk = 64, 4096
)

func newLifecycle(sealRow func(*JobStats) bool) lifecycle {
	return lifecycle{live: make(map[string]*streamJob), sealRow: sealRow}
}

// Arrival records an admitted job.
func (r *lifecycle) Arrival(j *job.QJob, t float64) {
	if _, ok := r.live[j.ID]; ok {
		panic(fmt.Sprintf("records: duplicate arrival for %s", j.ID))
	}
	e := r.entry()
	*e = streamJob{
		JobStats: JobStats{
			JobID:       j.ID,
			Arrival:     t,
			DeviceNames: e.DeviceNames[:0],
			Source:      j.Ingest.Source,
			Remote:      j.Ingest.Remote,
			ConnID:      j.Ingest.ConnID,
		},
		j: j,
	}
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

// entry returns a reused entry, or else the next one from the slab.
func (r *lifecycle) entry() *streamJob {
	if k := len(r.free); k > 0 {
		e := r.free[k-1]
		r.free = r.free[:k-1]
		return e
	}
	if len(r.slab) == 0 {
		r.slab = make([]streamJob, min(max(r.made, minStatsChunk), maxStatsChunk))
	}
	e := &r.slab[0]
	r.slab = r.slab[1:]
	r.made++
	return e
}

// grow doubles the ring, unwrapping it to start at index 0.
func (r *lifecycle) grow() {
	ring := make([]*streamJob, max(2*len(r.ring), 64))
	k := copy(ring, r.ring[r.head:])
	copy(ring[k:], r.ring[:r.head])
	r.ring, r.head = ring, 0
}

// Start records a live job's execution start.
func (r *lifecycle) Start(jobID string, t float64) {
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

// Finish records a started job's completion. deviceNames is copied,
// because the broker reuses the buffer it passes (core.StreamRecorder).
func (r *lifecycle) Finish(jobID string, finish, fidelity, commTime float64, deviceNames []string) {
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
	e.DeviceNames = r.copyNames(e.DeviceNames, deviceNames)
	r.retire(e)
}

// copyNames copies names into dst's capacity, or into the arena when
// dst is too short. An arena copy's capacity ends at its length, so
// appending to one row's DeviceNames reallocates instead of writing
// over the next row's.
func (r *lifecycle) copyNames(dst, names []string) []string {
	if len(names) <= cap(dst) {
		return append(dst, names...)
	}
	if cap(r.names)-len(r.names) < len(names) {
		r.names = make([]string, 0, max(min(max(r.made, minNamesChunk), maxNamesChunk), len(names)))
	}
	i := len(r.names)
	r.names = append(r.names, names...)
	return r.names[i:len(r.names):len(r.names)]
}

// Drop records a shed of a live, unstarted job. A refusal (any job
// other than the one admitted under that ID) leaves no record.
func (r *lifecycle) Drop(j *job.QJob, t float64, reason string) {
	e := r.live[j.ID]
	if e == nil || e.j != j {
		return
	}
	if e.started {
		panic(fmt.Sprintf("records: drop after start for %s", j.ID))
	}
	e.dropped = true
	r.retire(e)
}

// retire takes a terminal job out of the live set and seals every job
// at the head of the admission order that is now terminal.
func (r *lifecycle) retire(e *streamJob) {
	delete(r.live, e.JobID)
	e.j = nil
	for r.n > 0 {
		h := r.ring[r.head]
		if !h.finished && !h.dropped {
			return
		}
		if !h.finished || !r.sealRow(&h.JobStats) {
			r.free = append(r.free, h)
		}
		r.ring[r.head] = nil
		if r.head++; r.head == len(r.ring) {
			r.head = 0
		}
		r.n--
	}
}

// ExportRecorder writes a streaming broker's per-job records CSV as
// the rows seal, holding only the jobs that are still live: each row is
// encoded (appendStatsRow) and written to the recorder's writer, and
// its entry is reused. Over the same events it writes exactly the
// bytes Manager.WriteCSV writes.
//
// A quiescent point (no job live) is a row boundary: every job recorded
// so far is sealed. Cutting the written bytes back to such a point and
// continuing with a fresh recorder that writes no header, over the
// events after it, gives the same CSV as one recorder over all of
// them. A resumed serve run continues its export file that way.
type ExportRecorder struct {
	lifecycle
	// w receives the header and the sealed rows. Its first write error
	// sticks (bufio.Writer's contract): the caller's Flush reports it.
	w   *bufio.Writer
	row []byte // one encoded row, reused
}

// NewExportRecorder returns a recorder that writes sealed rows to w,
// after the CSV header if header is set. Nothing reaches w's own
// writer until w fills or its caller flushes it.
func NewExportRecorder(w *bufio.Writer, header bool) *ExportRecorder {
	r := &ExportRecorder{w: w}
	r.lifecycle = newLifecycle(r.writeRow)
	if header {
		r.w.WriteString(statsHeader) //lint:allow errlint a bufio.Writer keeps its first error for the caller's Flush
	}
	return r
}

// writeRow encodes and writes one sealed row; the entry is reused.
func (r *ExportRecorder) writeRow(s *JobStats) bool {
	r.row = appendStatsRow(r.row[:0], s)
	r.w.Write(r.row) //lint:allow errlint a bufio.Writer keeps its first error for the caller's Flush
	return false
}
