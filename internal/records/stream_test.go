package records

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"repro/internal/job"
)

// streamEvent is one broker lifecycle event as a recorder sees it.
type streamEvent struct {
	kind      byte // 'a' arrival, 's' start, 'f' finish, 'd' drop
	j         *job.QJob
	t         float64
	fid, comm float64
	names     []string
	reason    string
}

// recorder is core.StreamRecorder's method set, which both recorders
// and the reference have.
type recorder interface {
	Arrival(j *job.QJob, t float64)
	Start(jobID string, t float64)
	Finish(jobID string, finish, fidelity, commTime float64, deviceNames []string)
	Drop(j *job.QJob, t float64, reason string)
}

// feed records e through r.
func (e streamEvent) feed(r recorder) {
	switch e.kind {
	case 'a':
		r.Arrival(e.j, e.t)
	case 's':
		r.Start(e.j.ID, e.t)
	case 'f':
		r.Finish(e.j.ID, e.t, e.fid, e.comm, e.names)
	case 'd':
		r.Drop(e.j, e.t, e.reason)
	}
}

// genStreamEvents draws a broker-like event sequence over n unique job
// IDs: admissions, refusals that are never re-admitted, starts in any
// order (backfill), finishes in any order, and sheds of the oldest
// queued job. quiet[i] reports that no job is live after the first i
// events: the points a quiescent checkpoint may mark.
func genStreamEvents(rng *rand.Rand, n int) (evs []streamEvent, quiet []bool) {
	devices := []string{"ibm_quebec", "ibm_kyiv", "a,b", ` lead`}
	var queued, running []*job.QJob
	now := 0.0
	quiet = []bool{true}
	for k := 0; k < n || len(queued)+len(running) > 0; {
		now += rng.ExpFloat64()
		var choices []byte
		if k < n {
			choices = append(choices, 'a', 'a', 'a', 'r')
		}
		if len(queued) > 0 {
			choices = append(choices, 's', 's', 'd')
		}
		if len(running) > 0 {
			choices = append(choices, 'f', 'f', 'f')
		}
		switch c := choices[rng.Intn(len(choices))]; c {
		case 'a', 'r':
			j := &job.QJob{ID: fmt.Sprintf([]string{"job-%d", `q"%d`, "c,%d", " lead%d", "é%d"}[rng.Intn(5)], k)}
			k++
			switch rng.Intn(4) {
			case 0:
				j.Ingest = job.Ingest{Source: "stdin", ConnID: rng.Int63n(4)}
			case 1:
				j.Ingest = job.Ingest{Source: "tcp", Remote: "127.0.0.1:5000", ConnID: rng.Int63n(4)}
			}
			if c == 'r' {
				evs = append(evs, streamEvent{kind: 'd', j: j, t: now, reason: "queue-full"})
				break
			}
			queued = append(queued, j)
			evs = append(evs, streamEvent{kind: 'a', j: j, t: now})
		case 's':
			i := rng.Intn(len(queued))
			j := queued[i]
			queued = append(queued[:i], queued[i+1:]...)
			running = append(running, j)
			evs = append(evs, streamEvent{kind: 's', j: j, t: now})
		case 'd':
			j := queued[0]
			queued = queued[1:]
			evs = append(evs, streamEvent{kind: 'd', j: j, t: now, reason: "shed"})
		case 'f':
			i := rng.Intn(len(running))
			j := running[i]
			running = append(running[:i], running[i+1:]...)
			evs = append(evs, streamEvent{kind: 'f', j: j, t: now,
				fid: rng.Float64(), comm: rng.Float64() * 10, names: devices[:rng.Intn(len(devices)+1)]})
		}
		quiet = append(quiet, len(queued)+len(running) == 0)
	}
	return evs, quiet
}

// managerCSV feeds evs to a Manager and returns its export.
func managerCSV(t *testing.T, evs []streamEvent) []byte {
	t.Helper()
	m := NewManager()
	for _, e := range evs {
		e.feed(m)
	}
	if n := m.NumPending(); n != 0 {
		t.Fatalf("%d jobs pending after the events", n)
	}
	var buf bytes.Buffer
	if err := m.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// newBufRecorder returns a recorder writing into buf through a bufio
// writer of size bytes, so rows reach buf in pieces that need not end
// on a row boundary; header is the recorder's.
func newBufRecorder(buf *bytes.Buffer, size int, header bool) (*ExportRecorder, *bufio.Writer) {
	w := bufio.NewWriterSize(buf, size)
	return NewExportRecorder(w, header), w
}

// flushed flushes w and returns the bytes buf holds.
func flushed(t *testing.T, w *bufio.Writer, buf *bytes.Buffer) []byte {
	t.Helper()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzServeExport is differential: over a seeded event sequence with
// unique IDs (out-of-order starts and finishes, sheds, refusals never
// re-admitted), the export recorder and Manager.WriteCSV both write the
// bytes the map-and-order reference (refManager) writes over the same
// events. The export recorder does so also across rollbacks, as a resumed
// serve run continues a killed run's export: the written bytes are cut
// to a mark taken at a quiescent point (where the buffer was flushed,
// as a checkpoint flushes it), the unflushed buffer is lost, and a
// fresh recorder that writes no header records the events since the
// mark. jobs bounds the sequence, and crashes bounds the rollbacks.
func FuzzServeExport(f *testing.F) {
	f.Add(int64(1), uint16(40), uint8(0))
	f.Add(int64(2), uint16(300), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, jobs uint16, crashes uint8) {
		rng := rand.New(rand.NewSource(seed))
		evs, quiet := genStreamEvents(rng, int(jobs%600))
		var buf bytes.Buffer
		size := 16 + rng.Intn(512) // small: flushes land mid-row
		r, w := newBufRecorder(&buf, size, true)
		mark, markAt := len(flushed(t, w, &buf)), 0
		left := int(crashes % 8)
		for i := 0; i < len(evs); {
			evs[i].feed(r)
			i++
			if quiet[i] {
				if len(r.live) != 0 {
					t.Fatalf("%d jobs live at a quiescent point", len(r.live))
				}
				if rng.Intn(3) == 0 {
					mark, markAt = len(flushed(t, w, &buf)), i
				}
			}
			if left > 0 && rng.Intn(len(evs)) < 2 {
				left--
				buf.Truncate(mark)
				r, w = newBufRecorder(&buf, size, false)
				i = markAt
			}
		}
		want := refCSV(t, evs)
		if got := flushed(t, w, &buf); !bytes.Equal(got, want) {
			t.Fatalf("export recorder CSV differs from the reference's:\n got %q\nwant %q", got, want)
		}
		if got := managerCSV(t, evs); !bytes.Equal(got, want) {
			t.Fatalf("Manager CSV differs from the reference's:\n got %q\nwant %q", got, want)
		}
	})
}

// TestTruncateRollsBackToMark: truncating a recorder's written bytes to
// a mark flushed when no job was live rolls the export back to that
// mark, whatever was recorded after it (a sealed row, a queued and a
// running job, a row finished behind them, a refusal and a shed, some
// of it flushed and some still buffered). A fresh recorder without a
// header, fed the events after the mark, ends with the uninterrupted
// run's CSV, the reference's, which a Manager over all the events
// writes too. The mark sits past the first 64 KiB buffer, so the export
// reached its writer in several flushes before it.
func TestTruncateRollsBackToMark(t *testing.T) {
	var before, after []streamEvent
	finish := func(evs []streamEvent, id string, t0 float64) []streamEvent {
		j := &job.QJob{ID: id, Ingest: job.Ingest{Source: "stdin", ConnID: 1}}
		return append(evs,
			streamEvent{kind: 'a', j: j, t: t0},
			streamEvent{kind: 's', j: j, t: t0 + 1},
			streamEvent{kind: 'f', j: j, t: t0 + 5, fid: 0.8, comm: 0.5, names: []string{"a", "b"}})
	}
	for i := 0; i < 1500; i++ {
		before = finish(before, fmt.Sprintf("before-%04d", i), float64(i))
	}
	shed := &job.QJob{ID: "shed"}
	before = append(before,
		streamEvent{kind: 'a', j: shed, t: 1500},
		streamEvent{kind: 'd', j: shed, t: 1501, reason: "shed"},
		streamEvent{kind: 'd', j: &job.QJob{ID: "refused"}, t: 1502, reason: "rate-limit"})

	after = finish(after, "after-done", 2000)
	queued, running, shedAfter := &job.QJob{ID: "after-queued"}, &job.QJob{ID: "after-running"}, &job.QJob{ID: "after-shed"}
	after = append(after,
		streamEvent{kind: 'a', j: queued, t: 2010},
		streamEvent{kind: 'a', j: running, t: 2011},
		streamEvent{kind: 's', j: running, t: 2012},
		streamEvent{kind: 'd', j: &job.QJob{ID: "after-refused"}, t: 2013, reason: "queue-full"},
		streamEvent{kind: 'a', j: shedAfter, t: 2014},
		streamEvent{kind: 'd', j: shedAfter, t: 2015, reason: "shed"})
	after = finish(after, "after-behind", 2020)
	crashAt := len(after)
	after = append(after,
		streamEvent{kind: 's', j: queued, t: 2030},
		streamEvent{kind: 'f', j: queued, t: 2031, fid: 0.5, names: []string{"c"}},
		streamEvent{kind: 'f', j: running, t: 2032, fid: 0.6, names: []string{"d"}})

	const size = 64 << 10
	var buf bytes.Buffer
	r, w := newBufRecorder(&buf, size, true)
	for _, e := range before {
		e.feed(r)
	}
	want := bytes.Clone(flushed(t, w, &buf))
	mark := len(want)
	if mark <= size {
		t.Fatalf("mark %d is not past the first %d-byte buffer", mark, size)
	}
	for _, e := range after[:crashAt] {
		e.feed(r)
	}
	if len(r.live) != 2 {
		t.Fatalf("after the mark: %d live, want 2", len(r.live))
	}
	// The killed run's buffer reached the file up to a torn row.
	w.WriteString("torn,")
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() <= mark {
		t.Fatalf("nothing written after the mark (%d bytes)", buf.Len())
	}
	buf.Truncate(mark)
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("export after the cut differs from the mark's")
	}
	r, w = newBufRecorder(&buf, size, false)
	for _, e := range after {
		e.feed(r)
	}
	all := append(before, after...)
	want = refCSV(t, all)
	if got := flushed(t, w, &buf); !bytes.Equal(got, want) {
		t.Fatalf("continued CSV differs from the uninterrupted run's:\n got %q\nwant %q",
			got[len(got)-300:], want[len(want)-300:])
	}
	if got := managerCSV(t, all); !bytes.Equal(got, want) {
		t.Fatalf("Manager CSV differs from the reference's")
	}
}

// TestExportRecorderIDRules pins the lifecycle's ID rules, where both
// recorders differ from the reference, which keeps every ID it saw:
// refusals leave no record (so refusing an ID twice is fine, and a
// refused ID admitted later gets its row at its admission position), a
// sealed ID may be admitted again, and a repeat of a live ID panics.
func TestExportRecorderIDRules(t *testing.T) {
	var buf bytes.Buffer
	r, w := newBufRecorder(&buf, 4096, true)
	m := NewManager()
	for _, rec := range []recorder{r, m} {
		a, c := &job.QJob{ID: "a"}, &job.QJob{ID: "c"}
		rec.Arrival(a, 0)
		rec.Start("a", 0)
		rec.Drop(&job.QJob{ID: "b"}, 1, "tenant-quota")
		// A refusal under a live job's ID is not that job's shed.
		rec.Drop(&job.QJob{ID: "a"}, 1.5, "tenant-quota")
		rec.Arrival(c, 2)
		rec.Start("c", 2)
		rec.Drop(&job.QJob{ID: "b"}, 3, "tenant-quota")
		rec.Finish("c", 4, 0.9, 0, []string{"d1"})
		rec.Finish("a", 5, 0.8, 0, []string{"d0"})
		b := &job.QJob{ID: "b"}
		rec.Arrival(b, 6)
		rec.Start("b", 6)
		rec.Finish("b", 7, 0.7, 0, []string{"d2"})
		again := &job.QJob{ID: "a"}
		rec.Arrival(again, 8)
		rec.Start("a", 8)
		rec.Finish("a", 9, 0.6, 0, []string{"d3"})
	}
	var ids, kept []string
	for _, line := range bytes.Split(bytes.TrimSpace(flushed(t, w, &buf)), []byte("\n"))[1:] {
		ids = append(ids, string(line[:bytes.IndexByte(line, ',')]))
	}
	for _, s := range m.Finished() {
		kept = append(kept, s.JobID)
	}
	const want = "[a c b a]"
	if fmt.Sprint(ids) != want || fmt.Sprint(kept) != want {
		t.Fatalf("export rows %v, Manager rows %v, want %s: admission order, a sealed ID admitted again", ids, kept, want)
	}

	for _, rec := range []recorder{r, m} {
		rec.Arrival(&job.QJob{ID: "live"}, 10)
		func() {
			defer func() {
				if p := recover(); p != "records: duplicate arrival for live" {
					t.Fatalf("%T: repeat of a live ID: panic %v", rec, p)
				}
			}()
			rec.Arrival(&job.QJob{ID: "live"}, 11)
		}()
	}
}

// TestServeExportAllocsPerJob: once warm, a job's arrival, start and
// finish through the export recorder allocate nothing of their own
// (entries are recycled, device names reuse their slice, the live map
// stays at the reorder window's size), and the rows go out through one
// 64 KiB buffer. 20k jobs finishing out of order within a 32-job window
// must cost under 0.05 allocations each.
func TestServeExportAllocsPerJob(t *testing.T) {
	const n, window = 20000, 32
	jobs := make([]job.QJob, n)
	for i := range jobs {
		jobs[i] = job.QJob{ID: fmt.Sprintf("job-%07d", i), Ingest: job.Ingest{Source: "stdin", ConnID: 1}}
	}
	names := []string{"ibm_quebec", "ibm_kyiv"}
	r := NewExportRecorder(bufio.NewWriterSize(io.Discard, 64<<10), true)
	finish := func(i int) {
		r.Finish(jobs[i].ID, float64(i)+3, 0.9, 0.1, names[:1+i%2])
	}
	run := func() {
		for i := range jobs {
			r.Arrival(&jobs[i], float64(i))
			r.Start(jobs[i].ID, float64(i)+1)
			if i >= window {
				finish((i - window) ^ 1) // pairs finish out of order
			}
		}
		for i := n - window; i < n; i++ {
			finish(i ^ 1)
		}
	}
	// AllocsPerRun's own warm-up run grows the ring, the free list and
	// the live map; the measured run re-admits the sealed IDs.
	perJob := testing.AllocsPerRun(1, run) / n
	if perJob >= 0.05 {
		t.Errorf("export recorder: %.4f allocs per job, want < 0.05", perJob)
	}
	if len(r.live) != 0 {
		t.Fatalf("%d jobs live after the run", len(r.live))
	}
	t.Logf("%.4f allocs per job", perJob)
}
