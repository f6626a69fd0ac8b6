package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/job"
)

// lifecycleLine is the reference encoding of one lifecycle line: the
// shape the stream had when json.Encoder wrote it. finishEmitter must
// produce the same bytes.
type lifecycleLine struct {
	Event    string   `json:"event"`
	JobID    string   `json:"job_id"`
	T        float64  `json:"t"`
	Reason   string   `json:"reason,omitempty"`
	Fidelity *float64 `json:"fidelity,omitempty"`
	CommTime *float64 `json:"comm_time,omitempty"`
	Devices  []string `json:"devices,omitempty"`
}

// referenceLine encodes l with json.Encoder; nil when Encode refuses it.
func referenceLine(l lifecycleLine) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(l); err != nil {
		return nil
	}
	return buf.Bytes()
}

// checkLines emits one line of each event kind from the given fields
// and compares every one with the reference encoder.
func checkLines(t *testing.T, id, reason string, ts, fid, comm float64, devices []string) {
	t.Helper()
	cases := []struct {
		emit func(*finishEmitter)
		want lifecycleLine
	}{
		{func(e *finishEmitter) { e.Arrival(&job.QJob{ID: id}, ts) },
			lifecycleLine{Event: "arrival", JobID: id, T: ts}},
		{func(e *finishEmitter) { e.Start(id, ts) },
			lifecycleLine{Event: "start", JobID: id, T: ts}},
		{func(e *finishEmitter) { e.Finish(id, ts, fid, comm, devices) },
			lifecycleLine{Event: "finish", JobID: id, T: ts, Fidelity: &fid, CommTime: &comm, Devices: devices}},
		{func(e *finishEmitter) { e.Drop(&job.QJob{ID: id}, ts, reason) },
			lifecycleLine{Event: "drop", JobID: id, T: ts, Reason: reason}},
	}
	for _, c := range cases {
		var out bytes.Buffer
		e := newFinishEmitter(&out)
		c.emit(e)
		e.flush()
		if want := referenceLine(c.want); !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("%s line for %q (t=%v fid=%v comm=%v devices=%q reason=%q):\n got %q\nwant %q",
				c.want.Event, id, ts, fid, comm, devices, reason, out.Bytes(), want)
		}
	}
}

// The emitter's bytes are json.Encoder's for every float format edge,
// every string that needs escaping, and the omitempty fields; a line
// with a non-finite number is dropped, as Encode refused it.
func TestLifecycleLineMatchesEncodingJSON(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 12.466542457635619, 1e-6, 9.99e-7, 1e-7, -1e-7,
		1.5e-300, 5e-324, math.SmallestNonzeroFloat64, 1e20, 1e21, -1e21, 123456789012345678901234.0,
		math.MaxFloat64, 1e100, 3.34, 2.72, math.NaN(), math.Inf(1), math.Inf(-1)}
	ids := []string{"job-0000001", "", `q"uote`, `back\slash`, "a<b>", "r&d", "caf\u00e9", "line\u2028sep",
		"para\u2029sep", "tab\there", "nl\n", "\x00\x1f\x7f", "bad\xffutf8", "日本", "~ !#$%'()*+,-./"}
	for _, f := range floats {
		checkLines(t, "job-0000001", "shed", f, 0.5, 3.34, []string{"ibm_brussels"})
		checkLines(t, "j", "", 1, f, 0, nil)
		checkLines(t, "j", "queue-full", 1, 0.25, f, []string{})
	}
	for _, id := range ids {
		checkLines(t, id, id, 7.5, 0.75, 0, []string{id, "ibm_kawasaki", id})
	}
}

// FuzzLifecycleLine compares the emitter with the reference encoder
// over arbitrary IDs, device names, reasons and floats.
func FuzzLifecycleLine(f *testing.F) {
	f.Add("job-0000001", "ibm_brussels", "shed", 12.5, 0.75, 3.34)
	f.Add(`q"<&>\`, "caf\u00e9\u2028", "", 1e-7, 1e21, math.Copysign(0, -1))
	f.Add("bad\xff", "\x00", "quota", 5e-324, math.NaN(), math.Inf(-1))
	f.Fuzz(func(t *testing.T, id, device, reason string, ts, fid, comm float64) {
		checkLines(t, id, reason, ts, fid, comm, []string{device})
		checkLines(t, device, reason, fid, comm, ts, nil)
	})
}

// Emitting a line allocates nothing for plain-ASCII IDs and device
// names: it appends to the emitter's reused buffer.
func TestLifecycleEmitAllocFree(t *testing.T) {
	e := newFinishEmitter(io.Discard)
	j := &job.QJob{ID: "job-0000042"}
	devices := []string{"ibm_brussels", "ibm_kawasaki"}
	emitAll := func() {
		e.Arrival(j, 12.466542457635619)
		e.Start(j.ID, 18.5)
		e.Finish(j.ID, 579.0637653039413, 0.6397195672874261, 3.34, devices)
		e.Drop(j, 1e-7, "shed")
		e.flush()
	}
	emitAll()
	if avg := testing.AllocsPerRun(200, emitAll); avg != 0 {
		t.Fatalf("lifecycle emission allocates %.2f/op, want 0", avg)
	}
}

// countingWriter records every Write it receives.
type countingWriter struct {
	bytes.Buffer
	writes int
	// torn counts writes that did not end on a line boundary.
	torn int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	if len(p) > 0 && p[len(p)-1] != '\n' {
		w.torn++
	}
	return w.Buffer.Write(p)
}

// A logical serve makes at most one stdout write per gateway call (one
// Submit per stream line, plus the final Drain), each a run of whole
// lines; emitting and flushing every line made three per job.
func TestServeOneWritePerGatewayCall(t *testing.T) {
	const n = 200
	jobs := testJobs(t, n)
	var out countingWriter
	var errOut bytes.Buffer
	opts := serveOptions{cloud: speedCloud(), window: 64}
	if err := runServe(context.Background(), opts, bytes.NewReader(ndjson(t, jobs)), &out, &errOut); err != nil {
		t.Fatalf("runServe: %v\n%s", err, errOut.Bytes())
	}
	if lines := strings.Count(out.String(), "\n"); lines != 3*n {
		t.Fatalf("lifecycle lines = %d, want %d", lines, 3*n)
	}
	if out.writes > n+1 {
		t.Fatalf("%d stdout writes for %d gateway calls", out.writes, n+1)
	}
	if out.torn != 0 {
		t.Fatalf("%d writes ended mid-line", out.torn)
	}
}

// Concurrent submitters and a real-time clock share one emitter through
// the gateway: every write is whole lines, and every line is one
// complete lifecycle event.
func TestConcurrentGatewayCallsWriteWholeLines(t *testing.T) {
	var out countingWriter
	var errOut bytes.Buffer
	s, err := buildServer(serveOptions{cloud: speedCloud(), window: 64, timeScale: 1000}, nil, nil, &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	const submitters, each = 4, 25
	jobs := testJobs(t, submitters*each)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(mine []*job.QJob) {
			defer wg.Done()
			for i, j := range mine {
				s.gw.Submit(j)
				s.gw.AdvanceTo(float64(i+1) * 500)
			}
		}(jobs[g*each : (g+1)*each])
	}
	wg.Wait()
	if err := s.shutdown(&errOut); err != nil {
		t.Fatal(err)
	}
	if out.torn != 0 {
		t.Fatalf("%d of %d writes ended mid-line", out.torn, out.writes)
	}
	events := map[string]int{}
	for _, line := range strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n") {
		var l lifecycleLine
		if err := json.Unmarshal([]byte(line), &l); err != nil {
			t.Fatalf("bad lifecycle line %q: %v", line, err)
		}
		events[l.Event]++
	}
	for _, ev := range []string{"arrival", "start", "finish"} {
		if events[ev] != len(jobs) {
			t.Fatalf("%s lines = %d, want %d", ev, events[ev], len(jobs))
		}
	}
}

// A call that produces more than emitChunk of lines (the drain of a
// deep queue) writes them in whole-line pieces instead of holding them
// all.
func TestLifecycleEmitterBoundsItsBuffer(t *testing.T) {
	var out countingWriter
	e := newFinishEmitter(&out)
	const n = 5000
	for i := 0; i < n; i++ {
		e.Start("job-0000042", float64(i))
		if len(e.buf) >= emitChunk {
			t.Fatalf("buffer holds %d bytes after line %d", len(e.buf), i)
		}
	}
	e.flush()
	if out.writes < 2 || out.torn != 0 {
		t.Fatalf("%d writes (%d torn) for %d bytes", out.writes, out.torn, out.Len())
	}
	if lines := strings.Count(out.String(), "\n"); lines != n {
		t.Fatalf("%d lines written, want %d", lines, n)
	}
}

// A broker crash loses none of the lifecycle lines produced before it:
// the crashed run's stream is a prefix of the clean run's, through the
// last job admitted before the crash.
func TestCrashKeepsEarlierLifecycleLines(t *testing.T) {
	jobs := spacedJobs(t, 20)
	in := ndjson(t, jobs)
	clean := recoveryOpts(t.TempDir(), "clean", nil)
	var full, errOut bytes.Buffer
	if err := runServe(context.Background(), clean, bytes.NewReader(in), &full, &errOut); err != nil {
		t.Fatal(err)
	}
	crash := recoveryOpts(t.TempDir(), "crash", crashInjector(t, 5, 1))
	var cut bytes.Buffer
	if err := runServe(context.Background(), crash, bytes.NewReader(in), &cut, &errOut); !errors.Is(err, errCrash) {
		t.Fatalf("crash run = %v, want a broker crash", err)
	}
	if !bytes.HasPrefix(full.Bytes(), cut.Bytes()) {
		t.Fatalf("crashed stream is not a prefix of the clean one:\n%s", cut.Bytes())
	}
	last := `{"event":"start","job_id":"` + jobs[4].ID + `"`
	if !strings.Contains(cut.String(), last) {
		t.Fatalf("crashed stream lost the lines before the crash; want %s in:\n%s", last, cut.Bytes())
	}
}
