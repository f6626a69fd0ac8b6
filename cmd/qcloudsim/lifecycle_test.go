package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"repro/internal/runspec"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/core"
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

// chunkReader hands out at most size bytes per Read and counts the
// reads.
type chunkReader struct {
	r     io.Reader
	size  int
	reads int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	c.reads++
	if len(p) > c.size {
		p = p[:c.size]
	}
	return c.r.Read(p)
}

// A logical serve writes its held lifecycle lines once per stdin read,
// plus once per emitChunk of lines and once at the end, each write a
// run of whole lines; flushing after every stream line made one write
// per job, and emitting every line made three.
func TestServeOneWritePerStdinRead(t *testing.T) {
	const n = 200
	jobs := testJobs(t, n)
	in := &chunkReader{r: bytes.NewReader(ndjson(t, jobs)), size: 1 << 10}
	var out countingWriter
	var errOut bytes.Buffer
	opts := serveOptions{run: speedCloud(), window: 64}
	if err := runServe(context.Background(), opts, in, &out, &errOut); err != nil {
		t.Fatalf("runServe: %v\n%s", err, errOut.Bytes())
	}
	if lines := strings.Count(out.String(), "\n"); lines != 3*n {
		t.Fatalf("lifecycle lines = %d, want %d", lines, 3*n)
	}
	bound := in.reads + (out.Len()+emitChunk-1)/emitChunk + 1
	if out.writes > bound {
		t.Fatalf("%d stdout writes for %d stdin reads and %d bytes, want at most %d", out.writes, in.reads, out.Len(), bound)
	}
	if out.torn != 0 {
		t.Fatalf("%d writes ended mid-line", out.torn)
	}
}

// How stdin arrives in pieces does not change a byte of stdout or the
// export: a stream read whole, one byte per read, or half of each read,
// with shed drops, calibration drift, two tenants, escaped IDs and
// checkpoints, gives the same lifecycle lines and rows.
func TestServeOutputIndependentOfStdinChunking(t *testing.T) {
	stream := lifecycleWorkload(t)
	run := func(name string, in io.Reader) (stdout, export []byte) {
		t.Helper()
		dir := t.TempDir()
		c := runspec.Run{Policy: "fair", FleetSeed: 2025, Model: core.DefaultConfig()}
		c.Model.Drift = core.DriftConfig{IntervalS: 600, Rel: 0.3, Seed: 5}
		opts := serveOptions{
			run:             c,
			window:          64,
			admit:           core.AdmissionConfig{Policy: core.AdmitShed, MaxQueue: 3},
			checkpointPath:  filepath.Join(dir, "cp.json"),
			checkpointEvery: 500,
			export:          filepath.Join(dir, "export.csv"),
		}
		var out, errOut bytes.Buffer
		if err := runServe(context.Background(), opts, in, &out, &errOut); err != nil {
			t.Fatalf("%s: %v\n%s", name, err, errOut.Bytes())
		}
		export, err := os.ReadFile(opts.export)
		if err != nil {
			t.Fatal(err)
		}
		return out.Bytes(), export
	}
	wantOut, wantExport := run("whole", bytes.NewReader(stream))
	for _, ev := range []string{"arrival", "start", "finish", "drop"} {
		if !bytes.Contains(wantOut, []byte(`"event":"`+ev+`"`)) {
			t.Fatalf("no %s line in the lifecycle stream:\n%s", ev, wantOut)
		}
	}
	for _, c := range []struct {
		name string
		in   io.Reader
	}{
		{"one byte per read", iotest.OneByteReader(bytes.NewReader(stream))},
		{"half of each read", iotest.HalfReader(bytes.NewReader(stream))},
	} {
		gotOut, gotExport := run(c.name, c.in)
		if !bytes.Equal(gotOut, wantOut) {
			t.Errorf("%s: stdout differs from the whole-stream run's (%d vs %d bytes)", c.name, len(gotOut), len(wantOut))
		}
		if !bytes.Equal(gotExport, wantExport) {
			t.Errorf("%s: export differs from the whole-stream run's (%d vs %d bytes)", c.name, len(gotExport), len(wantExport))
		}
	}
}

// watchWriter is a stdout that closes seen once it holds want.
type watchWriter struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	want []byte
	seen chan struct{}
	once sync.Once
}

func (w *watchWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	n, err := w.buf.Write(p)
	if bytes.Contains(w.buf.Bytes(), w.want) {
		w.once.Do(func() { close(w.seen) })
	}
	return n, err
}

// stallReader delivers data[:cut] in its first read, then blocks until
// release is closed (or the timeout passes, which it reports as an
// error) before it delivers the rest.
type stallReader struct {
	data    []byte
	cut     int
	off     int
	release <-chan struct{}
	timeout time.Duration
}

func (r *stallReader) Read(p []byte) (int, error) {
	if r.off == r.cut {
		select {
		case <-r.release:
		case <-time.After(r.timeout):
			return 0, errors.New("stdin stalled mid-line with the first job's arrival line still held")
		}
	}
	end := len(r.data)
	if r.off < r.cut {
		end = r.cut
	}
	if r.off == len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:end])
	r.off += n
	return n, nil
}

// The loop never waits on stdin while it holds lines: with line 1 and
// half of line 2 delivered and the rest not yet sent, line 1's arrival
// line is on stdout.
func TestServeWritesHeldLinesBeforeWaitingMidLine(t *testing.T) {
	jobs := testJobs(t, 2)
	stream := ndjson(t, jobs)
	line1 := bytes.IndexByte(stream, '\n') + 1
	out := &watchWriter{want: []byte(`{"event":"arrival","job_id":"` + jobs[0].ID + `"`), seen: make(chan struct{})}
	in := &stallReader{data: stream, cut: line1 + (len(stream)-line1)/2, release: out.seen, timeout: 10 * time.Second}
	var errOut bytes.Buffer
	if err := runServe(context.Background(), serveOptions{run: speedCloud(), window: 64}, in, out, &errOut); err != nil {
		t.Fatalf("runServe: %v\n%s", err, errOut.Bytes())
	}
	for _, j := range jobs {
		if !bytes.Contains(out.buf.Bytes(), []byte(`{"event":"finish","job_id":"`+j.ID+`"`)) {
			t.Fatalf("no finish line for %s:\n%s", j.ID, out.buf.Bytes())
		}
	}
}

// Concurrent submitters and a real-time clock share one emitter through
// the gateway: every write is whole lines, and every line is one
// complete lifecycle event.
func TestConcurrentGatewayCallsWriteWholeLines(t *testing.T) {
	var out countingWriter
	var errOut bytes.Buffer
	s, err := buildServer(serveOptions{run: speedCloud(), window: 64, timeScale: 1000}, nil, nil, &out, &errOut)
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
