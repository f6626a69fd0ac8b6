package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"repro/internal/runspec"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/job"
)

// spacedJobs builds a workload with inter-arrival gaps long enough for
// the broker to drain between arrivals, so periodic checkpoint ticks
// find quiescent points and a resumed run continues mid-stream instead
// of starting over.
func spacedJobs(t *testing.T, n int) []*job.QJob {
	t.Helper()
	cfg := job.DefaultSyntheticConfig()
	cfg.N = n
	cfg.Seed = 7
	cfg.MeanInterarrival = 50000
	jobs, err := job.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// recoveryOpts is a checkpointing, exporting run; inj arms its fault
// plan.
func recoveryOpts(dir, name string, inj *faults.Injector) serveOptions {
	return serveOptions{
		run:            speedCloud(),
		window:         64,
		checkpointPath: filepath.Join(dir, name+".ckpt"),
		// Half the spaced workload's mean gap: every arrival is preceded
		// by a quiescent tick, without drowning the run in file writes.
		checkpointEvery: 25000,
		export:          filepath.Join(dir, name+".csv"),
		inj:             inj,
	}
}

func crashInjector(t *testing.T, after, max int) *faults.Injector {
	t.Helper()
	inj, err := faults.NewInjector(&faults.Plan{Seed: 42, Rules: []faults.Rule{
		{Layer: faults.LayerIngest, Op: faults.OpLine, Kind: faults.KindCrash, After: after, Max: max},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// crashAndResume runs opts over stream until its plan's crash stops it
// (failing t unless it does), then restarts it the way a process
// manager would: -resume, no fault plan, the whole stream again. It
// returns the crashed run's stdout and the checkpoint it resumed from.
func crashAndResume(t *testing.T, opts serveOptions, stream []byte) (crashed []byte, cp *core.Checkpoint) {
	t.Helper()
	var out, errOut bytes.Buffer
	err := runServe(context.Background(), opts, bytes.NewReader(stream), &out, &errOut)
	if !errors.Is(err, errCrash) {
		t.Fatalf("crash run = %v, want an injected crash\nstderr:\n%s", err, errOut.String())
	}
	cp, err = loadCheckpoint(opts.checkpointPath)
	if err != nil {
		t.Fatalf("no checkpoint before the crash: %v", err)
	}
	opts.inj, opts.resume = nil, true
	var resumedErr bytes.Buffer
	if err := runServe(context.Background(), opts, bytes.NewReader(stream), io.Discard, &resumedErr); err != nil {
		t.Fatalf("resumed run: %v\nstderr:\n%s", err, resumedErr.String())
	}
	return out.Bytes(), cp
}

// The headline robustness gate: a broker stopped mid-stream by an
// injected crash and restarted by its supervisor (a process manager or
// shell loop running qcloudsim -resume over the same stream) must
// export records byte-identical to an uninterrupted run's.
func TestSupervisedRecoveryEquivalence(t *testing.T) {
	checkRecoveryEquivalence(t, speedCloud(), spacedJobs(t, 40), 12, 25000)
}

// Under calibration drift the resumed broker replays the checkpoint's
// drift steps, so its records still match.
func TestSupervisedDriftRecoveryEquivalence(t *testing.T) {
	drifting := speedCloud()
	drifting.Policy = "fidelity"
	drifting.Model.Drift = core.DriftConfig{IntervalS: 300, Rel: 0.3, Seed: 5}
	checkRecoveryEquivalence(t, drifting, spacedJobs(t, 40), 12, 25000)
}

// On a dense stream the broker is rarely quiescent, so the crash lands
// many lines after the last durable checkpoint, and some jobs between
// the two have already finished: the resumed run must cut the export
// back to the checkpoint before it records those jobs again.
func TestSupervisedDenseRecoveryEquivalence(t *testing.T) {
	cfg := job.DefaultSyntheticConfig()
	cfg.N = 60
	cfg.Seed = 1
	cfg.MeanInterarrival = 400
	jobs, err := job.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const crashAt = 30
	crashed, cp := checkRecoveryEquivalence(t, speedCloud(), jobs, crashAt, 400)
	if crashAt-cp.Ingested < 2 {
		t.Fatalf("crash at line %d is not two lines past the checkpoint at %d", crashAt, cp.Ingested)
	}
	done := 0
	for _, j := range jobs[cp.Ingested:crashAt] {
		if bytes.Contains(crashed, []byte(`{"event":"finish","job_id":"`+j.ID+`"`)) {
			done++
		}
	}
	if done == 0 {
		t.Fatalf("no job between the checkpoint (line %d) and the crash (line %d) had finished", cp.Ingested, crashAt)
	}
}

// checkRecoveryEquivalence runs jobs as one stream twice: uninterrupted,
// and crashed at stream position crashAt, with a checkpoint tick every
// checkpointEvery simulated seconds, then resumed. It fails t unless
// the crash left a checkpoint past line 0 and the resumed export is the
// uninterrupted run's bytes. It returns the crashed run's stdout and the
// checkpoint the resume started from.
func checkRecoveryEquivalence(t *testing.T, c runspec.Run, jobs []*job.QJob, crashAt int, checkpointEvery float64) ([]byte, *core.Checkpoint) {
	t.Helper()
	stream := ndjson(t, jobs)
	dir := t.TempDir()

	clean := recoveryOpts(dir, "clean", nil)
	clean.run = c
	var cleanErr bytes.Buffer
	if err := runServe(context.Background(), clean, bytes.NewReader(stream), io.Discard, &cleanErr); err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}

	faulted := recoveryOpts(dir, "faulted", crashInjector(t, crashAt, 1))
	faulted.run = c
	faulted.checkpointEvery = checkpointEvery
	crashed, cp := crashAndResume(t, faulted, stream)
	if cp.Ingested == 0 {
		t.Fatalf("the crash left a checkpoint at stream position 0: no durable progress preceded it")
	}
	if cp.Ingested > int64(crashAt) {
		t.Fatalf("checkpoint covers %d lines, past the crash at %d", cp.Ingested, crashAt)
	}
	want, err := os.ReadFile(clean.export)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(faulted.export)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("resumed export diverges from the uninterrupted run:\nclean:\n%s\nresumed:\n%s", want, got)
	}
	return crashed, cp
}

// Two crashed runs with the identical plan and stream must fire the
// identical fault sequence and leave the identical export, and their
// resumed runs must finish it identically — the injector's determinism
// witness, end to end.
func TestSupervisedFaultSequenceDeterminism(t *testing.T) {
	stream := ndjson(t, spacedJobs(t, 30))
	dir := t.TempDir()

	run := func(name string) ([]faults.Event, []byte, []byte) {
		inj := crashInjector(t, 9, 1)
		opts := recoveryOpts(dir, name, inj)
		var errOut bytes.Buffer
		if err := runServe(context.Background(), opts, bytes.NewReader(stream), io.Discard, &errOut); !errors.Is(err, errCrash) {
			t.Fatalf("%s: %v, want an injected crash\nstderr:\n%s", name, err, errOut.String())
		}
		partial, err := os.ReadFile(opts.export)
		if err != nil {
			t.Fatal(err)
		}
		opts.inj, opts.resume = nil, true
		if err := runServe(context.Background(), opts, bytes.NewReader(stream), io.Discard, &errOut); err != nil {
			t.Fatalf("%s resumed: %v", name, err)
		}
		final, err := os.ReadFile(opts.export)
		if err != nil {
			t.Fatal(err)
		}
		return inj.Events(), partial, final
	}
	ev1, part1, csv1 := run("a")
	ev2, part2, csv2 := run("b")
	if !reflect.DeepEqual(ev1, ev2) {
		t.Fatalf("fault sequences diverge:\n%+v\nvs\n%+v", ev1, ev2)
	}
	if len(ev1) == 0 {
		t.Fatal("plan never fired")
	}
	if !bytes.Equal(part1, part2) || !bytes.Equal(csv1, csv2) {
		t.Fatalf("exports diverge across identical crashed and resumed runs")
	}
}

// faultInjector compiles a one-rule fault plan.
func faultInjector(t *testing.T, r faults.Rule) *faults.Injector {
	t.Helper()
	inj, err := faults.NewInjector(&faults.Plan{Seed: 1, Rules: []faults.Rule{r}})
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// Both ingest rule ops apply to logical-time stdin: a garbled line
// fails the run at its line number, and a byte stream cut mid-record
// fails it as a truncation.
func TestLogicalIngestAppliesEveryRule(t *testing.T) {
	stream := ndjson(t, testJobs(t, 8))
	dir := t.TempDir()

	garbled := recoveryOpts(dir, "garble", faultInjector(t, faults.Rule{
		Layer: faults.LayerIngest, Op: faults.OpLine, Kind: faults.KindGarble, After: 3, Max: 1}))
	var out, errOut bytes.Buffer
	err := runServe(context.Background(), garbled, bytes.NewReader(stream), &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "stream line 4:") {
		t.Errorf("garble = %v, want a decode error naming stream line 4", err)
	}

	// Keep the first line and half of the second.
	cutAt := bytes.IndexByte(stream, '\n') + 40
	cut := recoveryOpts(dir, "cut", faultInjector(t, faults.Rule{
		Layer: faults.LayerIngest, Op: faults.OpRead, Kind: faults.KindCut, Max: 1, Bytes: int64(cutAt)}))
	err = runServe(context.Background(), cut, bytes.NewReader(stream), &out, &errOut)
	if !errors.Is(err, job.ErrTruncated) || !strings.Contains(err.Error(), "stream line 2:") {
		t.Fatalf("read cut = %v, want job.ErrTruncated at stream line 2", err)
	}
}

// countingReader counts the bytes its reader hands out.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// Logical-time stdin is bounded and truncation-aware in the line loop
// and in the lines a resumed run skips: an overlong line errors before
// the stream is read to its end, and a final record cut before its
// newline is a truncation, not a clean end. The resumed runs skip the
// two lines their checkpoint covers.
func TestLogicalIngestBoundedAndTruncationAware(t *testing.T) {
	stream := ndjson(t, testJobs(t, 3))
	last := bytes.LastIndexByte(stream[:len(stream)-1], '\n') + 1
	const huge = 2 << 20
	rows := []struct {
		name  string
		input func() *countingReader
		check func(err error) bool
	}{
		{"2MiB line without newline",
			func() *countingReader { return &countingReader{r: io.LimitReader(repeatByte('a'), huge)} },
			func(err error) bool { return err != nil && strings.Contains(err.Error(), "exceeds") }},
		{"final record cut",
			func() *countingReader {
				return &countingReader{r: bytes.NewReader(stream[:last+(len(stream)-last)/2])}
			},
			func(err error) bool {
				return errors.Is(err, job.ErrTruncated) && strings.Contains(err.Error(), "stream line 3:")
			}},
	}
	for _, row := range rows {
		for _, resume := range []bool{false, true} {
			name := row.name + "/fresh"
			if resume {
				name = row.name + "/resumed"
			}
			t.Run(name, func(t *testing.T) {
				opts := recoveryOpts(t.TempDir(), "run", nil)
				if resume {
					// A checkpoint covering the first two lines.
					first := opts
					first.export = ""
					if err := runServe(context.Background(), first, bytes.NewReader(stream[:last]), io.Discard, io.Discard); err != nil {
						t.Fatal(err)
					}
					opts.resume = true
				}
				in := row.input()
				var out, errOut bytes.Buffer
				err := runServe(context.Background(), opts, in, &out, &errOut)
				if !row.check(err) {
					t.Fatalf("error = %v", err)
				}
				if in.n >= huge {
					t.Fatalf("read %d bytes before failing", in.n)
				}
				if _, err := os.Stat(opts.export); !errors.Is(err, os.ErrNotExist) {
					t.Fatalf("a run that failed before any checkpoint left an export: %v", err)
				}
			})
		}
	}
}

// repeatByte is an endless stream of one byte.
type repeatByte byte

func (b repeatByte) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

// A run with periodic checkpoints stamps the stream position on them:
// the final checkpoint covers every line, and measures the export.
func TestUnsupervisedCheckpointStampsIngested(t *testing.T) {
	opts := recoveryOpts(t.TempDir(), "plain", nil)
	opts.checkpointEvery = 200000
	if err := runServe(context.Background(), opts, bytes.NewReader(ndjson(t, spacedJobs(t, 40))), io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	cp, err := loadCheckpoint(opts.checkpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Ingested != 40 {
		t.Fatalf("final checkpoint ingested = %d, want 40 (every stream line)", cp.Ingested)
	}
	fi, err := os.Stat(opts.export)
	if err != nil {
		t.Fatal(err)
	}
	if cp.ExportLen != fi.Size() {
		t.Fatalf("final checkpoint export_len = %d, the export has %d bytes", cp.ExportLen, fi.Size())
	}
}

// A crashed run stops at once: one fault event, no drain, no final
// checkpoint. It leaves the export its last checkpoint flushed (here
// followed by a torn row, as a kill mid-flush leaves it), and -resume
// over the whole stream completes it to the uninterrupted run's bytes.
func TestCrashedRunExportResumes(t *testing.T) {
	dir := t.TempDir()
	stream := ndjson(t, spacedJobs(t, 20))
	clean := recoveryOpts(dir, "clean", nil)
	if err := runServe(context.Background(), clean, bytes.NewReader(stream), io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}

	inj := crashInjector(t, 5, 1)
	opts := recoveryOpts(dir, "crash", inj)
	var errOut bytes.Buffer
	err := runServe(context.Background(), opts, bytes.NewReader(stream), io.Discard, &errOut)
	if !errors.Is(err, errCrash) || !strings.Contains(err.Error(), "stream line 6:") {
		t.Fatalf("crash = %v, want an injected crash at stream line 6", err)
	}
	if n := len(inj.Events()); n != 1 || strings.Contains(errOut.String(), "drained") {
		t.Fatalf("%d fault events, want one crash and no drain:\n%s", n, errOut.String())
	}
	cp, err := loadCheckpoint(opts.checkpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Ingested == 0 || cp.Ingested > 5 || cp.ExportLen == 0 {
		t.Fatalf("checkpoint after the crash: ingested %d, export_len %d", cp.Ingested, cp.ExportLen)
	}
	f, err := os.OpenFile(opts.export, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatalf("the crash left no export: %v", err)
	}
	if _, err := f.WriteString("torn-row,12"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	opts.inj, opts.resume = nil, true
	if err := runServe(context.Background(), opts, bytes.NewReader(stream), io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(clean.export)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(opts.export)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("resumed export diverges from the uninterrupted run:\nclean:\n%s\nresumed:\n%s", want, got)
	}
}

// firstLines returns the first n lines of an NDJSON stream.
func firstLines(stream []byte, n int) []byte {
	end := 0
	for range n {
		end += bytes.IndexByte(stream[end:], '\n') + 1
	}
	return stream[:end]
}

// -resume refuses a stream that ends before the checkpoint's ingested
// line, naming both counts, and refuses it before it touches the
// export: a continued export keeps its bytes, and a new one is not
// created.
func TestResumeRefusesShortStream(t *testing.T) {
	dir := t.TempDir()
	stream := ndjson(t, spacedJobs(t, 20))
	opts := recoveryOpts(dir, "run", nil)
	if err := runServe(context.Background(), opts, bytes.NewReader(firstLines(stream, 10)), io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(opts.export)
	if err != nil {
		t.Fatal(err)
	}
	opts.resume = true
	err = runServe(context.Background(), opts, bytes.NewReader(firstLines(stream, 6)), io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "ends after 6 lines") || !strings.Contains(err.Error(), "covers 10") {
		t.Fatalf("short stream = %v, want a refusal naming 6 and 10 lines", err)
	}
	if after, err := os.ReadFile(opts.export); err != nil || !bytes.Equal(before, after) {
		t.Fatalf("refused resume changed the export (%v)", err)
	}

	// A checkpoint without an export length: the new export is not created.
	plain := recoveryOpts(dir, "plain", nil)
	plain.export = ""
	if err := runServe(context.Background(), plain, bytes.NewReader(firstLines(stream, 10)), io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	plain.resume, plain.export = true, filepath.Join(dir, "new.csv")
	if err := runServe(context.Background(), plain, bytes.NewReader(firstLines(stream, 6)), io.Discard, io.Discard); err == nil {
		t.Fatal("short stream accepted")
	}
	if _, err := os.Stat(plain.export); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("refused resume created an export: %v", err)
	}
}

// -resume refuses an export the checkpoint measured if it is missing or
// shorter than the recorded length, naming the path and the lengths,
// and leaves the file as it found it.
func TestResumeRefusesMissingOrShortExport(t *testing.T) {
	dir := t.TempDir()
	stream := ndjson(t, spacedJobs(t, 20))
	opts := recoveryOpts(dir, "run", nil)
	if err := runServe(context.Background(), opts, bytes.NewReader(firstLines(stream, 10)), io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	cp, err := loadCheckpoint(opts.checkpointPath)
	if err != nil {
		t.Fatal(err)
	}
	opts.resume = true

	missing := opts
	missing.export = filepath.Join(dir, "missing.csv")
	err = runServe(context.Background(), missing, bytes.NewReader(stream), io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), missing.export+" is missing") || !strings.Contains(err.Error(), fmt.Sprint(cp.ExportLen)) {
		t.Fatalf("missing export = %v, want a refusal naming %s and %d bytes", err, missing.export, cp.ExportLen)
	}
	if _, err := os.Stat(missing.export); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("refused resume created the export: %v", err)
	}

	short := cp.ExportLen - 7
	if err := os.Truncate(opts.export, short); err != nil {
		t.Fatal(err)
	}
	err = runServe(context.Background(), opts, bytes.NewReader(stream), io.Discard, io.Discard)
	want := fmt.Sprintf("export %s has %d bytes, fewer than the %d", opts.export, short, cp.ExportLen)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("short export = %v, want %q", err, want)
	}
	if fi, err := os.Stat(opts.export); err != nil || fi.Size() != short {
		t.Fatalf("refused resume changed the export (%v)", err)
	}
}

// A checkpoint is a quiescent broker, and no qcloudsim ever wrote a
// queued-job snapshot: -resume over a checkpoint with a "pending" key
// exits 1 naming the field, and leaves the export as it found it.
func TestResumeRefusesPendingJobs(t *testing.T) {
	dir := t.TempDir()
	stream := ndjson(t, spacedJobs(t, 20))
	opts := recoveryOpts(dir, "run", nil)
	if err := runServe(context.Background(), opts, bytes.NewReader(firstLines(stream, 10)), io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	cp, err := os.ReadFile(opts.checkpointPath)
	if err != nil {
		t.Fatal(err)
	}
	pending := []byte(`"pending":[{"arrival":0,"job":{"job_id":"q","num_qubits":5,"depth":5,"num_shots":100}}],"devices":`)
	if err := os.WriteFile(opts.checkpointPath, bytes.Replace(cp, []byte(`"devices":`), pending, 1), 0o644); err != nil {
		t.Fatal(err)
	}
	export, err := os.ReadFile(opts.export)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := qcloudsimCmd(t, ctx, "-serve", "-policy", "speed", "-checkpoint", opts.checkpointPath, "-resume", "-export", opts.export)
	cmd.Stdin = bytes.NewReader(stream)
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("resume over a pending checkpoint = %v, want exit status 1\n%s", err, out)
	}
	if !strings.Contains(string(out), `unknown field "pending"`) {
		t.Fatalf("refusal does not name the field:\n%s", out)
	}
	if got, err := os.ReadFile(opts.export); err != nil || !bytes.Equal(got, export) {
		t.Fatalf("refused resume changed the export (%v)", err)
	}
}

// A checkpoint written before checkpoints measured the export (by the
// binary that wrote testdata/legacy/speed-10.ckpt over the first 10
// lines of spaced20.ndjson) still decodes and resumes: the run skips
// the 10 lines it covers, and -export starts a new file with the header
// and the rows of the other 10, the uninterrupted run's tail.
func TestResumeLegacyCheckpoint(t *testing.T) {
	dir := t.TempDir()
	stream, err := os.ReadFile("testdata/legacy/spaced20.ndjson")
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := os.ReadFile("testdata/legacy/speed-10.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(legacy, []byte("export_len")) {
		t.Fatal("fixture already records an export length")
	}
	opts := recoveryOpts(dir, "resumed", nil)
	if err := os.WriteFile(opts.checkpointPath, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	clean := recoveryOpts(dir, "clean", nil)
	clean.checkpointPath = ""
	if err := runServe(context.Background(), clean, bytes.NewReader(stream), io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	opts.resume = true
	if err := runServe(context.Background(), opts, bytes.NewReader(stream), io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(clean.export)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(opts.export)
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.SplitAfter(string(full), "\n")
	want := rows[0] + strings.Join(rows[len(rows)-11:], "")
	if string(got) != want {
		t.Fatalf("resumed export:\n%s\nwant the header and the last 10 rows:\n%s", got, want)
	}
}

// qcloudsimCmd is the test binary run as qcloudsim with args.
func qcloudsimCmd(t *testing.T, ctx context.Context, args ...string) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), "QCLOUDSIM_TEST_MAIN=1")
	return cmd
}

// A run stopped by an injected crash exits with its own status, so a
// driver can tell it from a failure; the crash rule needs no other flag.
func TestCrashExitStatus(t *testing.T) {
	dir := t.TempDir()
	plan := filepath.Join(dir, "plan.json")
	if err := os.WriteFile(plan, []byte(`{"seed":42,"rules":[{"layer":"ingest","op":"line","kind":"crash","after":2,"max":1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := qcloudsimCmd(t, ctx, "-serve", "-fault-plan", plan)
	cmd.Stdin = bytes.NewReader(ndjson(t, testJobs(t, 5)))
	got, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != exitCrash {
		t.Fatalf("crashed run = %v, want exit status %d\n%s", err, exitCrash, got)
	}
	if !strings.Contains(string(got), "stream line 3: injected crash") {
		t.Fatalf("crash message does not name the line:\n%s", got)
	}
}

// A real process death: qcloudsim is killed with SIGKILL while it waits
// for more of its stream, once its checkpoint covers part of it. The
// killed run's stdout holds the finish line of every job its last
// checkpoint covers, and the -resume run over the whole stream exports
// the uninterrupted run's bytes.
func TestKillResume(t *testing.T) {
	dir := t.TempDir()
	jobs := spacedJobs(t, 40)
	stream := ndjson(t, jobs)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	args := func(export string, extra ...string) []string {
		return append([]string{"-serve", "-policy", "fair", "-checkpoint", filepath.Join(dir, "cp.json"),
			"-checkpoint-every", "25000", "-export", filepath.Join(dir, export)}, extra...)
	}
	ref := qcloudsimCmd(t, ctx, "-serve", "-policy", "fair", "-export", filepath.Join(dir, "ref.csv"))
	ref.Stdin = bytes.NewReader(stream)
	if out, err := ref.CombinedOutput(); err != nil {
		t.Fatalf("uninterrupted run: %v\n%s", err, out)
	}

	killed := qcloudsimCmd(t, ctx, args("kill.csv")...)
	var killedOut bytes.Buffer
	killed.Stdout = &killedOut
	stdin, err := killed.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := killed.Start(); err != nil {
		t.Fatal(err)
	}
	// The first 20 lines; the run then waits for more.
	if _, err := stdin.Write(firstLines(stream, 20)); err != nil {
		t.Fatal(err)
	}
	for {
		if cp, err := loadCheckpoint(filepath.Join(dir, "cp.json")); err == nil && cp.Ingested > 0 {
			break
		}
		if ctx.Err() != nil {
			t.Fatal("no checkpoint with ingested > 0 before the deadline")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := killed.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	err = killed.Wait()
	stdin.Close()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.Sys().(syscall.WaitStatus).Signal() != syscall.SIGKILL {
		t.Fatalf("killed run = %v, want death by SIGKILL", err)
	}
	cp, err := loadCheckpoint(filepath.Join(dir, "cp.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs[:cp.Ingested] {
		if !bytes.Contains(killedOut.Bytes(), []byte(`{"event":"finish","job_id":"`+j.ID+`"`)) {
			t.Fatalf("the checkpoint covers %d lines, but the killed run's stdout has no finish line for %s:\n%s",
				cp.Ingested, j.ID, killedOut.Bytes())
		}
	}

	resumed := qcloudsimCmd(t, ctx, args("kill.csv", "-resume")...)
	resumed.Stdin = bytes.NewReader(stream)
	if out, err := resumed.CombinedOutput(); err != nil {
		t.Fatalf("resumed run: %v\n%s", err, out)
	}
	want, err := os.ReadFile(filepath.Join(dir, "ref.csv"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "kill.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("resumed export diverges from the uninterrupted run:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// A real-time broker decodes streams without the line loop, so a plan
// with an ingest line rule is refused at startup, naming the rule,
// before stdin is read: stdin here stays open and never delivers a byte.
func TestRealTimeRefusesLineRules(t *testing.T) {
	dir := t.TempDir()
	plan := filepath.Join(dir, "plan.json")
	if err := os.WriteFile(plan, []byte(`{"seed":1,"rules":[{"layer":"ingest","op":"read","kind":"stall"},{"layer":"ingest","op":"line","kind":"garble","after":3,"max":1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	stdin, hold, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Close()
	defer stdin.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := qcloudsimCmd(t, ctx, "-serve", "-time-scale", "10", "-fault-plan", plan)
	cmd.Stdin = stdin
	got, err := cmd.CombinedOutput()
	if err == nil || ctx.Err() != nil {
		t.Fatalf("real-time run with a line rule = %v (context %v), want a startup refusal\n%s", err, ctx.Err(), got)
	}
	if !strings.Contains(string(got), "rule 1 (ingest/line/garble)") {
		t.Fatalf("refusal does not name the line rule:\n%s", got)
	}
}
