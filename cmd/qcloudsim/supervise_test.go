package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/job"
)

// quietBackoff neuters the supervisor's real restart sleeps for the
// duration of a test.
func quietBackoff(t *testing.T) {
	t.Helper()
	saved := superviseBackoff.Sleep
	superviseBackoff.Sleep = func(context.Context, time.Duration) error { return nil }
	t.Cleanup(func() { superviseBackoff.Sleep = saved })
}

// spacedJobs builds a workload with inter-arrival gaps long enough for
// the broker to drain between arrivals, so periodic checkpoint ticks
// find quiescent points and recovery resumes mid-stream instead of
// replaying from scratch.
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

// superviseOpts is a -supervise run; inj arms its fault plan.
func superviseOpts(dir, name string, inj *faults.Injector) serveOptions {
	return serveOptions{
		cloud:          speedCloud(),
		window:         64,
		checkpointPath: filepath.Join(dir, name+".ckpt"),
		// Half the spaced workload's mean gap: every arrival is preceded
		// by a quiescent tick, without drowning the run in file writes.
		checkpointEvery: 25000,
		supervise:       true,
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

// recoveryEvents parses the recovery lines off a stderr stream.
func recoveryEvents(t *testing.T, errOut string) []recoveryEvent {
	t.Helper()
	var evs []recoveryEvent
	for _, line := range strings.Split(strings.TrimSpace(errOut), "\n") {
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var ev recoveryEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			continue
		}
		if ev.Event == "crash" || ev.Event == "recover" {
			evs = append(evs, ev)
		}
	}
	return evs
}

// countEvents tallies recovery events of each kind on a stderr stream.
func countEvents(t *testing.T, errOut string) map[string]int {
	t.Helper()
	counts := map[string]int{}
	for _, ev := range recoveryEvents(t, errOut) {
		counts[ev.Event]++
	}
	return counts
}

// With keep set (-supervise), a buffered line stays intact after the
// line reader refills its buffer past it, so a restarted incarnation
// replays exactly the bytes the stream delivered.
func TestLineFeedKeepsLinesAcrossRefills(t *testing.T) {
	var in bytes.Buffer
	var want []string
	for i := range 3000 { // about 3x the line reader's 64 KiB buffer
		want = append(want, fmt.Sprintf(`{"job_id":"job-%07d","num_qubits":140,"depth":10,"num_shots":20000}`, i))
		in.WriteString(want[i] + "\n")
	}
	lf := newLineFeed(&in, true)
	for pass := range 2 { // read ahead, then replay from the start
		for pos, w := range want {
			raw, terminated, err := lf.line(int64(pos))
			if err != nil || !terminated || string(raw) != w {
				t.Fatalf("pass %d, line %d: %q (terminated %v, error %v), want %q", pass, pos, raw, terminated, err, w)
			}
		}
	}
}

// The headline robustness gate: a broker killed mid-stream by an
// induced crash, restarted by the supervisor from its latest atomic
// checkpoint, must export completed-job records byte-identical to an
// uninterrupted run over the same stream.
func TestSupervisedRecoveryEquivalence(t *testing.T) {
	checkRecoveryEquivalence(t, speedCloud(), spacedJobs(t, 40), 12, 25000)
}

// Under calibration drift the restarted broker replays the
// checkpoint's drift steps, so its records still match.
func TestSupervisedDriftRecoveryEquivalence(t *testing.T) {
	drifting := speedCloud()
	drifting.policy = "fidelity"
	drifting.cfg.Drift = core.DriftConfig{IntervalS: 300, Rel: 0.3, Seed: 5}
	checkRecoveryEquivalence(t, drifting, spacedJobs(t, 40), 12, 25000)
}

// On a dense stream the broker is rarely quiescent, so the crash lands
// many lines after the last durable checkpoint, and some jobs between
// the two have already finished: the restart must roll the records back
// to the checkpoint before the replay records those jobs again.
func TestSupervisedDenseRecoveryEquivalence(t *testing.T) {
	cfg := job.DefaultSyntheticConfig()
	cfg.N = 60
	cfg.Seed = 1
	cfg.MeanInterarrival = 400
	jobs, err := job.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	evs, clean := checkRecoveryEquivalence(t, speedCloud(), jobs, 30, 400)
	crash, recovered := evs[0], evs[1]
	if crash.Pos-recovered.Pos < 2 {
		t.Fatalf("crash at line %d is not two lines past the checkpoint at %d", crash.Pos, recovered.Pos)
	}
	rows, err := csv.NewReader(bytes.NewReader(clean)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	finish := map[string]float64{}
	for _, r := range rows[1:] {
		if finish[r[0]], err = strconv.ParseFloat(r[3], 64); err != nil {
			t.Fatal(err)
		}
	}
	done := 0
	for _, j := range jobs[recovered.Pos:crash.Pos] {
		if finish[j.ID] < crash.SimNow {
			done++
		}
	}
	if done == 0 {
		t.Fatalf("no job between the checkpoint (line %d) and the crash (line %d, t=%g) had finished",
			recovered.Pos, crash.Pos, crash.SimNow)
	}
}

// checkRecoveryEquivalence runs jobs as one stream twice, uninterrupted
// and supervised with a crash at stream position crashAt and a
// checkpoint tick every checkpointEvery simulated seconds. It fails t
// unless the supervised run crashed once, recovered once past line 0,
// and exported the uninterrupted run's bytes. It returns the crash and
// recover events, in that order, and the export.
func checkRecoveryEquivalence(t *testing.T, c cloud, jobs []*job.QJob, crashAt int, checkpointEvery float64) ([]recoveryEvent, []byte) {
	t.Helper()
	quietBackoff(t)
	var stream bytes.Buffer
	if err := job.WriteNDJSON(&stream, jobs); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	clean := superviseOpts(dir, "clean", nil)
	clean.cloud = c
	clean.supervise = false
	var cleanOut, cleanErr bytes.Buffer
	if err := runServe(context.Background(), clean, bytes.NewReader(stream.Bytes()), &cleanOut, &cleanErr); err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}

	faulted := superviseOpts(dir, "faulted", crashInjector(t, crashAt, 1))
	faulted.cloud = c
	faulted.checkpointEvery = checkpointEvery
	var out, errOut bytes.Buffer
	err := runServe(context.Background(), faulted, bytes.NewReader(stream.Bytes()), &out, &errOut)
	if err != nil {
		t.Fatalf("supervised run: %v\nstderr:\n%s", err, errOut.String())
	}

	evs := recoveryEvents(t, errOut.String())
	counts := countEvents(t, errOut.String())
	if counts["crash"] != 1 || counts["recover"] != 1 {
		t.Fatalf("recovery events = %v, want one crash and one recover\nstderr:\n%s", counts, errOut.String())
	}
	for _, ev := range evs {
		if ev.Event == "recover" && ev.Pos == 0 {
			t.Fatalf("recovery restarted from stream position 0 — no durable checkpoint preceded the crash; events: %+v", evs)
		}
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
		t.Fatalf("recovered export diverges from uninterrupted run:\nclean:\n%s\nrecovered:\n%s", want, got)
	}
	return evs, want
}

// A broker that crashes at the same stream position on every restart
// makes no durable progress; the supervisor's crash-loop breaker must
// give up with a diagnosis instead of restarting forever.
func TestSupervisedCrashLoopBreaker(t *testing.T) {
	quietBackoff(t)
	jobs := testJobs(t, 8)
	var stream bytes.Buffer
	if err := job.WriteNDJSON(&stream, jobs); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	err := runServe(context.Background(), superviseOpts(t.TempDir(), "loop", crashInjector(t, 0, 0)),
		bytes.NewReader(stream.Bytes()), &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "crash-loop breaker") {
		t.Fatalf("crash loop = %v, want breaker error", err)
	}
	if counts := countEvents(t, errOut.String()); counts["crash"] != superviseBackoff.MaxAttempts {
		t.Fatalf("crash events = %v, want %d (one per exhausted attempt)", counts, superviseBackoff.MaxAttempts)
	}
}

// Two supervised runs with the identical plan and stream must produce
// the identical fault sequence and identical exports — the injector's
// determinism witness, end to end.
func TestSupervisedFaultSequenceDeterminism(t *testing.T) {
	quietBackoff(t)
	jobs := testJobs(t, 30)
	var stream bytes.Buffer
	if err := job.WriteNDJSON(&stream, jobs); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	run := func(name string) ([]faults.Event, []byte) {
		inj := crashInjector(t, 9, 1)
		var out, errOut bytes.Buffer
		err := runServe(context.Background(), superviseOpts(dir, name, inj),
			bytes.NewReader(stream.Bytes()), &out, &errOut)
		if err != nil {
			t.Fatalf("%s: %v\nstderr:\n%s", name, err, errOut.String())
		}
		data, err := os.ReadFile(filepath.Join(dir, name+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		return inj.Events(), data
	}
	ev1, csv1 := run("a")
	ev2, csv2 := run("b")
	if !reflect.DeepEqual(ev1, ev2) {
		t.Fatalf("fault sequences diverge:\n%+v\nvs\n%+v", ev1, ev2)
	}
	if len(ev1) == 0 {
		t.Fatal("plan never fired")
	}
	if !bytes.Equal(csv1, csv2) {
		t.Fatalf("exports diverge across identical supervised runs")
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

// Both ingest rule ops apply to logical-time stdin whether or not the
// run is supervised: a garbled line fails an unsupervised run at its
// line number, and a byte stream cut mid-record fails a supervised run
// as a truncation.
func TestLogicalIngestAppliesEveryRule(t *testing.T) {
	quietBackoff(t)
	stream := ndjson(t, testJobs(t, 8))
	dir := t.TempDir()

	garbled := superviseOpts(dir, "garble", faultInjector(t, faults.Rule{
		Layer: faults.LayerIngest, Op: faults.OpLine, Kind: faults.KindGarble, After: 3, Max: 1}))
	garbled.supervise = false
	var out, errOut bytes.Buffer
	err := runServe(context.Background(), garbled, bytes.NewReader(stream), &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "stream line 4:") {
		t.Errorf("unsupervised garble = %v, want a decode error naming stream line 4", err)
	}

	// Keep the first line and half of the second.
	cutAt := bytes.IndexByte(stream, '\n') + 40
	cut := superviseOpts(dir, "cut", faultInjector(t, faults.Rule{
		Layer: faults.LayerIngest, Op: faults.OpRead, Kind: faults.KindCut, Max: 1, Bytes: int64(cutAt)}))
	err = runServe(context.Background(), cut, bytes.NewReader(stream), &out, &errOut)
	if !errors.Is(err, job.ErrTruncated) || !strings.Contains(err.Error(), "stream line 2:") {
		t.Fatalf("supervised read cut = %v, want job.ErrTruncated at stream line 2", err)
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

// Logical-time stdin is bounded and truncation-aware with -supervise on
// and off: an overlong line errors before the stream is read to its
// end, and a final record cut before its newline is a truncation, not a
// clean end.
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
		for _, supervise := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/supervise=%t", row.name, supervise), func(t *testing.T) {
				opts := superviseOpts(t.TempDir(), "run", nil)
				opts.supervise = supervise
				in := row.input()
				var out, errOut bytes.Buffer
				err := runServe(context.Background(), opts, in, &out, &errOut)
				if !row.check(err) {
					t.Fatalf("error = %v", err)
				}
				if in.n >= huge {
					t.Fatalf("read %d bytes before failing", in.n)
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

// An unsupervised run with periodic checkpoints stamps the stream
// position on them like a supervised one: the final checkpoint covers
// every line.
func TestUnsupervisedCheckpointStampsIngested(t *testing.T) {
	opts := superviseOpts(t.TempDir(), "plain", nil)
	opts.supervise = false
	opts.checkpointEvery = 200000
	var out, errOut bytes.Buffer
	if err := runServe(context.Background(), opts, bytes.NewReader(ndjson(t, spacedJobs(t, 40))), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	cp, err := loadCheckpoint(opts.checkpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Ingested != 40 {
		t.Fatalf("final checkpoint ingested = %d, want 40 (every stream line)", cp.Ingested)
	}
}

// Without -supervise a broker crash is not retried: the run reports the
// crash event once, fails with the crash, and writes no export.
func TestUnsupervisedCrashWritesNoExport(t *testing.T) {
	opts := superviseOpts(t.TempDir(), "crash", crashInjector(t, 5, 1))
	opts.supervise = false
	var out, errOut bytes.Buffer
	err := runServe(context.Background(), opts, bytes.NewReader(ndjson(t, spacedJobs(t, 20))), &out, &errOut)
	var ce *brokerCrashError
	if !errors.As(err, &ce) || ce.pos != 5 {
		t.Fatalf("unsupervised crash = %v, want a broker crash at stream position 5", err)
	}
	if counts := countEvents(t, errOut.String()); counts["crash"] != 1 || counts["recover"] != 0 {
		t.Fatalf("recovery events = %v, want one crash and no recover", counts)
	}
	if _, err := os.Stat(opts.export); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("crashed run left an export: %v", err)
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
	exe, err := os.Executable()
	if err != nil {
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
	cmd := exec.CommandContext(ctx, exe, "-serve", "-time-scale", "10", "-fault-plan", plan)
	cmd.Env = append(os.Environ(), "QCLOUDSIM_TEST_MAIN=1")
	cmd.Stdin = stdin
	got, err := cmd.CombinedOutput()
	if err == nil || ctx.Err() != nil {
		t.Fatalf("real-time run with a line rule = %v (context %v), want a startup refusal\n%s", err, ctx.Err(), got)
	}
	if !strings.Contains(string(got), "rule 1 (ingest/line/garble)") {
		t.Fatalf("refusal does not name the line rule:\n%s", got)
	}
}
